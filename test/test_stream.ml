(* Tuple streams: memoization, laziness, buffering. *)

module R = Braid_relalg
module V = R.Value
module TS = Braid_stream.Tuple_stream

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let schema1 = R.Schema.make [ ("n", V.Tint) ]

let counting_stream n =
  (* producer that counts how many tuples it was asked to make *)
  let produced = ref 0 in
  let s =
    TS.from schema1 (fun () ->
        if !produced >= n then None
        else begin
          incr produced;
          Some [| V.Int !produced |]
        end)
  in
  (s, produced)

let test_pull_on_demand () =
  let s, produced = counting_stream 100 in
  let c = TS.cursor s in
  check_int "nothing yet" 0 !produced;
  ignore (TS.next c);
  ignore (TS.next c);
  check_int "exactly two produced" 2 !produced;
  check_int "produced counter agrees" 2 (TS.produced s)

let test_memoization_shared_cursors () =
  let s, produced = counting_stream 10 in
  let c1 = TS.cursor s in
  for _ = 1 to 5 do
    ignore (TS.next c1)
  done;
  let c2 = TS.cursor s in
  for _ = 1 to 5 do
    ignore (TS.next c2)
  done;
  check_int "second cursor re-reads the spine" 5 !produced;
  ignore (TS.next c2);
  check_int "then extends it" 6 !produced

let test_exhaustion () =
  let s, _ = counting_stream 3 in
  let c = TS.cursor s in
  check_bool "not exhausted before reading" false (TS.exhausted s);
  let all = [ TS.next c; TS.next c; TS.next c; TS.next c; TS.next c ] in
  check_int "three tuples then None" 3 (List.length (List.filter Option.is_some all));
  check_bool "exhausted" true (TS.exhausted s)

let test_to_relation_forces () =
  let s, produced = counting_stream 7 in
  let r = TS.to_relation s in
  check_int "forced" 7 !produced;
  check_int "relation size" 7 (R.Relation.cardinality r)

let test_empty () =
  let s = TS.empty schema1 in
  check_bool "no tuples" true (TS.to_list s = [])

(* [of_relation] snapshots the row vector and [to_relation] hands out a
   fresh one: writes on either side of the stream stay on that side, while
   the tuples themselves are shared. *)
let test_relation_round_trip_no_alias () =
  let ints xs = List.map (fun x -> [| V.Int x |]) xs in
  let values l = List.map (fun t -> t.(0)) l in
  let r = R.Relation.of_tuples schema1 (ints [ 1; 2; 3 ]) in
  let s = TS.of_relation r in
  R.Relation.add r [| V.Int 4 |];
  check_bool "remove from the source" true (R.Relation.remove_once r [| V.Int 1 |]);
  let expected = values (ints [ 1; 2; 3 ]) in
  check_bool "stream keeps the snapshot" true (values (TS.to_list s) = expected);
  let out = TS.to_relation s in
  R.Relation.add out [| V.Int 9 |];
  check_bool "remove from the result" true (R.Relation.remove_once out [| V.Int 2 |]);
  check_bool "stream unchanged by writes to its result" true
    (values (TS.to_list s) = expected);
  check_bool "a fresh cursor reads the snapshot" true
    (let c = TS.cursor s in
     let rec all acc = match TS.next c with Some t -> all (t.(0) :: acc) | None -> List.rev acc in
     all [] = expected);
  check_bool "source unchanged by writes to the result" true
    (values (R.Relation.to_list r) = values (ints [ 2; 3; 4 ]));
  check_bool "tuples are shared, not copied" true
    (R.Relation.get (TS.to_relation s) 1 == R.Relation.get r 0)

let suites : unit Alcotest.test list =
  [
    ( "stream",
      [
        Alcotest.test_case "pull on demand" `Quick test_pull_on_demand;
        Alcotest.test_case "memoized spine shared by cursors" `Quick
          test_memoization_shared_cursors;
        Alcotest.test_case "exhaustion" `Quick test_exhaustion;
        Alcotest.test_case "to_relation forces" `Quick test_to_relation_forces;
        Alcotest.test_case "empty stream" `Quick test_empty;
        Alcotest.test_case "relation round trip shares no row vector" `Quick
          test_relation_round_trip_no_alias;
      ] );
  ]
