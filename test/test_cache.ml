(* Cache manager: elements & dual representations, cache model, LRU with
   pinning, the query processor, capacity handling. *)

module L = Braid_logic
module T = L.Term
module R = Braid_relalg
module V = R.Value
module A = Braid_caql.Ast
module TS = Braid_stream.Tuple_stream
module Elem = Braid_cache.Element
module CModel = Braid_cache.Cache_model
module CMgr = Braid_cache.Cache_manager
module Repl = Braid_cache.Replacement

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let v x = T.Var x
let atom p args = L.Atom.make p args

let schema2 = R.Schema.make [ ("x", V.Tint); ("y", V.Tint) ]

let rel_of_pairs name pairs =
  R.Relation.of_tuples ~name schema2 (List.map (fun (a, b) -> [| V.Int a; V.Int b |]) pairs)

let def name = A.conj [ v "X"; v "Y" ] [ atom name [ v "X"; v "Y" ] ]

let big_rel name n = rel_of_pairs name (List.init n (fun i -> (i, i * 2)))

(* --- element representations --- *)

let test_element_extension () =
  let e = Elem.make ~id:"e1" ~def:(def "b") ~now:0 (Elem.Extension (rel_of_pairs "b" [ (1, 2) ])) in
  check_bool "materialized" true (Elem.is_materialized e);
  check_int "cardinality" 1 (Elem.cardinality_estimate e)

let test_element_generator_forcing () =
  let pulled = ref 0 in
  let gen =
    TS.from schema2 (fun () ->
        if !pulled >= 5 then None
        else begin
          incr pulled;
          Some [| V.Int !pulled; V.Int 0 |]
        end)
  in
  let e = Elem.make ~id:"e2" ~def:(def "b") ~now:0 (Elem.Generator gen) in
  check_bool "not materialized" false (Elem.is_materialized e);
  (* a cursor pulls two tuples; the element's estimate tracks the spine *)
  let c = TS.cursor (Elem.stream e) in
  ignore (TS.next c);
  ignore (TS.next c);
  check_int "partial" 2 (Elem.cardinality_estimate e);
  (* forcing converts the representation *)
  let ext = Elem.extension e in
  check_int "forced size" 5 (R.Relation.cardinality ext);
  check_bool "now materialized" true (Elem.is_materialized e);
  check_int "producer ran exactly once" 5 !pulled

let test_element_index () =
  let e =
    Elem.make ~id:"e3" ~def:(def "b") ~now:0
      (Elem.Extension (rel_of_pairs "b" [ (1, 2); (1, 3); (2, 4) ]))
  in
  let ix = Elem.ensure_index e [ 0 ] in
  check_int "bucket" 2 (List.length (R.Index.lookup ix [ V.Int 1 ]));
  let ix2 = Elem.ensure_index e [ 0 ] in
  check_bool "index reused" true (ix == ix2)

(* --- cache model --- *)

let test_model_pred_index () =
  let m = CModel.create ~capacity_bytes:1_000_000 in
  let e1 = Elem.make ~id:"e1" ~def:(def "b") ~now:(CModel.tick m) (Elem.Extension (rel_of_pairs "b" [])) in
  let e2 =
    Elem.make ~id:"e2"
      ~def:(A.conj [ v "X" ] [ atom "b" [ v "X"; v "Y" ]; atom "c" [ v "Y"; v "Z" ] ])
      ~now:(CModel.tick m)
      (Elem.Extension (R.Relation.create (R.Schema.make [ ("x", V.Tint) ])))
  in
  CModel.add m e1;
  CModel.add m e2;
  check_int "b candidates" 2 (List.length (CModel.candidates_for_pred m "b"));
  check_int "c candidates" 1 (List.length (CModel.candidates_for_pred m "c"));
  CModel.remove m "e1";
  check_int "after removal" 1 (List.length (CModel.candidates_for_pred m "b"));
  check_bool "duplicate id rejected" true
    (try
       CModel.add m e2;
       false
     with Invalid_argument _ -> true)

let test_model_summary_and_touch () =
  let m = CModel.create ~capacity_bytes:1_000_000 in
  let e = Elem.make ~id:"e1" ~def:(def "b") ~now:(CModel.tick m) (Elem.Extension (rel_of_pairs "b" [ (1, 1) ])) in
  CModel.add m e;
  CModel.touch m e;
  CModel.touch m e;
  let s = CModel.summary m in
  check_int "one element" 1 s.CModel.element_count;
  check_int "hits recorded" 2 s.CModel.total_hits;
  check_bool "lru clock advanced" true (e.Elem.last_used > e.Elem.created_at)

(* --- replacement --- *)

let test_lru_eviction_order () =
  let m = CModel.create ~capacity_bytes:1 (* force eviction of everything *) in
  let add id =
    let e = Elem.make ~id ~def:(def id) ~now:(CModel.tick m) (Elem.Extension (big_rel id 10)) in
    CModel.add m e;
    e
  in
  let e1 = add "e1" in
  let _e2 = add "e2" in
  let e3 = add "e3" in
  (* touch e1 so that e2 becomes the least recently used *)
  CModel.touch m e1;
  ignore e3;
  let victims = Repl.victims m ~needed_bytes:0 () in
  (match victims with
   | (first, fallback) :: _ ->
     Alcotest.(check string) "LRU first" "e2" first.Elem.id;
     check_bool "not a pinned fallback" false fallback
   | [] -> Alcotest.fail "expected victims");
  let _, used = Repl.evict m ~needed_bytes:0 () in
  check_bool "cache emptied to fit" true (CModel.used_bytes m <= 1);
  Alcotest.(check int) "evict reports the bytes left" (CModel.used_bytes m) used

let test_pinned_spared () =
  let m = CModel.create ~capacity_bytes:(3 * 800) in
  let add id =
    let e = Elem.make ~id ~def:(def id) ~now:(CModel.tick m) (Elem.Extension (big_rel id 10)) in
    CModel.add m e;
    e
  in
  let e1 = add "e1" in
  let _ = add "e2" in
  let _ = add "e3" in
  e1.Elem.pinned <- true;
  (* need room for one more element: the unpinned LRU (e2) must go, not e1 *)
  let victims = Repl.victims m ~needed_bytes:800 () in
  check_bool "pinned spared" true
    (List.for_all (fun ((e : Elem.t), _) -> e.Elem.id <> "e1") victims
    || List.length victims > 1)

let test_pinned_evicted_as_last_resort () =
  let m = CModel.create ~capacity_bytes:500 in
  let e = Elem.make ~id:"e1" ~def:(def "b") ~now:(CModel.tick m) (Elem.Extension (big_rel "b" 8)) in
  CModel.add m e;
  e.Elem.pinned <- true;
  let victims = Repl.victims m ~needed_bytes:400 () in
  check_bool "pinned evicted when nothing else can free space" true
    (List.exists (fun ((x : Elem.t), _) -> x.Elem.id = "e1") victims);
  check_bool "last-resort eviction tagged as pinned fallback" true
    (List.for_all (fun ((x : Elem.t), fallback) -> x.Elem.id <> "e1" || fallback) victims);
  let _, used = Repl.evict m ~needed_bytes:400 () in
  Alcotest.(check int) "evict reports the bytes left" (CModel.used_bytes m) used

let test_protected_never_evicted () =
  let m = CModel.create ~capacity_bytes:500 in
  let e = Elem.make ~id:"e1" ~def:(def "b") ~now:(CModel.tick m) (Elem.Extension (big_rel "b" 8)) in
  CModel.add m e;
  e.Elem.pinned <- true;
  (* protect must be honored unconditionally: unlike a merely pinned
     element, a protected one must not land in the fallback bucket even
     when nothing else can free space. *)
  let victims =
    Repl.victims m ~needed_bytes:400 ~protect:(fun (x : Elem.t) -> x.Elem.id = "e1") ()
  in
  check_bool "protected spared even as last resort" true
    (List.for_all (fun ((x : Elem.t), _) -> x.Elem.id <> "e1") victims)

(* --- cache manager --- *)

let test_insert_and_find_exact () =
  let c = CMgr.create ~capacity_bytes:1_000_000 () in
  let d = def "b" in
  (match CMgr.insert c ~def:d (Elem.Extension (rel_of_pairs "b" [ (1, 2) ])) with
   | None -> Alcotest.fail "insert failed"
   | Some e -> check_bool "id assigned" true (String.length e.Elem.id > 0));
  check_bool "exact by variant" true
    (CMgr.find_exact c (A.conj [ v "A"; v "B" ] [ atom "b" [ v "A"; v "B" ] ]) <> None);
  check_bool "different def not exact" true
    (CMgr.find_exact c (A.conj [ v "B" ] [ atom "b" [ T.Const (V.Int 1); v "B" ] ]) = None)

let test_insert_too_large () =
  let c = CMgr.create ~capacity_bytes:100 () in
  check_bool "oversized refused" true
    (CMgr.insert c ~def:(def "b") (Elem.Extension (big_rel "b" 1000)) = None);
  check_int "nothing inserted" 0 (CModel.summary (CMgr.model c)).CModel.element_count

let test_insert_evicts () =
  let one_size = R.Relation.bytes_estimate (big_rel "b" 10) + 64 in
  let c = CMgr.create ~capacity_bytes:(2 * one_size) () in
  let i1 = CMgr.insert c ~def:(def "b") (Elem.Extension (big_rel "b" 10)) in
  let i2 = CMgr.insert c ~def:(def "c") (Elem.Extension (big_rel "c" 10)) in
  let i3 = CMgr.insert c ~def:(def "d") (Elem.Extension (big_rel "d" 10)) in
  check_bool "all inserts succeeded" true (i1 <> None && i2 <> None && i3 <> None);
  let stats = CMgr.stats c in
  check_bool "eviction happened" true (stats.CMgr.evictions >= 1);
  check_bool "capacity respected" true
    (CModel.used_bytes (CMgr.model c) <= 2 * one_size)

let test_relevant_covers () =
  let c = CMgr.create ~capacity_bytes:1_000_000 () in
  ignore (CMgr.insert c ~def:(def "b") (Elem.Extension (rel_of_pairs "b" [ (1, 2); (3, 4) ])));
  ignore
    (CMgr.insert c
       ~def:(A.conj [ v "X" ] [ atom "zz" [ v "X" ] ])
       (Elem.Extension (R.Relation.create (R.Schema.make [ ("x", V.Tint) ]))));
  let covers =
    CMgr.relevant_covers c
      (Braid_subsume.Form.of_conj (A.conj [ v "Y" ] [ atom "b" [ T.Const (V.Int 1); v "Y" ] ]))
  in
  check_int "one relevant element" 1 (List.length covers)

let test_query_processor_eval () =
  let c = CMgr.create ~capacity_bytes:1_000_000 () in
  ignore (CMgr.insert c ~id:"eb" ~def:(def "b") (Elem.Extension (rel_of_pairs "b" [ (1, 2); (2, 3) ])));
  ignore (CMgr.insert c ~id:"ec" ~def:(def "c") (Elem.Extension (rel_of_pairs "c" [ (2, 9); (3, 9) ])));
  let q =
    A.Conj (A.conj [ v "X"; v "Z" ] [ atom "eb" [ v "X"; v "Y" ]; atom "ec" [ v "Y"; v "Z" ] ])
  in
  let r = CMgr.eval c q in
  check_int "join across elements" 2 (R.Relation.cardinality r);
  check_bool "touched counted" true ((CMgr.stats c).CMgr.tuples_touched > 0)

let test_query_processor_unknown () =
  let c = CMgr.create ~capacity_bytes:1_000_000 () in
  check_bool "unknown raises" true
    (try
       ignore (CMgr.eval c (A.Conj (A.conj [ v "X" ] [ atom "ghost" [ v "X"; v "Y" ] ])));
       false
     with Braid_cache.Query_processor.Unknown_relation _ -> true)

let test_lazy_eval_from_cache () =
  let c = CMgr.create ~capacity_bytes:1_000_000 () in
  ignore (CMgr.insert c ~id:"eb" ~def:(def "b") (Elem.Extension (big_rel "b" 50)));
  let stream = CMgr.eval_conj_lazy c (A.conj [ v "X" ] [ atom "eb" [ v "X"; v "Y" ] ]) in
  let cur = TS.cursor stream in
  ignore (TS.next cur);
  check_int "one tuple so far" 1 (TS.produced stream)

let test_index_probe_reduces_touched () =
  let c = CMgr.create ~capacity_bytes:10_000_000 () in
  let e =
    match CMgr.insert c ~id:"eb" ~def:(def "b") (Elem.Extension (big_rel "b" 1000)) with
    | Some e -> e
    | None -> Alcotest.fail "insert"
  in
  let q = A.Conj (A.conj [ v "Y" ] [ atom "eb" [ T.Const (V.Int 5); v "Y" ] ]) in
  ignore (CMgr.eval c q);
  let before = (CMgr.stats c).CMgr.tuples_touched in
  ignore (CMgr.ensure_index c e [ 0 ]);
  ignore (CMgr.eval c q);
  let delta = (CMgr.stats c).CMgr.tuples_touched - before in
  check_bool "indexed probe touches fewer tuples" true (delta < before)

let test_pin_api () =
  let c = CMgr.create ~capacity_bytes:1_000_000 () in
  (match CMgr.insert c ~id:"eb" ~def:(def "b") (Elem.Extension (rel_of_pairs "b" [])) with
   | Some _ -> ()
   | None -> Alcotest.fail "insert");
  CMgr.pin c "eb" true;
  (match CMgr.find c "eb" with
   | Some e -> check_bool "pinned" true e.Elem.pinned
   | None -> Alcotest.fail "missing");
  CMgr.pin c "eb" false;
  (match CMgr.find c "eb" with
   | Some e -> check_bool "unpinned" false e.Elem.pinned
   | None -> Alcotest.fail "missing");
  (* pinning an unknown id is a no-op *)
  CMgr.pin c "ghost" true

let test_model_find_variant_oldest () =
  let m = CModel.create ~capacity_bytes:1_000_000 in
  let add id d =
    CModel.add m (Elem.make ~id ~def:d ~now:(CModel.tick m) (Elem.Extension (rel_of_pairs "b" [])))
  in
  add "e1" (def "b");
  add "e2" (A.conj [ v "P"; v "Q" ] [ atom "b" [ v "P"; v "Q" ] ]);
  let key = Braid_subsume.Form.of_conj (A.conj [ v "A"; v "B" ] [ atom "b" [ v "A"; v "B" ] ]) in
  let found () = Option.map (fun (e : Elem.t) -> e.Elem.id) (CModel.find_variant m key) in
  Alcotest.(check (option string)) "oldest variant" (Some "e1") (found ());
  CModel.remove m "e1";
  Alcotest.(check (option string)) "next variant after removal" (Some "e2") (found ());
  CModel.remove m "e2";
  Alcotest.(check (option string)) "none left" None (found ())

(* The variant-key index must agree with the linear scan it replaced, kept
   here as the oracle, through inserts of colliding variants, removals,
   invalidations, capacity evictions and checkpoint + journal recovery. *)

let pool =
  [|
    A.conj [ v "X"; v "Y" ] [ atom "b" [ v "X"; v "Y" ] ];
    A.conj [ v "X"; v "Y" ] [ atom "b" [ v "X"; v "X" ]; atom "c" [ v "X"; v "Y" ] ];
    A.conj [ v "X"; v "Y" ] [ atom "b" [ v "X"; v "Z" ]; atom "c" [ v "Z"; v "Y" ] ];
    A.conj [ v "X"; v "Y" ] [ atom "c" [ v "X"; v "Y" ]; atom "b" [ v "Y"; T.Const (V.Int 1) ] ];
    A.conj [ v "Y"; v "X" ] [ atom "b" [ v "X"; v "Y" ] ];
  |]

(* Bijective renamings: every image of a pool entry is a variant of it. *)
let renamings =
  [|
    Fun.id;
    (fun x -> x ^ "1");
    (function "X" -> "Y" | "Y" -> "X" | x -> x);
    (function "X" -> "Z" | "Z" -> "X" | x -> x);
  |]

type cache_op =
  | Insert of int * int  (** pool entry, renaming *)
  | Remove of int  (** index into the live elements *)
  | Invalidate of string
  | Recover of bool  (** checkpoint first? then replay into a fresh model *)

let cache_op_to_string = function
  | Insert (i, r) -> Printf.sprintf "insert %d/%d" i r
  | Remove n -> Printf.sprintf "remove #%d" n
  | Invalidate p -> "invalidate " ^ p
  | Recover cp -> if cp then "checkpoint+replay" else "replay"

let gen_cache_op =
  QCheck.Gen.(
    frequency
      [
        ( 6,
          map2
            (fun i r -> Insert (i, r))
            (int_bound (Array.length pool - 1))
            (int_bound (Array.length renamings - 1)) );
        (2, map (fun n -> Remove n) (int_bound 7));
        (1, map (fun p -> Invalidate p) (oneofl [ "b"; "c" ]));
        (1, map (fun cp -> Recover cp) bool);
      ])

let prop_find_exact_matches_scan =
  QCheck.Test.make ~name:"find_exact agrees with the linear variant scan" ~count:200
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map cache_op_to_string ops))
       QCheck.Gen.(list_size (int_range 1 40) gen_cache_op))
    (fun ops ->
      let rel () = rel_of_pairs "b" [ (1, 2); (3, 4) ] in
      (* room for about four elements, so inserts evict *)
      let capacity_bytes =
        4 * Elem.bytes_estimate (Elem.make ~id:"e0" ~def:pool.(2) ~now:0 (Elem.Extension (rel ())))
      in
      let cmgr = ref (CMgr.create ~capacity_bytes ()) in
      let scan q =
        List.find_opt
          (fun (e : Elem.t) -> A.variant_equal e.Elem.def q)
          (CModel.elements (CMgr.model !cmgr))
      in
      let id = Option.map (fun (e : Elem.t) -> e.Elem.id) in
      let agrees () =
        Array.for_all
          (fun d ->
            Array.for_all
              (fun f ->
                let q = A.rename_vars f d in
                id (CMgr.find_exact !cmgr q) = id (scan q))
              renamings)
          pool
      in
      List.for_all
        (fun op ->
          (match op with
           | Insert (i, r) ->
             let def = A.rename_vars renamings.(r) pool.(i) in
             ignore (CMgr.insert !cmgr ~def (Elem.Extension (rel ())))
           | Remove n ->
             (match CModel.elements (CMgr.model !cmgr) with
              | [] -> ()
              | es -> CMgr.remove_element !cmgr (List.nth es (n mod List.length es)) ~pred:"b")
           | Invalidate p -> ignore (CMgr.invalidate_pred !cmgr p)
           | Recover cp ->
             if cp then ignore (CMgr.checkpoint !cmgr);
             let journal = CMgr.journal !cmgr in
             let model =
               Braid_cache.Journal.replay ~capacity_bytes
                 ~rebuild_generator:(fun _ -> Alcotest.fail "no generators cached")
                 journal
             in
             cmgr := CMgr.create ~journal ~model ~capacity_bytes ());
          agrees ())
        ops)

let suites : unit Alcotest.test list =
  [
    ( "cache",
      [
        Alcotest.test_case "element extension" `Quick test_element_extension;
        Alcotest.test_case "generator forcing" `Quick test_element_generator_forcing;
        Alcotest.test_case "element index" `Quick test_element_index;
        Alcotest.test_case "model predicate index" `Quick test_model_pred_index;
        Alcotest.test_case "model summary and touch" `Quick test_model_summary_and_touch;
        Alcotest.test_case "LRU eviction order" `Quick test_lru_eviction_order;
        Alcotest.test_case "pinned elements spared" `Quick test_pinned_spared;
        Alcotest.test_case "pinned evicted last resort" `Quick
          test_pinned_evicted_as_last_resort;
        Alcotest.test_case "protected never evicted" `Quick
          test_protected_never_evicted;
        Alcotest.test_case "insert and exact lookup" `Quick test_insert_and_find_exact;
        Alcotest.test_case "model finds the oldest variant" `Quick
          test_model_find_variant_oldest;
        QCheck_alcotest.to_alcotest prop_find_exact_matches_scan;
        Alcotest.test_case "oversized insert refused" `Quick test_insert_too_large;
        Alcotest.test_case "insert evicts to fit" `Quick test_insert_evicts;
        Alcotest.test_case "relevant covers via pred index" `Quick test_relevant_covers;
        Alcotest.test_case "query processor eval" `Quick test_query_processor_eval;
        Alcotest.test_case "unknown relation raises" `Quick test_query_processor_unknown;
        Alcotest.test_case "lazy eval from cache" `Quick test_lazy_eval_from_cache;
        Alcotest.test_case "index probe reduces touched" `Quick
          test_index_probe_reduces_touched;
        Alcotest.test_case "pin api" `Quick test_pin_api;
      ] );
  ]
