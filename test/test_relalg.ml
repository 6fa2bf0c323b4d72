(* Unit tests for the relational substrate. *)

module R = Braid_relalg
module V = R.Value
module RP = R.Row_pred

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let tup l = R.Tuple.make l

let sample_schema = R.Schema.make [ ("a", V.Tint); ("b", V.Tstr); ("c", V.Tint) ]

let sample_rel () =
  R.Relation.of_tuples ~name:"r" sample_schema
    [
      tup [ V.Int 1; V.Str "x"; V.Int 10 ];
      tup [ V.Int 2; V.Str "y"; V.Int 20 ];
      tup [ V.Int 3; V.Str "x"; V.Int 30 ];
      tup [ V.Int 1; V.Str "z"; V.Int 40 ];
    ]

(* --- values --- *)

let test_value_order () =
  check_bool "int order" true (V.compare (V.Int 1) (V.Int 2) < 0);
  check_bool "mixed numeric" true (V.compare (V.Int 2) (V.Float 2.0) = 0);
  check_bool "mixed numeric strict" true (V.compare (V.Int 2) (V.Float 2.5) < 0);
  check_bool "null smallest" true (V.compare V.Null (V.Int min_int) < 0);
  check_bool "str after num" true (V.compare (V.Str "a") (V.Int max_int) > 0)

let test_value_hash_consistent () =
  check_bool "equal values hash equal" true (V.hash (V.Int 2) = V.hash (V.Float 2.0))

let test_value_arith () =
  check_bool "add" true (V.equal (V.add (V.Int 1) (V.Int 2)) (V.Int 3));
  check_bool "promote" true (V.equal (V.add (V.Int 1) (V.Float 0.5)) (V.Float 1.5));
  check_bool "div by zero" true (V.equal (V.div (V.Int 1) (V.Int 0)) V.Null);
  check_bool "non-numeric" true (V.equal (V.mul (V.Str "a") (V.Int 2)) V.Null)

(* --- schema --- *)

let test_schema_positions () =
  check_int "position" 1 (R.Schema.position sample_schema "b");
  check_bool "missing" true (R.Schema.position_opt sample_schema "zz" = None);
  check_bool "dup rejected" true
    (try
       ignore (R.Schema.make [ ("a", V.Tint); ("a", V.Tstr) ]);
       false
     with Invalid_argument _ -> true)

let test_schema_concat_renames () =
  let s = R.Schema.concat sample_schema sample_schema in
  check_int "arity" 6 (R.Schema.arity s);
  check_str "renamed" "a'" (R.Schema.name_at s 3)

(* --- ops --- *)

let test_select () =
  let r = R.Ops.select (RP.Cmp (RP.Eq, Col 1, Lit (V.Str "x"))) (sample_rel ()) in
  check_int "two x rows" 2 (R.Relation.cardinality r)

let test_project () =
  let r = R.Ops.project [ 1 ] (sample_rel ()) in
  check_int "bag projection keeps duplicates" 4 (R.Relation.cardinality r);
  check_int "distinct" 3 (R.Relation.cardinality (R.Relation.distinct r))

let test_product () =
  let r = R.Ops.product (sample_rel ()) (sample_rel ()) in
  check_int "4x4" 16 (R.Relation.cardinality r);
  check_int "arity 6" 6 (R.Schema.arity (R.Relation.schema r))

let test_hash_join_matches_nested () =
  let a = sample_rel () and b = sample_rel () in
  let h = R.Ops.hash_join ~left_cols:[ 1 ] ~right_cols:[ 1 ] a b in
  let n = R.Ops.nested_join (RP.Cmp (RP.Eq, Col 1, Col 4)) a b in
  check_int "same cardinality" (R.Relation.cardinality n) (R.Relation.cardinality h);
  R.Relation.iter (fun t -> check_bool "tuple present" true (R.Relation.mem n t)) h

let test_join_residual () =
  let a = sample_rel () and b = sample_rel () in
  let h =
    R.Ops.hash_join ~left_cols:[ 1 ] ~right_cols:[ 1 ]
      ~residual:(RP.Cmp (RP.Lt, Col 2, Col 5))
      a b
  in
  R.Relation.iter
    (fun t -> check_bool "residual holds" true (V.compare (R.Tuple.get t 2) (R.Tuple.get t 5) < 0))
    h

let test_set_ops () =
  let a = sample_rel () in
  let empty = R.Relation.create sample_schema in
  check_int "union all" 8 (R.Relation.cardinality (R.Ops.union_all a a));
  check_int "union distinct" 4 (R.Relation.cardinality (R.Ops.union a a));
  check_int "inter self" 4 (R.Relation.cardinality (R.Ops.inter a a));
  check_int "diff self" 0 (R.Relation.cardinality (R.Ops.diff a a));
  check_int "diff empty" 4 (R.Relation.cardinality (R.Ops.diff a empty));
  check_bool "arity mismatch rejected" true
    (try
       ignore (R.Ops.union a (R.Ops.project [ 0 ] a));
       false
     with Invalid_argument _ -> true)

let test_merge_join_duplicate_keys () =
  (* equal-key groups on both sides must cross-product: keys 1 (2x2) and
     2 (1x3) plus unmatched keys on either side *)
  let schema = R.Schema.make [ ("k", V.Tint); ("v", V.Tstr) ] in
  let mk rows = R.Relation.of_tuples ~name:"m" schema rows in
  let a =
    mk
      [
        tup [ V.Int 0; V.Str "a0" ];
        tup [ V.Int 1; V.Str "a1" ];
        tup [ V.Int 1; V.Str "a1'" ];
        tup [ V.Int 2; V.Str "a2" ];
      ]
  in
  let b =
    mk
      [
        tup [ V.Int 1; V.Str "b1" ];
        tup [ V.Int 1; V.Str "b1'" ];
        tup [ V.Int 2; V.Str "b2" ];
        tup [ V.Int 2; V.Str "b2'" ];
        tup [ V.Int 2; V.Str "b2''" ];
        tup [ V.Int 3; V.Str "b3" ];
      ]
  in
  let m = R.Ops.merge_join ~left_cols:[ 0 ] ~right_cols:[ 0 ] a b in
  check_int "2*2 + 1*3 pairs" 7 (R.Relation.cardinality m);
  let h = R.Ops.hash_join ~left_cols:[ 0 ] ~right_cols:[ 0 ] a b in
  check_int "agrees with hash join" (R.Relation.cardinality h) (R.Relation.cardinality m);
  R.Relation.iter
    (fun t -> check_bool "keys equal in output" true (V.equal (R.Tuple.get t 0) (R.Tuple.get t 2)))
    m

let test_schema_view_shares_rows () =
  let r = sample_rel () in
  let q = R.Relation.qualify "e" r in
  check_str "qualified attr" "e.a" (R.Schema.name_at (R.Relation.schema q) 0);
  check_str "view named by alias" "e" (R.Relation.name q);
  check_int "same cardinality" 4 (R.Relation.cardinality q);
  (* the view aliases the storage: a row added to the base is visible *)
  R.Relation.add r (tup [ V.Int 9; V.Str "w"; V.Int 90 ]);
  check_int "view sees the new row" 5 (R.Relation.cardinality q);
  check_bool "arity mismatch rejected" true
    (try
       ignore (R.Relation.with_schema (R.Schema.make [ ("a", V.Tint) ]) r);
       false
     with Invalid_argument _ -> true)

let test_selection_vectors () =
  let r = sample_rel () in
  let pred = RP.Cmp (RP.Eq, RP.Col 1, RP.Lit (V.Str "x")) in
  let sv = R.Ops.select_sv pred r in
  check_int "two matches" 2 (Array.length sv);
  let materialized = R.Ops.materialize_sv r sv in
  check_int "materializes both" 2 (R.Relation.cardinality materialized);
  check_bool "same tuples as eager select" true
    (R.Relation.to_list materialized = R.Relation.to_list (R.Ops.select pred r));
  let projected = R.Ops.project_sv [ 2 ] r sv in
  check_int "fused select+project" 2 (R.Relation.cardinality projected);
  check_bool "same as select then project" true
    (R.Relation.to_list projected
    = R.Relation.to_list (R.Ops.project [ 2 ] (R.Ops.select pred r)))

let test_order_limit () =
  let r = R.Ops.order_by [ 2 ] (sample_rel ()) in
  check_bool "sorted" true (V.equal (R.Tuple.get (R.Relation.get r 0) 2) (V.Int 10));
  check_int "limit" 2 (R.Relation.cardinality (R.Ops.limit 2 r));
  check_int "limit over" 4 (R.Relation.cardinality (R.Ops.limit 99 r))

(* --- index --- *)

let test_index_lookup () =
  let r = sample_rel () in
  let ix = R.Index.build r [ 1 ] in
  check_int "x bucket" 2 (List.length (R.Index.lookup ix [ V.Str "x" ]));
  check_int "missing bucket" 0 (List.length (R.Index.lookup ix [ V.Str "q" ]));
  check_int "probes counted" 2 (R.Index.probes ix)

let test_index_multi_column () =
  let r = sample_rel () in
  let ix = R.Index.build r [ 0; 1 ] in
  check_int "(1,x)" 1 (List.length (R.Index.lookup ix [ V.Int 1; V.Str "x" ]));
  check_int "(1,z)" 1 (List.length (R.Index.lookup ix [ V.Int 1; V.Str "z" ]))

let test_select_indexed () =
  let r = sample_rel () in
  let ix = R.Index.build r [ 1 ] in
  let out =
    R.Ops.select_indexed ix [ V.Str "x" ] ~residual:(RP.Cmp (RP.Gt, Col 2, Lit (V.Int 15))) r
  in
  check_int "one row survives residual" 1 (R.Relation.cardinality out)

(* The sorted key directory an index-only scan reads is kept between
   scans; [Index.add] must keep it current. After one scan and two adds (a new key,
   and a second copy of an existing one), a scan must equal a fresh index's
   scan — key order and multiplicity — with and without [distinct]. One
   case per directory store: immediate ints, single values, composite keys. *)
let test_index_only_cache_follows_add () =
  let schema = R.Schema.make [ ("k", V.Tint); ("s", V.Tstr); ("n", V.Tint) ] in
  let rows = [ (3, "c", 1); (1, "a", 2); (3, "c", 3); (2, "b", 4); (1, "a", 5) ] in
  let row (k, s, n) = tup [ V.Int k; V.Str s; V.Int n ] in
  let scan ix ~distinct =
    let out, _ =
      R.Ops.index_only_scan ix (R.Schema.project schema (R.Index.columns ix)) ~distinct ()
    in
    List.map R.Tuple.to_list (R.Relation.to_list out)
  in
  List.iter
    (fun (store, cols) ->
      let r = R.Relation.of_tuples ~name:"r" schema (List.map row rows) in
      let ix = R.Index.build r cols in
      let before = scan ix ~distinct:false in
      ignore (scan ix ~distinct:true);
      List.iter
        (fun t ->
          R.Relation.add r t;
          R.Index.add ix t)
        [ row (0, "0", 6); row (2, "b", 7) ];
      let fresh = R.Index.build r cols in
      List.iter
        (fun distinct ->
          check_bool
            (Printf.sprintf "%s store, distinct %b: scan after add = fresh index" store distinct)
            true
            (scan ix ~distinct = scan fresh ~distinct))
        [ false; true ];
      check_int (store ^ " store: both adds visible") (List.length before + 2)
        (List.length (scan ix ~distinct:false)))
    [ ("int", [ 0 ]); ("string", [ 1 ]); ("composite", [ 0; 1 ]) ]

(* --- aggregation --- *)

let test_group_by () =
  let out =
    R.Aggregate.group_by [ 1 ]
      [ R.Aggregate.Count; R.Aggregate.Sum 2; R.Aggregate.Min 2; R.Aggregate.Max 2 ]
      (sample_rel ())
  in
  check_int "three groups" 3 (R.Relation.cardinality out);
  let x_row =
    List.find (fun t -> V.equal (R.Tuple.get t 0) (V.Str "x")) (R.Relation.to_list out)
  in
  check_bool "count" true (V.equal (R.Tuple.get x_row 1) (V.Int 2));
  check_bool "sum" true (V.equal (R.Tuple.get x_row 2) (V.Int 40));
  check_bool "min" true (V.equal (R.Tuple.get x_row 3) (V.Int 10));
  check_bool "max" true (V.equal (R.Tuple.get x_row 4) (V.Int 30))

let test_aggregate_empty_whole () =
  let empty = R.Relation.create sample_schema in
  let out = R.Aggregate.group_by [] [ R.Aggregate.Count; R.Aggregate.Avg 0 ] empty in
  check_int "one summary row" 1 (R.Relation.cardinality out);
  check_bool "count zero" true (V.equal (R.Tuple.get (R.Relation.get out 0) 0) (V.Int 0));
  check_bool "avg null" true (V.equal (R.Tuple.get (R.Relation.get out 0) 1) V.Null)

let test_avg () =
  let out = R.Aggregate.group_by [] [ R.Aggregate.Avg 2 ] (sample_rel ()) in
  check_bool "avg 25" true (V.equal (R.Tuple.get (R.Relation.get out 0) 0) (V.Float 25.0))

(* --- vec --- *)

let test_vec () =
  let v = R.Vec.create () in
  for i = 0 to 99 do
    R.Vec.push v i
  done;
  check_int "length" 100 (R.Vec.length v);
  check_int "get" 42 (R.Vec.get v 42);
  R.Vec.set v 42 1000;
  check_int "set" 1000 (R.Vec.get v 42);
  check_bool "pop" true (R.Vec.pop v = Some 99);
  check_int "after pop" 99 (R.Vec.length v);
  check_bool "oob" true
    (try
       ignore (R.Vec.get v 99);
       false
     with Invalid_argument _ -> true);
  R.Vec.sort compare v;
  check_int "sorted max is 1000" 1000 (R.Vec.get v 98)

let test_row_pred_arith () =
  let t = tup [ V.Int 6; V.Str "s"; V.Int 3 ] in
  check_bool "6 = 3*2" true (RP.eval (RP.Cmp (RP.Eq, Col 0, Mul (Col 2, Lit (V.Int 2)))) t);
  check_bool "conj simplification" true (RP.conj [] = RP.True);
  check_bool "conj false" true (RP.conj [ RP.True; RP.False ] = RP.False);
  check_bool "shift" true (RP.eval (RP.shift 2 (RP.Cmp (RP.Gt, Col 0, Lit (V.Int 1)))) t)

let suites : unit Alcotest.test list =
  [
    ( "relalg",
      [
        Alcotest.test_case "value ordering" `Quick test_value_order;
        Alcotest.test_case "value hash consistency" `Quick test_value_hash_consistent;
        Alcotest.test_case "value arithmetic" `Quick test_value_arith;
        Alcotest.test_case "schema positions" `Quick test_schema_positions;
        Alcotest.test_case "schema concat renames" `Quick test_schema_concat_renames;
        Alcotest.test_case "select" `Quick test_select;
        Alcotest.test_case "project" `Quick test_project;
        Alcotest.test_case "product" `Quick test_product;
        Alcotest.test_case "hash join = nested join" `Quick test_hash_join_matches_nested;
        Alcotest.test_case "join residual" `Quick test_join_residual;
        Alcotest.test_case "set operations" `Quick test_set_ops;
        Alcotest.test_case "merge join duplicate keys" `Quick test_merge_join_duplicate_keys;
        Alcotest.test_case "schema views share rows" `Quick test_schema_view_shares_rows;
        Alcotest.test_case "selection vectors" `Quick test_selection_vectors;
        Alcotest.test_case "order_by and limit" `Quick test_order_limit;
        Alcotest.test_case "index lookup" `Quick test_index_lookup;
        Alcotest.test_case "multi-column index" `Quick test_index_multi_column;
        Alcotest.test_case "indexed select" `Quick test_select_indexed;
        Alcotest.test_case "index-only cache follows add" `Quick test_index_only_cache_follows_add;
        Alcotest.test_case "group_by aggregates" `Quick test_group_by;
        Alcotest.test_case "aggregate over empty" `Quick test_aggregate_empty_whole;
        Alcotest.test_case "avg" `Quick test_avg;
        Alcotest.test_case "vec" `Quick test_vec;
        Alcotest.test_case "row predicates with arithmetic" `Quick test_row_pred_arith;
      ] );
  ]
