(* The QPO: per-mode solving, generalization, prefetching, lazy answers,
   plan reporting, cost estimation. *)

module L = Braid_logic
module T = L.Term
module R = Braid_relalg
module V = R.Value
module RP = R.Row_pred
module A = Braid_caql.Ast
module TS = Braid_stream.Tuple_stream
module Qpo = Braid_planner.Qpo
module Plan = Braid_planner.Plan
module Cost = Braid_planner.Cost
module Server = Braid_remote.Server
module CMgr = Braid_cache.Cache_manager
module Rdi = Braid_remote.Rdi
module Sql = Braid_remote.Sql
module Router = Braid_remote.Shard_router
module Coalescer = Braid_serve.Coalescer
module Adv = Braid_advice.Ast

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let v x = T.Var x
let s x = T.Const (V.Str x)
let atom p args = L.Atom.make p args

(* --- shared fixture: the paper-example database --- *)

let make_qpo ?(config = Qpo.braid_config) ?(capacity = 4 * 1024 * 1024) () =
  let server = Server.create () in
  List.iter
    (Braid_remote.Engine.load (Server.engine server))
    (Braid_workload.Datagen.paper_example ~size:25 ());
  let cache = CMgr.create ~capacity_bytes:capacity () in
  Qpo.create config ~cache ~server

let d2_def =
  A.conj [ v "X"; v "Y" ] [ atom "b2" [ v "X"; v "Z" ]; atom "b3" [ v "Z"; s "c2"; v "Y" ] ]

let b2_def = A.conj [ v "X"; v "Z" ] [ atom "b2" [ v "X"; v "Z" ] ]

let d2_instance y =
  A.conj [ v "X" ] [ atom "b2" [ v "X"; v "Z" ]; atom "b3" [ v "Z"; s "c2"; s y ] ]

let requests q = (Server.stats (Qpo.server q)).Server.requests

(* --- solving modes --- *)

let test_loose_always_remote () =
  let q = make_qpo ~config:Qpo.loose_coupling_config () in
  let a1 = Qpo.answer_conj q (d2_instance "y1") in
  let _ = TS.to_relation a1.Qpo.stream in
  let a2 = Qpo.answer_conj q (d2_instance "y1") in
  let _ = TS.to_relation a2.Qpo.stream in
  check_bool "both used remote" true
    (Plan.used_remote a1.Qpo.plan && Plan.used_remote a2.Qpo.plan);
  check_int "no cache" 0 (Braid_cache.Cache_model.summary (CMgr.model (Qpo.cache q))).Braid_cache.Cache_model.element_count

let test_exact_match_hit () =
  let q = make_qpo ~config:Qpo.bermuda_config () in
  let a1 = Qpo.answer_conj q (d2_instance "y1") in
  let r1 = TS.to_relation a1.Qpo.stream in
  let before = requests q in
  let a2 = Qpo.answer_conj q (d2_instance "y1") in
  let r2 = TS.to_relation a2.Qpo.stream in
  check_int "no new remote requests" before (requests q);
  check_bool "exact hit step" true
    (List.exists (function Plan.Exact_hit _ -> true | _ -> false) a2.Qpo.plan);
  check_bool "same answers" true
    (List.sort compare (R.Relation.to_list r1) = List.sort compare (R.Relation.to_list r2));
  (* a merely overlapping query gets no reuse in exact-match mode *)
  let a3 = Qpo.answer_conj q (d2_instance "y2") in
  let _ = TS.to_relation a3.Qpo.stream in
  check_bool "different constant misses" true (Plan.used_remote a3.Qpo.plan)

let test_subsumption_generalizes_reuse () =
  let q = make_qpo ~config:Qpo.no_advice_config () in
  (* prime the cache with the full d2 family *)
  let a0 = Qpo.answer_conj q d2_def in
  let _ = TS.to_relation a0.Qpo.stream in
  let before = requests q in
  (* now any instance is answerable from the cache *)
  let a1 = Qpo.answer_conj q (d2_instance "y3") in
  let r = TS.to_relation a1.Qpo.stream in
  check_int "no remote traffic" before (requests q);
  check_bool "cache-only plan" true (Plan.fully_from_cache a1.Qpo.plan);
  ignore r

let test_subsumption_partial_cover () =
  let q = make_qpo ~config:Qpo.no_advice_config () in
  (* cache only b2's extension *)
  let a0 = Qpo.answer_conj q (A.conj [ v "X"; v "Z" ] [ atom "b2" [ v "X"; v "Z" ] ]) in
  let _ = TS.to_relation a0.Qpo.stream in
  let a1 = Qpo.answer_conj q (d2_instance "y1") in
  let _ = TS.to_relation a1.Qpo.stream in
  check_bool "uses cached element" true
    (List.exists (function Plan.Use_element _ -> true | _ -> false) a1.Qpo.plan);
  check_bool "still needs remote for b3" true (Plan.used_remote a1.Qpo.plan);
  check_int "classified as partial hit" 1 (Qpo.metrics q).Qpo.partial_hits

let test_ship_vs_per_atom_cost () =
  let server = Server.create () in
  List.iter
    (Braid_remote.Engine.load (Server.engine server))
    (Braid_workload.Datagen.paper_example ~size:25 ());
  let catalog = Server.catalog server in
  let model = Braid_remote.Cost_model.default in
  (* joining two big relations: shipping should beat per-atom fetches with
     the default cost model because transfer dominates *)
  let ship = Cost.ship_cost model catalog d2_def in
  let per_atom = Cost.per_atom_cost model catalog d2_def in
  check_bool "estimates positive" true (ship > 0.0 && per_atom > 0.0);
  check_bool "selective join cheaper shipped" true (ship < per_atom)

let test_cost_estimates_sane () =
  let server = Server.create () in
  List.iter
    (Braid_remote.Engine.load (Server.engine server))
    (Braid_workload.Datagen.paper_example ~size:25 ());
  let catalog = Server.catalog server in
  let all = Cost.est_atom catalog (atom "b2" [ v "X"; v "Z" ]) in
  let sel = Cost.est_atom catalog (atom "b2" [ s "x1"; v "Z" ]) in
  check_bool "selection reduces estimate" true (sel < all);
  check_bool "join estimate bounded by product" true
    (Cost.est_conj catalog d2_def <= all * Cost.est_atom catalog (atom "b3" [ v "Z"; s "c2"; v "Y" ]))

(* --- advice-driven behaviour --- *)

let advice_for_d2 =
  {
    Adv.specs =
      [
        Adv.spec ~id:"d2" ~bindings:[ Adv.Producer; Adv.Consumer ] d2_def;
      ];
    path =
      Some
        (Adv.Seq
           ( [ Adv.Pattern ("d2", [ v "X"; v "Y" ]) ],
             { Adv.lo = 0; hi = Adv.Cardinality "Y" } ));
  }

let test_generalization () =
  let q = make_qpo ~config:Qpo.braid_config () in
  Qpo.set_advice q advice_for_d2;
  let a1 = Qpo.answer_conj q (d2_instance "y1") in
  let _ = TS.to_relation a1.Qpo.stream in
  check_bool "generalization step present" true
    (List.exists (function Plan.Generalized _ -> true | _ -> false) a1.Qpo.plan);
  let before = requests q in
  (* further instances come from the generalized element *)
  let a2 = Qpo.answer_conj q (d2_instance "y7") in
  let _ = TS.to_relation a2.Qpo.stream in
  check_int "no more remote requests" before (requests q);
  check_int "one generalization" 1 (Qpo.metrics q).Qpo.generalizations

let test_generalization_disabled_without_advice () =
  let q = make_qpo ~config:Qpo.no_advice_config () in
  Qpo.set_advice q advice_for_d2;
  let a1 = Qpo.answer_conj q (d2_instance "y1") in
  let _ = TS.to_relation a1.Qpo.stream in
  check_int "no generalization" 0 (Qpo.metrics q).Qpo.generalizations

let test_prefetch () =
  let d1_def = A.conj [ v "Y" ] [ atom "b1" [ s "c1"; v "Y" ] ] in
  let advice =
    {
      Adv.specs =
        [
          Adv.spec ~id:"d1" ~bindings:[ Adv.Producer ] d1_def;
          Adv.spec ~id:"d2" ~bindings:[ Adv.Producer; Adv.Consumer ] d2_def;
        ];
      path =
        Some
          (Adv.Seq
             ( [
                 Adv.Pattern ("d1", [ v "Y" ]);
                 Adv.Seq
                   ( [ Adv.Pattern ("d2", [ v "X"; v "Y" ]) ],
                     { Adv.lo = 0; hi = Adv.Cardinality "Y" } );
               ],
               { Adv.lo = 1; hi = Adv.Fin 1 } ));
    }
  in
  let q = make_qpo ~config:Qpo.braid_config () in
  Qpo.set_advice q advice;
  let a1 = Qpo.answer_conj q d1_def in
  let _ = TS.to_relation a1.Qpo.stream in
  (* d2 was predicted next and should have been prefetched *)
  check_bool "prefetch step" true
    (List.exists (function Plan.Prefetch { spec = "d2"; _ } -> true | _ -> false) a1.Qpo.plan);
  let before = requests q in
  let a2 = Qpo.answer_conj q (d2_instance "y1") in
  let _ = TS.to_relation a2.Qpo.stream in
  check_int "d2 instance served from prefetched element" before (requests q)

let test_index_built_from_annotations () =
  let q = make_qpo ~config:Qpo.braid_config () in
  Qpo.set_advice q advice_for_d2;
  let a1 = Qpo.answer_conj q (d2_instance "y1") in
  let _ = TS.to_relation a1.Qpo.stream in
  check_bool "index built on consumer column" true
    (List.exists (function Plan.Index_built _ -> true | _ -> false) a1.Qpo.plan)

let test_lazy_answer_from_cache () =
  let q = make_qpo ~config:Qpo.braid_config () in
  (* prime the cache *)
  let a0 = Qpo.answer_conj q d2_def in
  let _ = TS.to_relation a0.Qpo.stream in
  let a1 = Qpo.answer_conj q ~prefer_lazy:true (d2_instance "y1") in
  check_bool "lazy step" true
    (List.exists (function Plan.Lazy_answer -> true | _ -> false) a1.Qpo.plan);
  check_int "lazy counted" 1 (Qpo.metrics q).Qpo.lazy_answers;
  (* remote-needing queries are never lazy *)
  let q2 = make_qpo ~config:Qpo.braid_config () in
  let a2 = Qpo.answer_conj q2 ~prefer_lazy:true (d2_instance "y1") in
  check_bool "no lazy on miss" false
    (List.exists (function Plan.Lazy_answer -> true | _ -> false) a2.Qpo.plan)

let test_answer_query_union_agg () =
  let q = make_qpo () in
  let union =
    A.Union
      [
        A.Conj (A.conj [ v "Y" ] [ atom "b1" [ s "c1"; v "Y" ] ]);
        A.Conj (A.conj [ v "Y" ] [ atom "b3" [ v "X"; s "c2"; v "Y" ] ]);
      ]
  in
  let r, _ = Qpo.answer_query q union in
  check_bool "union nonempty" true (R.Relation.cardinality r > 0);
  check_int "union distinct" (R.Relation.cardinality (R.Relation.distinct r))
    (R.Relation.cardinality r);
  let agg =
    A.Agg
      {
        A.keys = [];
        specs = [ R.Aggregate.Count ];
        source = A.Conj (A.conj [ v "Y" ] [ atom "b1" [ s "c1"; v "Y" ] ]);
      }
  in
  let r2, _ = Qpo.answer_query q agg in
  check_int "one count row" 1 (R.Relation.cardinality r2)

let test_unknown_relation () =
  let q = make_qpo () in
  check_bool "unknown raises" true
    (try
       ignore (Qpo.answer_conj q (A.conj [ v "X" ] [ atom "ghost" [ v "X" ] ]));
       false
     with Qpo.Unknown_relation _ -> true)

(* A component's counter read must be a snapshot: a value read before
   [step] keeps its count, and a fresh read shows the increment. A read
   that handed out the live record would fail the first check. *)
let check_snapshot name read count step =
  let before = read () in
  let n = count before in
  step ();
  check_int (name ^ ": earlier read unchanged") n (count before);
  check_bool (name ^ ": fresh read counts the step") true (count (read ()) > n)

let test_metrics_snapshot () =
  let q = make_qpo ~config:Qpo.no_advice_config () in
  let k = ref 0 in
  let query () =
    incr k;
    let a = Qpo.answer_conj q (d2_instance (Printf.sprintf "y%d" !k)) in
    ignore (TS.to_relation a.Qpo.stream)
  in
  check_snapshot "Qpo.metrics" (fun () -> Qpo.metrics q) (fun m -> m.Qpo.queries) query;
  check_snapshot "Rdi.stats" (fun () -> Rdi.stats (Router.rdi (Qpo.router q) 0)) (fun s -> s.Rdi.requests) query;
  check_snapshot "Cache_manager.stats"
    (fun () -> CMgr.stats (Qpo.cache q))
    (fun s -> s.CMgr.insertions)
    query;
  let server = Qpo.server q in
  let cms = Braid.Cms.create server in
  let co = Coalescer.create cms in
  Coalescer.begin_round co;
  check_snapshot "Coalescer.stats"
    (fun () -> Coalescer.stats co)
    (fun s -> s.Coalescer.requests)
    (fun () -> ignore (Coalescer.fetch co b2_def (Sql.select_all "b2")));
  let router = Router.create ~shards:2 server in
  check_snapshot "Shard_router.counters"
    (fun () -> Router.counters router)
    (fun c -> c.Router.requests)
    (fun () -> ignore (Router.exec router (Sql.select_all "b2")))

let test_parallel_overlap_reduces_elapsed () =
  (* identical work with and without overlap: elapsed must not increase *)
  let run parallel =
    let config = { Qpo.no_advice_config with Qpo.allow_parallel = parallel } in
    let q = make_qpo ~config () in
    let a0 = Qpo.answer_conj q (A.conj [ v "X"; v "Z" ] [ atom "b2" [ v "X"; v "Z" ] ]) in
    let _ = TS.to_relation a0.Qpo.stream in
    let a1 = Qpo.answer_conj q (d2_instance "y1") in
    let _ = TS.to_relation a1.Qpo.stream in
    (Qpo.metrics q).Qpo.elapsed_ms
  in
  check_bool "overlap helps" true (run true <= run false)

let suites : unit Alcotest.test list =
  [
    ( "planner",
      [
        Alcotest.test_case "loose coupling always remote" `Quick test_loose_always_remote;
        Alcotest.test_case "exact-match hit and miss" `Quick test_exact_match_hit;
        Alcotest.test_case "subsumption covers instances" `Quick
          test_subsumption_generalizes_reuse;
        Alcotest.test_case "subsumption partial cover" `Quick test_subsumption_partial_cover;
        Alcotest.test_case "ship vs per-atom cost" `Quick test_ship_vs_per_atom_cost;
        Alcotest.test_case "cost estimates sane" `Quick test_cost_estimates_sane;
        Alcotest.test_case "generalization" `Quick test_generalization;
        Alcotest.test_case "generalization off without advice" `Quick
          test_generalization_disabled_without_advice;
        Alcotest.test_case "prefetch" `Quick test_prefetch;
        Alcotest.test_case "advice-driven indexing" `Quick test_index_built_from_annotations;
        Alcotest.test_case "lazy answer from cache" `Quick test_lazy_answer_from_cache;
        Alcotest.test_case "union and aggregation" `Quick test_answer_query_union_agg;
        Alcotest.test_case "unknown relation" `Quick test_unknown_relation;
        Alcotest.test_case "metrics snapshot" `Quick test_metrics_snapshot;
        Alcotest.test_case "parallel overlap" `Quick test_parallel_overlap_reduces_elapsed;
      ] );
  ]

(* --- the fixpoint operator through the CMS --- *)

let test_fixpoint_via_cms () =
  let q = make_qpo () in
  let base = A.Conj (A.conj [ v "X"; v "Z" ] [ atom "b2" [ v "X"; v "Z" ] ]) in
  let step =
    A.Conj
      (A.conj [ v "X"; v "W" ] [ atom "reach" [ v "X"; v "Z" ]; atom "b2" [ v "Z"; v "W" ] ])
  in
  let r, _plan = Qpo.answer_query q (A.Fixpoint { A.name = "reach"; base; step }) in
  let direct, _ = Qpo.answer_query q base in
  check_bool "closure at least the base" true
    (R.Relation.cardinality r >= R.Relation.cardinality (R.Relation.distinct direct));
  (* base tuples are contained *)
  R.Relation.iter
    (fun t -> check_bool "base tuple in closure" true (R.Relation.mem r t))
    (R.Relation.distinct direct)

(* The QPO's answer to a full CAQL tree is Eval's over the engine's own
   tables, as sets: both are the one operator walk, over planner-answered
   leaves and over base tables respectively. *)
let gen_caql_tree =
  let open QCheck.Gen in
  let conj head atoms = A.Conj (A.conj head atoms) in
  let xy = [ v "X"; v "Y" ] in
  let leaf2 =
    oneofl
      [
        conj xy [ atom "b1" xy ];
        conj xy [ atom "b2" xy ];
        conj xy [ atom "b3" [ v "X"; s "c2"; v "Y" ] ];
        conj xy [ atom "b3" [ v "X"; s "c3"; v "Y" ] ];
        conj xy [ atom "b2" [ v "X"; v "Z" ]; atom "b1" [ v "Z"; v "Y" ] ];
      ]
  in
  let leaf1 =
    oneofl
      [
        conj [ v "Y" ] [ atom "b1" [ s "c1"; v "Y" ] ];
        conj [ v "Y" ] [ atom "b3" [ v "Z"; s "c2"; v "Y" ] ];
        conj [ v "Z" ] [ atom "b2" [ v "X"; v "Z" ] ];
      ]
  in
  let step b = conj xy [ atom "fx" [ v "X"; v "Z" ]; atom b [ v "Z"; v "Y" ] ] in
  let rec tree2 d =
    if d = 0 then leaf2
    else
      frequency
        [
          (3, leaf2);
          (1, map2 (fun a b -> A.Union [ a; b ]) (tree2 (d - 1)) (tree2 (d - 1)));
          (1, map2 (fun a b -> A.Diff (a, b)) (tree2 (d - 1)) (tree2 (d - 1)));
          (1, map (fun a -> A.Distinct a) (tree2 (d - 1)));
          ( 1,
            map2
              (fun base step -> A.Fixpoint { A.name = "fx"; base; step })
              (tree2 (d - 1))
              (oneof
                 [
                   return (step "b1");
                   return (step "b2");
                   map (fun l -> A.Union [ step "b1"; l ]) leaf2;
                 ]) );
        ]
  and tree1 d =
    if d = 0 then leaf1
    else
      frequency
        [
          (3, leaf1);
          (1, map2 (fun a b -> A.Division (a, b)) (tree2 (d - 1)) (tree1 (d - 1)));
          (1, map2 (fun a b -> A.Union [ a; b ]) (tree1 (d - 1)) (tree1 (d - 1)));
          (1, map2 (fun a b -> A.Diff (a, b)) (tree1 (d - 1)) (tree1 (d - 1)));
          (1, map (fun a -> A.Distinct a) (tree1 (d - 1)));
        ]
  in
  let count keys src = A.Agg { A.keys; specs = [ R.Aggregate.Count ]; source = A.Distinct src } in
  oneof [ tree2 3; tree1 3; map (count [ 0 ]) (tree2 2); map (count []) (tree1 2) ]

(* Operands run left to right: the plan lists the left leaf's fetch first. *)
let test_diff_plan_order () =
  let q = make_qpo ~config:Qpo.no_advice_config () in
  let diff =
    A.Diff
      ( A.Conj (A.conj [ v "Y" ] [ atom "b1" [ s "c1"; v "Y" ] ]),
        A.Conj (A.conj [ v "Y" ] [ atom "b3" [ v "X"; s "c2"; v "Y" ] ]) )
  in
  let _, plan = Qpo.answer_query q diff in
  let fetched =
    List.filter_map
      (function
        | Plan.Remote_fetch { sql; _ } | Plan.Ship_subquery { sql; _ } -> Some sql | _ -> None)
      plan
  in
  let mentions table sql = List.mem table (String.split_on_char ' ' sql) in
  match fetched with
  | [ first; second ] ->
    check_bool "left operand fetched first" true (mentions "b1" first && mentions "b3" second)
  | _ -> Alcotest.failf "expected two fetches: %s" (Plan.to_string plan)

let qpo_equals_eval =
  let q = lazy (make_qpo ()) in
  QCheck.Test.make ~count:200 ~name:"Qpo.answer_query = Eval.query over the tables"
    (QCheck.make ~print:A.to_string gen_caql_tree)
    (fun tree ->
      let q = Lazy.force q in
      let engine = Server.engine (Qpo.server q) in
      let as_set r = List.sort_uniq compare (R.Relation.to_list r) in
      let expected =
        Braid_caql.Eval.query tree
          ~source:(fun a -> Braid_remote.Engine.table engine a.L.Atom.pred)
          ~schema_of:(Braid_remote.Catalog.schema_of (Braid_remote.Engine.catalog engine))
      in
      as_set (fst (Qpo.answer_query q tree)) = as_set expected)

let fixpoint_cases =
  [
    Alcotest.test_case "fixpoint via the CMS" `Quick test_fixpoint_via_cms;
    Alcotest.test_case "difference plan order" `Quick test_diff_plan_order;
    QCheck_alcotest.to_alcotest qpo_equals_eval;
  ]

let suites = match suites with
  | [ (name, cases) ] -> [ (name, cases @ fixpoint_cases) ]
  | other -> other

(* --- the paper's §5.3.3 overlap example (E101/E102 vs E103) --- *)

let test_prefer_join_view_over_two_relations () =
  let q = make_qpo ~config:Qpo.no_advice_config () in
  (* cache three elements as in the paper: single relations b2, b3 and the
     join view over both *)
  let e_b2 = A.conj [ v "X"; v "Y" ] [ atom "b2" [ v "X"; v "Y" ] ] in
  let e_b3 = A.conj [ v "X"; v "Y"; v "Z" ] [ atom "b3" [ v "X"; v "Y"; v "Z" ] ] in
  (* the join view first (so it is fetched remotely and cached), then the
     single relations *)
  List.iter
    (fun def -> ignore (TS.to_relation (Qpo.answer_conj q def).Qpo.stream))
    [ d2_def; e_b2; e_b3 ];
  (* the instance query overlaps all three; the QPO must pick the join view
     (one element covering both atoms), as the paper argues for E103 *)
  let a = Qpo.answer_conj q (d2_instance "y1") in
  let _ = TS.to_relation a.Qpo.stream in
  let used =
    List.filter_map
      (function Plan.Use_element { element; covered_atoms } -> Some (element, covered_atoms) | _ -> None)
      a.Qpo.plan
  in
  (match used with
   | [ (_, covered) ] -> check_int "single element covers both atoms" 2 (List.length covered)
   | _ -> Alcotest.failf "expected exactly one covering element, got %d" (List.length used));
  check_bool "fully from cache" true (Plan.fully_from_cache a.Qpo.plan)

(* --- queries the remote DML cannot evaluate --- *)

let test_arithmetic_falls_back_to_local () =
  (* an arithmetic comparison cannot be shipped to the remote DML; every
     configuration must fetch the relation and evaluate it locally *)
  let arith_q =
    A.conj
      ~cmps:
        [
          ( Braid_relalg.Row_pred.Ge,
            L.Literal.Mul (L.Literal.Term (v "Q"), L.Literal.Term (T.Const (V.Int 2))),
            L.Literal.Term (T.Const (V.Int 400)) );
        ]
      [ v "S"; v "P"; v "Q" ]
      [ atom "supplies" [ v "S"; v "P"; v "Q" ] ]
  in
  let reference = ref (-1) in
  List.iter
    (fun config ->
      let server = Server.create () in
      List.iter
        (Braid_remote.Engine.load (Server.engine server))
        (Braid_workload.Datagen.supplier_parts ~suppliers:5 ~parts:10 ~shipments:80 ());
      let q = Qpo.create config ~cache:(CMgr.create ~capacity_bytes:(1 lsl 20) ()) ~server in
      let a = Qpo.answer_conj q arith_q in
      let r = TS.to_relation a.Qpo.stream in
      check_bool "some rows pass Q*2 >= 400" true (R.Relation.cardinality r > 0);
      check_bool "not all rows pass" true (R.Relation.cardinality r < 80);
      R.Relation.iter
        (fun t ->
          match R.Tuple.get t 2 with
          | V.Int qv -> check_bool "filter applied" true (qv * 2 >= 400)
          | _ -> Alcotest.fail "expected int qty")
        r;
      if !reference < 0 then reference := R.Relation.cardinality r
      else check_int "all configs agree" !reference (R.Relation.cardinality r))
    [ Qpo.loose_coupling_config; Qpo.bermuda_config; Qpo.braid_config ]

let element_ids q =
  List.map
    (fun (e : Braid_cache.Element.t) -> e.Braid_cache.Element.id)
    (Braid_cache.Cache_model.elements (CMgr.model (Qpo.cache q)))

let journal_length q = Braid_cache.Journal.length (CMgr.journal (Qpo.cache q))

(* A lazy answer streams over the extension that covers the query and
   stores nothing: asking again is answered from that extension. *)
let test_lazy_answer_admits_nothing () =
  let q = make_qpo ~config:Qpo.braid_config () in
  let _ = TS.to_relation (Qpo.answer_conj q d2_def).Qpo.stream in
  let cover = (Option.get (CMgr.find_exact (Qpo.cache q) d2_def)).Braid_cache.Element.id in
  let ids = element_ids q and entries = journal_length q in
  let lazy_a = Qpo.answer_conj q ~prefer_lazy:true (d2_instance "y1") in
  check_bool "lazy answer" true
    (List.exists (function Plan.Lazy_answer -> true | _ -> false) lazy_a.Qpo.plan);
  ignore (TS.next (TS.cursor lazy_a.Qpo.stream));
  check_bool "no element admitted" true (element_ids q = ids);
  check_int "nothing journaled" entries (journal_length q);
  let again = Qpo.answer_conj q (d2_instance "y1") in
  check_bool "answered from the covering extension" true
    (List.exists
       (function Plan.Use_element { element; _ } -> element = cover | _ -> false)
       again.Qpo.plan);
  let fresh = make_qpo ~config:Qpo.loose_coupling_config () in
  let r_ref = TS.to_relation (Qpo.answer_conj fresh (d2_instance "y1")).Qpo.stream in
  let norm rel =
    List.sort_uniq compare (List.map R.Tuple.to_list (R.Relation.to_list rel))
  in
  check_bool "answers equal loose coupling" true
    (norm (TS.to_relation again.Qpo.stream) = norm r_ref)

(* A query answered lazily leaves no element under its form, so a spec
   with that form is still prefetched when predicted — from the cache,
   with no remote request. *)
let test_prefetch_after_lazy_answer () =
  let d1_def = A.conj [ v "Y" ] [ atom "b1" [ s "c1"; v "Y" ] ] in
  let q = make_qpo ~config:Qpo.braid_config () in
  let _ = TS.to_relation (Qpo.answer_conj q d2_def).Qpo.stream in
  let lazy_a = Qpo.answer_conj q ~prefer_lazy:true (d2_instance "y1") in
  check_bool "lazy answer" true
    (List.exists (function Plan.Lazy_answer -> true | _ -> false) lazy_a.Qpo.plan);
  Qpo.set_advice q
    {
      Adv.specs =
        [
          Adv.spec ~id:"d1" ~bindings:[ Adv.Producer ] d1_def;
          Adv.spec ~id:"d2y1" ~bindings:[ Adv.Producer ] (d2_instance "y1");
        ];
      path =
        Some
          (Adv.Seq
             ( [ Adv.Pattern ("d1", [ v "Y" ]); Adv.Pattern ("d2y1", [ v "X" ]) ],
               { Adv.lo = 1; hi = Adv.Fin 1 } ));
    };
  let a1 = Qpo.answer_conj q d1_def in
  let _ = TS.to_relation a1.Qpo.stream in
  check_bool "the lazily answered spec is prefetched" true
    (List.exists (function Plan.Prefetch { spec = "d2y1"; _ } -> true | _ -> false) a1.Qpo.plan);
  let before = requests q in
  let a2 = Qpo.answer_conj q (d2_instance "y1") in
  let _ = TS.to_relation a2.Qpo.stream in
  check_int "served from the cache" before (requests q);
  check_bool "an exact hit on the prefetched element" true
    (List.exists (function Plan.Exact_hit _ -> true | _ -> false) a2.Qpo.plan)

let test_single_relation_mode_reuses_selections () =
  let q = make_qpo ~config:Qpo.ceri_config () in
  let one = A.conj [ v "Y" ] [ atom "b1" [ s "c1"; v "Y" ] ] in
  let _ = TS.to_relation (Qpo.answer_conj q one).Qpo.stream in
  let before = requests q in
  (* the same single-relation selection: reused *)
  let _ = TS.to_relation (Qpo.answer_conj q one).Qpo.stream in
  check_int "selection cached per atom" before (requests q);
  (* a join query whose atoms include that selection reuses the element *)
  let join =
    A.conj [ v "Y"; v "Z" ] [ atom "b1" [ s "c1"; v "Y" ]; atom "b2" [ v "Y"; v "Z" ] ]
  in
  let a = Qpo.answer_conj q join in
  let _ = TS.to_relation a.Qpo.stream in
  check_bool "per-atom reuse inside a join" true
    (List.exists (function Plan.Use_element _ -> true | _ -> false) a.Qpo.plan)

(* --- the caching modes: one solver, four cover choices --- *)

(* Random PSJ queries over supplier-parts: scans, constant and range
   selections, joins, a self-join, and a selection on a column the head
   projects away (whose own cached result has no full cover). *)
let gen_psj : A.conj QCheck.Gen.t =
  let open QCheck.Gen in
  let sup = oneofl [ "sup0"; "sup1"; "sup2" ] >|= s in
  let color = oneofl [ "red"; "green"; "blue" ] >|= s in
  let city = oneofl [ "athens"; "paris"; "oslo" ] >|= s in
  let int_c n = T.Const (V.Int n) in
  let qty = oneofl [ 100; 200; 300 ] >|= int_c in
  let weight = oneofl [ 20; 50; 80 ] >|= int_c in
  let supplies a b c = atom "supplies" [ a; b; c ] in
  let cmp op x c = (op, L.Literal.Term (v x), L.Literal.Term c) in
  oneof
    [
      return (A.conj [ v "S"; v "P"; v "Q" ] [ supplies (v "S") (v "P") (v "Q") ]);
      (sup >|= fun c -> A.conj [ v "P"; v "Q" ] [ supplies c (v "P") (v "Q") ]);
      ( qty >|= fun t ->
        A.conj ~cmps:[ cmp RP.Gt "Q" t ] [ v "S"; v "P"; v "Q" ]
          [ supplies (v "S") (v "P") (v "Q") ] );
      return
        (A.conj [ v "S"; v "P"; v "C" ]
           [ supplies (v "S") (v "P") (v "Q"); atom "part" [ v "P"; v "C"; v "W" ] ]);
      ( color >|= fun c ->
        A.conj [ v "S"; v "P" ] [ supplies (v "S") (v "P") (v "Q"); atom "part" [ v "P"; c; v "W" ] ] );
      ( city >|= fun c ->
        A.conj [ v "S"; v "P" ] [ atom "supplier" [ v "S"; c ]; supplies (v "S") (v "P") (v "Q") ] );
      ( pair city color >|= fun (ci, co) ->
        A.conj [ v "S"; v "W" ]
          [
            atom "supplier" [ v "S"; ci ];
            supplies (v "S") (v "P") (v "Q");
            atom "part" [ v "P"; co; v "W" ];
          ] );
      ( pair color weight >|= fun (c, w) ->
        A.conj ~cmps:[ cmp RP.Gt "W" w ] [ v "P" ] [ atom "part" [ v "P"; c; v "W" ] ] );
      ( sup >|= fun c ->
        A.conj [ v "P"; v "S2" ] [ supplies c (v "P") (v "Q"); supplies (v "S2") (v "P") (v "Q2") ] );
    ]

let mode_configs =
  [
    ("exact-match", Qpo.bermuda_config);
    ("single-relation", Qpo.ceri_config);
    ("subsumption", Qpo.braid_config);
  ]

(* Runs [batch] on a fresh planner: the answers as sorted tuple lists, the
   definitions the cache admitted, and every remote request's SQL. *)
let run_modes_batch config batch =
  let server = Server.create () in
  List.iter
    (Braid_remote.Engine.load (Server.engine server))
    (Braid_workload.Datagen.supplier_parts ~suppliers:6 ~parts:12 ~shipments:60 ());
  let cache = CMgr.create ~capacity_bytes:(1 lsl 20) () in
  let q = Qpo.create config ~cache ~server in
  let requests = ref [] in
  Qpo.set_fetcher q
    (Some
       (fun _ sql ->
         requests := sql :: !requests;
         Qpo.exec_remote q sql));
  let answers =
    List.map
      (fun c ->
        let rel = TS.to_relation (Qpo.answer_conj q c).Qpo.stream in
        List.sort_uniq compare (List.map R.Tuple.to_list (R.Relation.to_list rel)))
      batch
  in
  let admitted =
    List.filter_map
      (function Braid_cache.Journal.Admit { def; _ } -> Some def | _ -> None)
      (Braid_cache.Journal.entries (CMgr.journal cache))
  in
  (answers, admitted, List.rev !requests)

let prop_modes_agree =
  QCheck.Test.make ~count:80
    ~name:"caching modes answer like loose coupling and admit only their own elements"
    (QCheck.make
       ~print:(fun b -> String.concat "; " (List.map A.conj_to_string b))
       QCheck.Gen.(list_size (int_range 1 8) gen_psj))
    (fun batch ->
      let module Form = Braid_subsume.Form in
      let reference, admitted, _ = run_modes_batch Qpo.loose_coupling_config batch in
      if admitted <> [] then QCheck.Test.fail_reportf "loose coupling admitted an element";
      List.iter
        (fun (mode, config) ->
          let answers, admitted, requests = run_modes_batch config batch in
          if answers <> reference then QCheck.Test.fail_reportf "%s: answers differ" mode;
          let is_own_selection (d : A.conj) =
            match d.A.atoms with
            | [ a ] -> d.A.cmps = [] && d.A.head = List.map v (L.Atom.vars a)
            | _ -> false
          in
          List.iter
            (fun (d : A.conj) ->
              let ok =
                match config.Qpo.caching with
                | Qpo.Exact_match ->
                  List.exists (fun c -> Form.same (Form.of_conj d) (Form.of_conj c)) batch
                | Qpo.Single_relation -> is_own_selection d
                | Qpo.Subsumption | Qpo.No_cache -> true
              in
              if not ok then QCheck.Test.fail_reportf "%s admitted %s" mode (A.conj_to_string d))
            admitted;
          if config.Qpo.caching = Qpo.Single_relation then
            List.iter
              (fun (sql : Sql.select) ->
                if List.length sql.Sql.from <> 1 || Sql.has_semijoin sql then
                  QCheck.Test.fail_reportf "%s requested %s" mode (Sql.to_string sql))
              requests)
        mode_configs;
      true)

let deeper_cases =
  [
    QCheck_alcotest.to_alcotest prop_modes_agree;
    Alcotest.test_case "§5.3.3: join view preferred over two relations" `Quick
      test_prefer_join_view_over_two_relations;
    Alcotest.test_case "arithmetic comparisons evaluated locally" `Quick
      test_arithmetic_falls_back_to_local;
    Alcotest.test_case "lazy answer admits nothing" `Quick test_lazy_answer_admits_nothing;
    Alcotest.test_case "prefetch after a lazy answer" `Quick test_prefetch_after_lazy_answer;
    Alcotest.test_case "single-relation mode reuse" `Quick
      test_single_relation_mode_reuses_selections;
  ]

let suites = match suites with
  | [ (name, cases) ] -> [ (name, cases @ deeper_cases) ]
  | other -> other

(* --- session tracing --- *)

let test_trace () =
  let module Trace = Braid_obs.Trace in
  let q = make_qpo () in
  let tracer = Trace.create () in
  Trace.install tracer;
  let _ = TS.to_relation (Qpo.answer_conj q (d2_instance "y1")).Qpo.stream in
  let _ = TS.to_relation (Qpo.answer_conj q (d2_instance "y2")).Qpo.stream in
  Trace.uninstall ();
  let _ = TS.to_relation (Qpo.answer_conj q (d2_instance "y3")).Qpo.stream in
  let answers = List.filter (fun s -> s.Trace.name = "qpo.answer") (Trace.spans tracer) in
  check_int "two answer spans, none once uninstalled" 2 (List.length answers);
  let arg k = List.assoc_opt k (List.hd answers).Trace.args in
  check_bool "query recorded" true
    (arg "query" = Some (Trace.Str (A.conj_to_string (d2_instance "y1"))));
  check_bool "plan recorded" true
    (match arg "plan" with Some (Trace.Str p) -> p <> "" | _ -> false);
  check_bool "provenance recorded" true (arg "provenance" = Some (Trace.Str "fresh"))

let suites = match suites with
  | [ (name, cases) ] ->
    [ (name, cases @ [ Alcotest.test_case "session trace" `Quick test_trace ]) ]
  | other -> other

(* --- semi-join pushdown --- *)

let make_star_qpo config =
  let server = Server.create () in
  let eng = Server.engine server in
  let load name schema rows =
    Braid_remote.Engine.load eng (R.Relation.of_tuples ~name schema rows)
  in
  load "dim"
    (R.Schema.make [ ("k", V.Tint); ("tag", V.Tint) ])
    (List.init 8 (fun i -> [| V.Int i; V.Int (i * 10) |]));
  load "fact"
    (R.Schema.make [ ("k", V.Tint); ("w", V.Tint) ])
    (List.init 400 (fun i -> [| V.Int i; V.Int (i mod 7) |]));
  let cache = CMgr.create ~capacity_bytes:(4 * 1024 * 1024) () in
  Qpo.create config ~cache ~server

let star_query =
  A.conj [ v "K"; v "W" ] [ atom "dim" [ v "K"; v "T" ]; atom "fact" [ v "K"; v "W" ] ]

let run_star qpo =
  (* warm the cache with the whole dimension, then join it with the fact *)
  let a0 =
    Qpo.answer_conj qpo (A.conj [ v "K"; v "T" ] [ atom "dim" [ v "K"; v "T" ] ])
  in
  ignore (TS.to_relation a0.Qpo.stream);
  TS.to_relation (Qpo.answer_conj qpo star_query).Qpo.stream

let norm rel = List.sort compare (List.map R.Tuple.to_list (R.Relation.to_list rel))

let test_semijoin_pushdown () =
  let with_sj = make_star_qpo Qpo.braid_config in
  let without = make_star_qpo { Qpo.braid_config with Qpo.allow_semijoin = false } in
  let r1 = run_star with_sj in
  let r2 = run_star without in
  check_bool "identical answers" true (norm r1 = norm r2);
  check_int "dim keys survive into the join" 8 (R.Relation.cardinality r1);
  check_int "one pushdown recorded" 1 (Qpo.metrics with_sj).Qpo.semijoin_pushdowns;
  check_int "its filter shipped the dim keys" 8 (Qpo.metrics with_sj).Qpo.semijoin_values;
  check_int "disabled config never pushes" 0 (Qpo.metrics without).Qpo.semijoin_pushdowns;
  let returned q = (Server.stats (Qpo.server q)).Server.tuples_returned in
  check_bool "transfer measurably reduced" true (returned with_sj < returned without);
  (* the filtered fetch is incomplete w.r.t. its definition: it must not
     have been cached as the extension of fact(K, W), so asking for the
     whole fact table afterwards still yields every row *)
  let fact_only =
    TS.to_relation
      (Qpo.answer_conj with_sj (A.conj [ v "K"; v "W" ] [ atom "fact" [ v "K"; v "W" ] ]))
        .Qpo.stream
  in
  check_int "whole fact table intact after the filtered fetch" 400
    (R.Relation.cardinality fact_only)

let suites = match suites with
  | [ (name, cases) ] ->
    [ (name,
       cases @ [ Alcotest.test_case "semi-join pushdown" `Quick test_semijoin_pushdown ])
    ]
  | other -> other
