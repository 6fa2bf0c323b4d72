(* The inference engine pipeline: problem graph extraction, shaping,
   advice generation (view specifier + path creator), datalog fixpoint,
   strategies. *)

module L = Braid_logic
module T = L.Term
module R = Braid_relalg
module V = R.Value
module A = Braid_caql.Ast
module PG = Braid_ie.Problem_graph
module Shaper = Braid_ie.Shaper
module Gen = Braid_ie.Advice_gen
module Adv = Braid_advice.Ast
module Strategy = Braid_ie.Strategy

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let v x = T.Var x
let s x = T.Const (V.Str x)
let i n = T.Const (V.Int n)
let atom p args = L.Atom.make p args
let k1_query = atom "k1" [ v "X"; v "Y" ]

(* --- problem graph --- *)

let test_extraction_example1 () =
  let kb = Braid_workload.Kbgen.example1 () in
  let g = PG.extract kb k1_query in
  let size = PG.size g in
  (* k1 (1 or) -> R1 (and) -> b1 (or) + k2 (or) -> R2, R3 (and) -> 4 base or *)
  check_int "or nodes" 7 size.PG.or_nodes;
  check_int "and nodes" 3 size.PG.and_nodes;
  check_bool "fringe is b1,b2,b3" true
    (List.sort_uniq compare (List.map (fun a -> a.L.Atom.pred) (PG.base_goals g))
    = [ "b1"; "b2"; "b3" ])

let test_extraction_pushes_constants () =
  let kb = Braid_workload.Kbgen.example1 () in
  let g = PG.extract kb (atom "k2" [ s "x5"; v "Y" ]) in
  (* the constant x5 must appear inside the rule instances *)
  let found = ref false in
  List.iter
    (fun (b : PG.and_node) ->
      List.iter
        (function
          | PG.Subgoal n ->
            if List.exists (T.equal (s "x5")) n.PG.goal.L.Atom.args then found := true
          | PG.Condition _ -> ())
        b.PG.children)
    g.PG.root.PG.branches;
  check_bool "constant propagated into bodies" true !found

let test_extraction_recursion_single_instance () =
  let kb = Braid_workload.Kbgen.ancestor () in
  let g = PG.extract kb (atom "ancestor" [ s "p0"; v "Y" ]) in
  (* the recursive reference is not expanded *)
  let rec count_rec (n : PG.or_node) =
    (if n.PG.recursive_ref then 1 else 0)
    + List.fold_left
        (fun acc (b : PG.and_node) ->
          acc
          + List.fold_left
              (fun acc -> function PG.Subgoal m -> acc + count_rec m | PG.Condition _ -> acc)
              0 b.PG.children)
        0 n.PG.branches
  in
  check_int "one unexpanded recursive ref" 1 (count_rec g.PG.root);
  check_bool "graph is finite" true ((PG.size g).PG.or_nodes < 10)

let test_extraction_failing_unification_culled () =
  let kb = L.Kb.create () in
  L.Kb.declare_base kb "b" ~arity:1;
  L.Kb.add_rule kb (L.Rule.make ~id:"r1" (atom "p" [ s "only" ]) [ L.Literal.rel (atom "b" [ v "X" ]) ]);
  let g = PG.extract kb (atom "p" [ s "other" ]) in
  check_int "no branches" 0 (List.length g.PG.root.PG.branches)

(* --- shaper --- *)

let test_shaper_culls_false_condition () =
  let kb = L.Kb.create () in
  L.Kb.declare_base kb "b" ~arity:1;
  L.Kb.add_rule kb
    (L.Rule.make ~id:"r1" (atom "p" [ v "X" ])
       [ L.Literal.rel (atom "b" [ v "X" ]); L.Literal.cmp Braid_relalg.Row_pred.Lt (i 2) (i 1) ]);
  L.Kb.add_rule kb
    (L.Rule.make ~id:"r2" (atom "p" [ v "X" ])
       [ L.Literal.rel (atom "b" [ v "X" ]); L.Literal.cmp Braid_relalg.Row_pred.Lt (i 1) (i 2) ]);
  let g = PG.extract kb (atom "p" [ v "X" ]) in
  let stats = Shaper.shape kb ~cardinality:(fun _ -> 10) g in
  check_int "one branch culled" 1 stats.Shaper.culled_by_condition;
  check_int "one branch left" 1 (List.length g.PG.root.PG.branches)

let test_shaper_culls_mutex () =
  let kb = L.Kb.create () in
  L.Kb.declare_base kb "hot" ~arity:1;
  L.Kb.declare_base kb "cold" ~arity:1;
  L.Kb.add_soa kb (L.Soa.Mutual_exclusion ("hot", "cold"));
  L.Kb.add_rule kb
    (L.Rule.make ~id:"r1" (atom "weird" [ v "X" ])
       [ L.Literal.rel (atom "hot" [ v "X" ]); L.Literal.rel (atom "cold" [ v "X" ]) ]);
  let g = PG.extract kb (atom "weird" [ v "X" ]) in
  let stats = Shaper.shape kb ~cardinality:(fun _ -> 10) g in
  check_int "mutex culled" 1 stats.Shaper.culled_by_mutex;
  check_int "unsatisfiable query has empty graph" 0 (List.length g.PG.root.PG.branches)

let test_shaper_mutex_needs_same_args () =
  let kb = L.Kb.create () in
  L.Kb.declare_base kb "hot" ~arity:1;
  L.Kb.declare_base kb "cold" ~arity:1;
  L.Kb.add_soa kb (L.Soa.Mutual_exclusion ("hot", "cold"));
  L.Kb.add_rule kb
    (L.Rule.make ~id:"r1" (atom "ok" [ v "X"; v "Y" ])
       [ L.Literal.rel (atom "hot" [ v "X" ]); L.Literal.rel (atom "cold" [ v "Y" ]) ]);
  let g = PG.extract kb (atom "ok" [ v "X"; v "Y" ]) in
  let stats = Shaper.shape kb ~cardinality:(fun _ -> 10) g in
  check_int "different arguments: no cull" 0 stats.Shaper.culled_by_mutex

let test_shaper_ordering_selective_first () =
  let kb = L.Kb.create () in
  L.Kb.declare_base kb "big" ~arity:2;
  L.Kb.declare_base kb "small" ~arity:2;
  L.Kb.add_rule kb
    (L.Rule.make ~id:"r" (atom "q" [ v "X"; v "Z" ])
       [ L.Literal.rel (atom "big" [ v "X"; v "Y" ]); L.Literal.rel (atom "small" [ v "Y"; v "Z" ]) ]);
  let g = PG.extract kb (atom "q" [ v "X"; v "Z" ]) in
  let card = function "big" -> 100_000 | _ -> 10 in
  let _ = Shaper.shape kb ~cardinality:card g in
  (match g.PG.root.PG.branches with
   | [ b ] ->
     (match b.PG.children with
      | PG.Subgoal first :: _ ->
        Alcotest.(check string) "small relation first" "small" first.PG.goal.L.Atom.pred
      | _ -> Alcotest.fail "expected subgoal")
   | _ -> Alcotest.fail "expected one branch");
  let orderings = Shaper.rule_orderings g in
  check_bool "ordering recorded as permutation" true (List.assoc "r" orderings = [ 1; 0 ])

(* --- advice generation --- *)

let gen_advice ?(max_conj_size = 1) kb query =
  let g = PG.extract kb query in
  let _ = Shaper.shape kb ~cardinality:(fun _ -> 100) g in
  Gen.generate ~max_conj_size kb g

let test_minimal_args () =
  (* paper §4.2.1's worked example: d(Z,V) from H={X,Y}, B={X,Z,V,Y},
     D={Z,W,U,V} *)
  check_bool "A = (H∪B)∩D" true
    (Gen.minimal_args ~head_vars:[ "X"; "Y" ]
       ~body_vars_outside:[ "X"; "Z"; "V"; "Y" ]
       ~run_vars:[ "Z"; "W"; "U"; "V" ]
    = [ "Z"; "V" ])

let test_view_specs_example1_conj2 () =
  (* with conjunction size >= 2, R2's whole body is one spec, like the
     paper's d2 *)
  let kb = Braid_workload.Kbgen.example1 () in
  let advice = gen_advice ~max_conj_size:2 kb k1_query in
  let has_paper_d2 =
    List.exists
      (fun (sp : Adv.view_spec) ->
        List.length sp.Adv.def.A.atoms = 2
        && List.exists (fun a -> a.L.Atom.pred = "b2") sp.Adv.def.A.atoms
        && List.exists (fun a -> a.L.Atom.pred = "b3") sp.Adv.def.A.atoms)
      advice.Adv.specs
  in
  check_bool "two-atom view spec for R2" true has_paper_d2

let test_view_specs_consumer_annotation () =
  let kb = Braid_workload.Kbgen.example1 () in
  let advice = gen_advice ~max_conj_size:2 kb k1_query in
  (* the R2 spec must have Y as a consumer (bound by d1) and X as producer *)
  let r2_spec =
    List.find
      (fun (sp : Adv.view_spec) ->
        List.exists (fun a -> a.L.Atom.pred = "b2") sp.Adv.def.A.atoms)
      advice.Adv.specs
  in
  check_bool "has a consumer" true (List.mem Adv.Consumer r2_spec.Adv.bindings);
  check_bool "has a producer" true (List.mem Adv.Producer r2_spec.Adv.bindings)

let test_specs_shared_across_occurrences () =
  (* two rules with identical base runs share one spec *)
  let kb = L.Kb.create () in
  L.Kb.declare_base kb "b" ~arity:2;
  L.Kb.add_rule kb
    (L.Rule.make ~id:"r1" (atom "p" [ v "X" ]) [ L.Literal.rel (atom "b" [ v "X"; v "Y" ]) ]);
  L.Kb.add_rule kb
    (L.Rule.make ~id:"r2" (atom "p" [ v "X" ]) [ L.Literal.rel (atom "b" [ v "X"; v "Z" ]) ]);
  let advice = gen_advice kb (atom "p" [ v "X" ]) in
  check_int "one shared spec" 1 (List.length advice.Adv.specs)

let test_path_recursive_loop () =
  let kb = Braid_workload.Kbgen.ancestor () in
  let advice = gen_advice kb (atom "ancestor" [ s "p0"; v "Y" ]) in
  let rec has_inf = function
    | Adv.Seq (_, { Adv.hi = Adv.Inf; _ }) -> true
    | Adv.Seq (ps, _) | Adv.Alt (ps, _) -> List.exists has_inf ps
    | Adv.Pattern _ -> false
  in
  (match advice.Adv.path with
   | Some p -> check_bool "recursion marked with unbounded repetition" true (has_inf p)
   | None -> Alcotest.fail "expected a path")

let test_base_root_query () =
  let kb = Braid_workload.Kbgen.example1 () in
  let advice = gen_advice kb (atom "b1" [ s "c1"; v "Y" ]) in
  check_int "one spec for the base query" 1 (List.length advice.Adv.specs);
  check_bool "path present" true (advice.Adv.path <> None)

(* --- datalog --- *)

let family_base () =
  let rels = Braid_workload.Datagen.family ~persons:40 ~fanout:3 () in
  fun name -> List.find_opt (fun r -> R.Relation.name r = name) rels

let test_datalog_transitive_closure () =
  let kb = Braid_workload.Kbgen.ancestor () in
  let base = family_base () in
  let out = Braid_ie.Datalog.solve kb ~base (atom "ancestor" [ v "X"; v "Y" ]) in
  let parent = Option.get (base "parent") in
  check_bool "closure at least as large as parent" true
    (R.Relation.cardinality out.Braid_ie.Datalog.result >= R.Relation.cardinality parent);
  check_bool "iterated" true (out.Braid_ie.Datalog.iterations > 1);
  (* sanity: ancestor ⊇ parent *)
  R.Relation.iter
    (fun t ->
      check_bool "parent pair in closure" true
        (R.Relation.mem out.Braid_ie.Datalog.result t))
    parent

let test_datalog_query_constants () =
  let kb = Braid_workload.Kbgen.ancestor () in
  let base = family_base () in
  let all = Braid_ie.Datalog.solve kb ~base (atom "ancestor" [ v "X"; v "Y" ]) in
  let just_p0 = Braid_ie.Datalog.solve kb ~base (atom "ancestor" [ s "p0"; v "Y" ]) in
  check_bool "selection smaller" true
    (R.Relation.cardinality just_p0.Braid_ie.Datalog.result
    < R.Relation.cardinality all.Braid_ie.Datalog.result);
  check_int "one column" 1
    (R.Schema.arity (R.Relation.schema just_p0.Braid_ie.Datalog.result))

let test_datalog_undefined_pred_fails () =
  let kb = L.Kb.create () in
  L.Kb.declare_base kb "b" ~arity:1;
  L.Kb.add_rule kb
    (L.Rule.make ~id:"r" (atom "p" [ v "X" ])
       [ L.Literal.rel (atom "b" [ v "X" ]); L.Literal.rel (atom "ghost" [ v "X" ]) ]);
  let base name =
    if name = "b" then
      Some
        (R.Relation.of_tuples ~name (R.Schema.make [ ("x", V.Tint) ]) [ [| V.Int 1 |] ])
    else None
  in
  let out = Braid_ie.Datalog.solve kb ~base (atom "p" [ v "X" ]) in
  check_int "no solutions" 0 (R.Relation.cardinality out.Braid_ie.Datalog.result)

(* --- strategies (lower-level than the system tests) --- *)

let make_system config strategy =
  Braid.System.build ~config ~strategy ~kb:(Braid_workload.Kbgen.ancestor ())
    ~data:(Braid_workload.Datagen.family ~persons:50 ~fanout:3 ())
    ()

(* The naive oracle's answer over [make_system]'s data. *)
let naive_answer q =
  let rels = Braid_workload.Datagen.family ~persons:50 ~fanout:3 () in
  let base name = List.find_opt (fun r -> R.Relation.name r = name) rels in
  (Naive_fixpoint.solve (Braid_workload.Kbgen.ancestor ()) ~base q).Naive_fixpoint.result

let test_interpretive_streams_lazily () =
  let sys = make_system Braid_planner.Qpo.braid_config Strategy.Interpretive in
  let stream, report = Braid.System.solve sys (atom "ancestor" [ s "p0"; v "Y" ]) in
  let c = Braid_stream.Tuple_stream.cursor stream in
  ignore (Braid_stream.Tuple_stream.next c);
  let after_one = report.Braid_ie.Engine.counters.Strategy.resolutions in
  ignore (Braid_stream.Tuple_stream.to_relation stream);
  let after_all = report.Braid_ie.Engine.counters.Strategy.resolutions in
  check_bool "work proportional to demand" true (after_one < after_all)

let test_compiled_does_all_work_upfront () =
  let sys = make_system Braid_planner.Qpo.braid_config Strategy.Set_oriented in
  let q = atom "ancestor" [ s "p0"; v "Y" ] in
  let stream, report = Braid.System.solve sys q in
  let before = report.Braid_ie.Engine.counters.Strategy.resolutions in
  let answers = Braid_stream.Tuple_stream.to_relation stream in
  let after = report.Braid_ie.Engine.counters.Strategy.resolutions in
  check_int "no additional inference during consumption" before after;
  let norm rel = List.sort_uniq compare (List.map R.Tuple.to_list (R.Relation.to_list rel)) in
  check_bool "answers match the naive oracle" true (norm answers = norm (naive_answer q))

let test_conjunction_compilation_reduces_queries () =
  let kb () = Braid_workload.Kbgen.example1 () in
  let data () = Braid_workload.Datagen.paper_example ~size:25 () in
  let run strategy =
    let sys =
      Braid.System.build ~config:Braid_planner.Qpo.loose_coupling_config ~strategy
        ~kb:(kb ()) ~data:(data ()) ()
    in
    let _, report = Braid_ie.Engine.solve_all (Braid.System.engine sys) k1_query in
    report.Braid_ie.Engine.counters.Strategy.db_goal_queries
  in
  let q1 = run Strategy.Interpretive in
  let q2 = run (Strategy.Conjunction_compiled 2) in
  check_bool "conjunction compilation issues fewer CAQL queries" true (q2 < q1)

let test_depth_limit () =
  let kb = L.Kb.create () in
  L.Kb.declare_base kb "b" ~arity:1;
  (* left recursion never terminates in SLD *)
  L.Kb.add_rule kb
    (L.Rule.make ~id:"loop" (atom "p" [ v "X" ]) [ L.Literal.rel (atom "p" [ v "X" ]) ]);
  let sys =
    Braid.System.build ~kb
      ~data:
        [ R.Relation.of_tuples ~name:"b" (R.Schema.make [ ("x", V.Tint) ]) [ [| V.Int 1 |] ] ]
      ()
  in
  let engine =
    Braid_ie.Engine.create ~max_depth:100 (Braid.System.kb sys)
      (Braid.Cms.qpo (Braid.System.cms sys))
  in
  check_bool "depth limit raised" true
    (try
       ignore (Braid_ie.Engine.solve_all engine (atom "p" [ v "X" ]));
       false
     with Strategy.Depth_limit _ -> true)

let suites : unit Alcotest.test list =
  [
    ( "ie",
      [
        Alcotest.test_case "extraction of example 1" `Quick test_extraction_example1;
        Alcotest.test_case "extraction pushes constants" `Quick
          test_extraction_pushes_constants;
        Alcotest.test_case "recursion expanded once" `Quick
          test_extraction_recursion_single_instance;
        Alcotest.test_case "failing unification culled" `Quick
          test_extraction_failing_unification_culled;
        Alcotest.test_case "shaper culls false conditions" `Quick
          test_shaper_culls_false_condition;
        Alcotest.test_case "shaper culls mutex branches" `Quick test_shaper_culls_mutex;
        Alcotest.test_case "mutex needs same arguments" `Quick
          test_shaper_mutex_needs_same_args;
        Alcotest.test_case "selective relations ordered first" `Quick
          test_shaper_ordering_selective_first;
        Alcotest.test_case "minimal argument set" `Quick test_minimal_args;
        Alcotest.test_case "example-1 view specs (conjunction 2)" `Quick
          test_view_specs_example1_conj2;
        Alcotest.test_case "consumer annotations" `Quick test_view_specs_consumer_annotation;
        Alcotest.test_case "specs shared across occurrences" `Quick
          test_specs_shared_across_occurrences;
        Alcotest.test_case "recursive path loop" `Quick test_path_recursive_loop;
        Alcotest.test_case "base-root query" `Quick test_base_root_query;
        Alcotest.test_case "datalog transitive closure" `Quick
          test_datalog_transitive_closure;
        Alcotest.test_case "datalog query constants" `Quick test_datalog_query_constants;
        Alcotest.test_case "datalog undefined predicate" `Quick
          test_datalog_undefined_pred_fails;
        Alcotest.test_case "interpretive streams lazily" `Quick
          test_interpretive_streams_lazily;
        Alcotest.test_case "compiled works upfront" `Quick test_compiled_does_all_work_upfront;
        Alcotest.test_case "conjunction compilation reduces queries" `Quick
          test_conjunction_compilation_reduces_queries;
        Alcotest.test_case "depth limit" `Quick test_depth_limit;
      ] );
  ]

(* --- semi-naive vs naive datalog --- *)

let test_semi_naive_equals_naive () =
  let kb = Braid_workload.Kbgen.ancestor () in
  let base = family_base () in
  let norm rel =
    List.sort_uniq compare (List.map R.Tuple.to_list (R.Relation.to_list rel))
  in
  let q = atom "ancestor" [ v "X"; v "Y" ] in
  let naive = Naive_fixpoint.solve kb ~base q in
  let semi = Braid_ie.Datalog.solve kb ~base q in
  check_bool "same closure" true
    (norm naive.Naive_fixpoint.result = norm semi.Braid_ie.Datalog.result);
  check_bool "semi-naive produces fewer tuples" true
    (semi.Braid_ie.Datalog.tuples_produced < naive.Naive_fixpoint.tuples_produced)

let test_semi_naive_same_generation () =
  (* sg has two recursive occurrences per rule body position structure *)
  let kb = Braid_workload.Kbgen.same_generation () in
  let base = family_base () in
  let norm rel =
    List.sort_uniq compare (List.map R.Tuple.to_list (R.Relation.to_list rel))
  in
  let q = atom "sg" [ s "p5"; v "Y" ] in
  let naive = Naive_fixpoint.solve kb ~base q in
  let semi = Braid_ie.Datalog.solve kb ~base q in
  check_bool "same result" true
    (norm naive.Naive_fixpoint.result = norm semi.Braid_ie.Datalog.result);
  check_bool "nonempty" true (R.Relation.cardinality semi.Braid_ie.Datalog.result > 0)

(* Even/odd path parity: two derived predicates defined through each
   other, so within one round a predicate reads the delta of one whose
   total has just grown in place. *)
let parity_kb () =
  let kb = L.Kb.create () in
  L.Kb.declare_base kb "edge" ~arity:2;
  let rule id head body = L.Kb.add_rule kb (L.Rule.make ~id head (List.map L.Literal.rel body)) in
  rule "O1" (atom "odd" [ v "X"; v "Y" ]) [ atom "edge" [ v "X"; v "Y" ] ];
  rule "O2" (atom "odd" [ v "X"; v "Y" ])
    [ atom "even" [ v "X"; v "Z" ]; atom "edge" [ v "Z"; v "Y" ] ];
  rule "E1" (atom "even" [ v "X"; v "Y" ])
    [ atom "odd" [ v "X"; v "Z" ]; atom "edge" [ v "Z"; v "Y" ] ];
  kb

let test_semi_naive_mutual_recursion () =
  (* The chain 1→2→3 runs into the cycle 3⇄4. Rounds, even before odd:
     0. even sees no odd paths yet; odd takes the 4 edges.
     1. even joins Δodd: 4 tuples, all fresh. odd has no Δeven yet.
     2. odd joins Δeven: 4 tuples, only (1,4) fresh.
     3. even joins Δodd = {(1,4)}: (1,3), already known.
     13 tuples in 4 rounds. A Δeven that shared its rows with even's total
     would hand odd round 1's tuples a round early: the same sets, but 3
     rounds and 17 tuples. *)
  let kb = parity_kb () in
  let edge =
    R.Relation.of_tuples ~name:"edge"
      (R.Schema.make [ ("x", V.Tint); ("y", V.Tint) ])
      (List.map (fun (a, b) -> [| V.Int a; V.Int b |]) [ (1, 2); (2, 3); (3, 4); (4, 3) ])
  in
  let base p = if p = "edge" then Some edge else None in
  let norm rel =
    List.sort_uniq compare (List.map R.Tuple.to_list (R.Relation.to_list rel))
  in
  let q = atom "odd" [ v "X"; v "Y" ] in
  let naive = Naive_fixpoint.solve kb ~base q in
  let semi = Braid_ie.Datalog.solve kb ~base q in
  check_bool "same odd paths" true
    (norm naive.Naive_fixpoint.result = norm semi.Braid_ie.Datalog.result);
  check_bool "same derived sizes" true
    (naive.Naive_fixpoint.derived_sizes = semi.Braid_ie.Datalog.derived_sizes);
  check_bool "sizes" true (semi.Braid_ie.Datalog.derived_sizes = [ ("even", 4); ("odd", 5) ]);
  check_int "rounds" 4 semi.Braid_ie.Datalog.iterations;
  check_int "each derived tuple joined once per occurrence" 13
    semi.Braid_ie.Datalog.tuples_produced

let test_merge_join_support () =
  (* element sorted representations + relalg merge join *)
  let schema = R.Schema.make [ ("x", V.Tint); ("y", V.Tint) ] in
  let mk l = R.Relation.of_tuples ~name:"r" schema (List.map (fun (a, b) -> [| V.Int a; V.Int b |]) l) in
  let a = R.Ops.order_by [ 1 ] (mk [ (1, 5); (2, 3); (3, 5); (4, 4) ]) in
  let b = R.Ops.order_by [ 0 ] (mk [ (5, 9); (3, 8); (5, 7) ]) in
  let merged = R.Ops.merge_join ~left_cols:[ 1 ] ~right_cols:[ 0 ] a b in
  let hashed = R.Ops.hash_join ~left_cols:[ 1 ] ~right_cols:[ 0 ] a b in
  let norm rel = List.sort compare (List.map R.Tuple.to_list (R.Relation.to_list rel)) in
  check_bool "merge = hash on sorted inputs" true (norm merged = norm hashed);
  check_int "three matches" 5 (R.Relation.cardinality merged)

let test_sorted_representations_coexist () =
  let schema = R.Schema.make [ ("x", V.Tint); ("y", V.Tint) ] in
  let rel =
    R.Relation.of_tuples ~name:"r" schema
      (List.map (fun (a, b) -> [| V.Int a; V.Int b |]) [ (3, 1); (1, 3); (2, 2) ])
  in
  let e =
    Braid_cache.Element.make ~id:"e" ~now:0
      ~def:(Braid_caql.Ast.conj [ v "X"; v "Y" ] [ atom "r" [ v "X"; v "Y" ] ])
      (Braid_cache.Element.Extension rel)
  in
  let by_x = Braid_cache.Element.sorted_on e [ 0 ] in
  let by_y = Braid_cache.Element.sorted_on e [ 1 ] in
  check_bool "sorted by x" true (V.equal (R.Tuple.get (R.Relation.get by_x 0) 0) (V.Int 1));
  check_bool "sorted by y" true (V.equal (R.Tuple.get (R.Relation.get by_y 0) 1) (V.Int 1));
  check_bool "both remembered" true
    (List.length (Braid_cache.Element.sorted_representations e) = 2);
  let by_x2 = Braid_cache.Element.sorted_on e [ 0 ] in
  check_bool "representation reused" true (by_x == by_x2);
  check_bool "bytes grow with copies" true
    (Braid_cache.Element.bytes_estimate e > R.Relation.bytes_estimate rel)

(* --- magic sets + the set-oriented tier --- *)

module Datalog = Braid_ie.Datalog
module Magic = Braid_ie.Magic

let norm_rel rel =
  List.sort_uniq compare (List.map R.Tuple.to_list (R.Relation.to_list rel))

let test_magic_soundness () =
  let kb = Braid_workload.Kbgen.ancestor () in
  let base = family_base () in
  let q = atom "ancestor" [ s "p20"; v "Y" ] in
  match Magic.transform kb q with
  | None -> Alcotest.fail "expected a transform for a bound query"
  | Some m ->
    Alcotest.(check string) "adornment" "bf" m.Magic.adornment;
    let plain = Datalog.solve kb ~base q in
    let magic = Datalog.solve m.Magic.kb ~base m.Magic.query in
    check_bool "magic answer = unrestricted answer" true
      (norm_rel plain.Datalog.result = norm_rel magic.Datalog.result);
    check_bool "magic restricts derivation" true
      (magic.Datalog.tuples_produced < plain.Datalog.tuples_produced)

let test_magic_identity_on_free_query () =
  let kb = Braid_workload.Kbgen.ancestor () in
  check_bool "all-free query not transformed" true
    (Magic.transform kb (atom "ancestor" [ v "X"; v "Y" ]) = None);
  check_bool "base query not transformed" true
    (Magic.transform kb (atom "parent" [ s "p0"; v "Y" ]) = None)

(* The transformed program, one line per rule, after the query. *)
let magic_program kb q =
  match Magic.transform kb q with
  | None -> Alcotest.fail "expected a transform for a bound query"
  | Some m ->
    L.Atom.to_string m.Magic.query :: List.map L.Rule.to_string (L.Kb.all_rules m.Magic.kb)

let test_magic_right_linear () =
  let kb = Braid_workload.Kbgen.ancestor () in
  let base = family_base () in
  let q = atom "ancestor" [ s "p0"; v "Y" ] in
  (* A2 passes Y to its call unchanged: its magic rule stays, its adorned
     rule goes, and A1 answers every demanded binding *)
  Alcotest.(check (list string))
    "right-linear program"
    [
      "ancestor$bf$rl(Y)";
      "A1$bf$rl: ancestor$bf$rl(Y) <- m$ancestor$bf(X) & parent(X, Y).";
      "A2$bf$m1: m$ancestor$bf(Z) <- m$ancestor$bf(X) & parent(X, Z).";
      "m$seed: m$ancestor$bf(\"p0\").";
    ]
    (magic_program kb q);
  match Magic.transform kb q with
  | None -> Alcotest.fail "expected a transform for a bound query"
  | Some m ->
    let run = Datalog.solve m.Magic.kb ~base m.Magic.query in
    let demanded = List.assoc "m$ancestor$bf" run.Datalog.derived_sizes in
    let answers = R.Relation.cardinality run.Datalog.result in
    check_bool
      (Printf.sprintf "%d tuples produced <= %d demanded + %d answers" run.Datalog.tuples_produced
         demanded answers)
      true
      (run.Datalog.tuples_produced <= demanded + answers);
    check_bool "answers = unrestricted answers" true
      (norm_rel (Datalog.solve kb ~base q).Datalog.result = norm_rel run.Datalog.result)

(* A KB over edge/2 with the given rules. *)
let edge_kb rules =
  let kb = L.Kb.create () in
  L.Kb.declare_base kb "edge" ~arity:2;
  List.iter (fun (id, head, body) -> L.Kb.add_rule kb (L.Rule.make ~id head body)) rules;
  kb

(* Programs the right-linear rewrite must leave as they were before it:
   each expected list is the plain magic-set program. *)
let test_magic_right_linear_fallbacks () =
  let rel p args = L.Literal.rel (atom p args) in
  let tc_exit = ("T1", atom "tc" [ v "X"; v "Y" ], [ rel "edge" [ v "X"; v "Y" ] ]) in
  let cases =
    [
      ( "nonlinear (same generation)",
        Braid_workload.Kbgen.same_generation (),
        atom "sg" [ s "p3"; v "Y" ],
        [
          "sg$bf(\"p3\", Y)";
          "SG1$bf: sg$bf(X, Y) <- m$sg$bf(X) & parent(P, X) & parent(P, Y).";
          "SG2$bf: sg$bf(X, Y) <- m$sg$bf(X) & parent(PX, X) & sg$bf(PX, PY) & parent(PY, Y).";
          "SG2$bf$m1: m$sg$bf(PX) <- m$sg$bf(X) & parent(PX, X).";
          "m$seed: m$sg$bf(\"p3\").";
        ] );
      ( "left-linear",
        edge_kb
          [
            tc_exit;
            ("T2", atom "tc" [ v "X"; v "Y" ], [ rel "tc" [ v "X"; v "Z" ]; rel "edge" [ v "Z"; v "Y" ] ]);
          ],
        atom "tc" [ i 1; v "Y" ],
        [
          "tc$bf(1, Y)";
          "T1$bf: tc$bf(X, Y) <- m$tc$bf(X) & edge(X, Y).";
          "T2$bf: tc$bf(X, Y) <- m$tc$bf(X) & tc$bf(X, Z) & edge(Z, Y).";
          "m$seed: m$tc$bf(1).";
        ] );
      ( "a comparison on the free variable",
        edge_kb
          [
            tc_exit;
            ( "T2",
              atom "tc" [ v "X"; v "Y" ],
              [
                rel "edge" [ v "X"; v "Z" ];
                rel "tc" [ v "Z"; v "Y" ];
                L.Literal.cmp R.Row_pred.Lt (v "Z") (v "Y");
              ] );
          ],
        atom "tc" [ i 1; v "Y" ],
        [
          "tc$bf(1, Y)";
          "T1$bf: tc$bf(X, Y) <- m$tc$bf(X) & edge(X, Y).";
          "T2$bf: tc$bf(X, Y) <- m$tc$bf(X) & edge(X, Z) & tc$bf(Z, Y) & Z < Y.";
          "T2$bf$m1: m$tc$bf(Z) <- m$tc$bf(X) & edge(X, Z).";
          "m$seed: m$tc$bf(1).";
        ] );
      ( "a repeated free variable",
        edge_kb
          [
            ("P1", atom "p" [ v "X"; v "Y"; v "Y" ], [ rel "edge" [ v "X"; v "Y" ] ]);
            ( "P2",
              atom "p" [ v "X"; v "Y"; v "Y" ],
              [ rel "edge" [ v "X"; v "Z" ]; rel "p" [ v "Z"; v "Y"; v "Y" ] ] );
          ],
        atom "p" [ i 1; v "Y"; v "W" ],
        [
          "p$bff(1, Y, W)";
          "P1$bff: p$bff(X, Y, Y) <- m$p$bff(X) & edge(X, Y).";
          "P2$bff: p$bff(X, Y, Y) <- m$p$bff(X) & edge(X, Z) & p$bff(Z, Y, Y).";
          "P2$bff$m1: m$p$bff(Z) <- m$p$bff(X) & edge(X, Z).";
          "m$seed: m$p$bff(1).";
        ] );
      ( "mutual recursion (parity)",
        edge_kb
          [
            ("O1", atom "odd" [ v "X"; v "Y" ], [ rel "edge" [ v "X"; v "Y" ] ]);
            ( "O2",
              atom "odd" [ v "X"; v "Y" ],
              [ rel "even" [ v "X"; v "Z" ]; rel "edge" [ v "Z"; v "Y" ] ] );
            ( "E1",
              atom "even" [ v "X"; v "Y" ],
              [ rel "odd" [ v "X"; v "Z" ]; rel "edge" [ v "Z"; v "Y" ] ] );
          ],
        atom "odd" [ i 1; v "Y" ],
        [
          "odd$bf(1, Y)";
          "E1$bf: even$bf(X, Y) <- m$even$bf(X) & odd$bf(X, Z) & edge(Z, Y).";
          "E1$bf$m1: m$odd$bf(X) <- m$even$bf(X).";
          "O1$bf: odd$bf(X, Y) <- m$odd$bf(X) & edge(X, Y).";
          "O2$bf: odd$bf(X, Y) <- m$odd$bf(X) & even$bf(X, Z) & edge(Z, Y).";
          "O2$bf$m1: m$even$bf(X) <- m$odd$bf(X).";
          "m$seed: m$odd$bf(1).";
        ] );
      ( "a free variable at a bound head position",
        edge_kb
          [
            ("R1", atom "r" [ v "X"; v "Y" ], [ rel "edge" [ v "X"; v "Y" ] ]);
            ("R2", atom "r" [ v "Y"; v "Y" ], [ rel "edge" [ v "W"; v "Z" ]; rel "r" [ v "Z"; v "Y" ] ]);
          ],
        atom "r" [ i 1; v "Y" ],
        [
          "r$bf(1, Y)";
          "R1$bb: r$bb(X, Y) <- m$r$bb(X, Y) & edge(X, Y).";
          "R1$bf: r$bf(X, Y) <- m$r$bf(X) & edge(X, Y).";
          "R2$bb: r$bb(Y, Y) <- m$r$bb(Y, Y) & edge(W, Z) & r$bb(Z, Y).";
          "R2$bb$m1: m$r$bb(Z, Y) <- m$r$bb(Y, Y) & edge(W, Z).";
          "R2$bf: r$bf(Y, Y) <- m$r$bf(Y) & edge(W, Z) & r$bb(Z, Y).";
          "R2$bf$m1: m$r$bb(Z, Y) <- m$r$bf(Y) & edge(W, Z).";
          "m$seed: m$r$bf(1).";
        ] );
    ]
  in
  List.iter
    (fun (what, kb, q, expected) ->
      Alcotest.(check (list string)) what expected (magic_program kb q))
    cases

let test_conj_fetch_ships_selections () =
  (* AA1's body is ancestor(X,Y), person(X,A), A >= 40: the person atom and
     its covered comparison become one conjunctive fetch, so the age
     selection runs remotely. *)
  let kb = Braid_workload.Kbgen.ancestor () in
  let base = family_base () in
  let schema n = Option.map R.Relation.schema (base n) in
  let fetched = ref [] in
  let fetch c =
    let r =
      Braid_caql.Eval.conj
        ~source:(fun a -> Option.get (base a.L.Atom.pred))
        ~schema_of:schema c
    in
    fetched := (c, R.Relation.cardinality r) :: !fetched;
    r
  in
  let q = atom "adult_ancestor" [ v "X"; v "Y" ] in
  let out = Datalog.run kb ~source:(Datalog.Conj_fetch { fetch; schema }) q in
  let plain = Datalog.solve kb ~base q in
  check_bool "same answers" true (norm_rel out.Datalog.result = norm_rel plain.Datalog.result);
  check_bool "nonempty" true (R.Relation.cardinality out.Datalog.result > 0);
  check_int "fetch accounting" (List.length !fetched) out.Datalog.fetches;
  let person_total = R.Relation.cardinality (Option.get (base "person")) in
  (match
     List.find_opt
       (fun ((c : A.conj), _) ->
         List.exists (fun (a : L.Atom.t) -> a.L.Atom.pred = "person") c.A.atoms)
       !fetched
   with
   | Some (_, n) -> check_bool "age selection shipped with the fetch" true (n < person_total)
   | None -> Alcotest.fail "expected a person fetch")

let test_missing_declared_base_fails_loudly () =
  let kb = L.Kb.create () in
  L.Kb.declare_base kb "missing" ~arity:2;
  L.Kb.add_rule kb
    (L.Rule.make ~id:"r" (atom "p" [ v "X" ]) [ L.Literal.rel (atom "missing" [ v "X"; v "Y" ]) ]);
  check_bool "Extensions mode raises" true
    (try
       ignore (Datalog.solve kb ~base:(fun _ -> None) (atom "p" [ v "X" ]));
       false
     with Datalog.Unknown_base_relation "missing" -> true);
  check_bool "Conj_fetch mode raises without a catalog schema" true
    (try
       ignore
         (Datalog.run kb
            ~source:
              (Datalog.Conj_fetch
                 { fetch = (fun _ -> Alcotest.fail "must not fetch"); schema = (fun _ -> None) })
            (atom "p" [ v "X" ]));
       false
     with Datalog.Unknown_base_relation "missing" -> true)

let test_set_oriented_matches_interpretive () =
  let q = atom "ancestor" [ s "p0"; v "Y" ] in
  let run strategy =
    let sys = make_system Braid_planner.Qpo.braid_config strategy in
    let stream, report = Braid.System.solve sys q in
    (norm_rel (Braid_stream.Tuple_stream.to_relation stream), report)
  in
  let interp, ireport = run Strategy.Interpretive in
  let set, sreport = run Strategy.Set_oriented in
  check_bool "nonempty" true (interp <> []);
  check_bool "same answers" true (interp = set);
  check_bool "an order of magnitude fewer CAQL queries" true
    (sreport.Braid_ie.Engine.counters.Strategy.db_goal_queries * 10
     <= ireport.Braid_ie.Engine.counters.Strategy.db_goal_queries)

let test_set_oriented_all_free_and_base_queries () =
  let sys = make_system Braid_planner.Qpo.braid_config Strategy.Set_oriented in
  let full, _ = Braid.System.solve sys (atom "ancestor" [ v "X"; v "Y" ]) in
  let full = norm_rel (Braid_stream.Tuple_stream.to_relation full) in
  let oracle = norm_rel (naive_answer (atom "ancestor" [ v "X"; v "Y" ])) in
  check_bool "all-free query matches the naive oracle" true (full = oracle);
  let b, _ = Braid.System.solve sys (atom "parent" [ s "p0"; v "Y" ]) in
  let b = norm_rel (Braid_stream.Tuple_stream.to_relation b) in
  check_bool "base query answered by one fetch" true (List.length b >= 1)

(* Two fetches whose constants differ past the sixth digit are two
   fetches: a key that printed floats with [%g] made them one, and the
   set-oriented tier then answered [q] with [p]'s rows. *)
let test_float_constants_keep_fetches_apart () =
  let kb = L.Kb.create () in
  L.Kb.declare_base kb "b" ~arity:2;
  let f x = T.Const (V.Float x) in
  let rule id head body = L.Kb.add_rule kb (L.Rule.make ~id head (List.map L.Literal.rel body)) in
  rule "P" (atom "p" [ v "X" ]) [ atom "b" [ v "X"; f 1.0000001 ] ];
  rule "Q" (atom "q" [ v "X" ]) [ atom "b" [ v "X"; f 1.0000002 ] ];
  rule "R1" (atom "r" [ v "X" ]) [ atom "p" [ v "X" ] ];
  rule "R2" (atom "r" [ v "X" ]) [ atom "q" [ v "X" ] ];
  rule "S" (atom "s" [ v "X"; v "Y" ])
    [ atom "b" [ v "X"; f 1.0000001 ]; atom "b" [ v "Y"; f 1.0000002 ] ];
  let data () =
    [
      R.Relation.of_tuples ~name:"b"
        (R.Schema.make [ ("x", V.Tstr); ("y", V.Tfloat) ])
        [ [| V.Str "one"; V.Float 1.0000001 |]; [| V.Str "two"; V.Float 1.0000002 |] ];
    ]
  in
  List.iter
    (fun strategy ->
      let sys = Braid.System.build ~strategy ~kb ~data:(data ()) () in
      let answer g = norm_rel (Braid.System.solve_all sys g) in
      Alcotest.(check (list (list string)))
        "r(X)" [ [ "\"one\"" ]; [ "\"two\"" ] ]
        (List.map (List.map V.to_string) (answer (atom "r" [ v "X" ])));
      Alcotest.(check (list (list string)))
        "s(X, Y)" [ [ "\"one\""; "\"two\"" ] ]
        (List.map (List.map V.to_string) (answer (atom "s" [ v "X"; v "Y" ]))))
    [ Strategy.Interpretive; Strategy.Set_oriented ]

let extra_cases =
  [
    Alcotest.test_case "semi-naive = naive (ancestor)" `Quick test_semi_naive_equals_naive;
    Alcotest.test_case "semi-naive = naive (same generation)" `Quick
      test_semi_naive_same_generation;
    Alcotest.test_case "semi-naive = naive (mutual recursion)" `Quick
      test_semi_naive_mutual_recursion;
    Alcotest.test_case "merge join on sorted inputs" `Quick test_merge_join_support;
    Alcotest.test_case "co-existing sorted representations" `Quick
      test_sorted_representations_coexist;
    Alcotest.test_case "magic transform soundness" `Quick test_magic_soundness;
    Alcotest.test_case "magic transform identity cases" `Quick
      test_magic_identity_on_free_query;
    Alcotest.test_case "conjunctive fetches ship selections" `Quick
      test_conj_fetch_ships_selections;
    Alcotest.test_case "missing declared base fails loudly" `Quick
      test_missing_declared_base_fails_loudly;
    Alcotest.test_case "set-oriented = interpretive answers" `Quick
      test_set_oriented_matches_interpretive;
    Alcotest.test_case "set-oriented free + base queries" `Quick
      test_set_oriented_all_free_and_base_queries;
  ]

let suites = match suites with
  | [ (name, cases) ] -> [ (name, cases @ extra_cases) ]
  | other -> other

(* --- answer justification --- *)

let test_justify_grandparent () =
  let sys = make_system Braid_planner.Qpo.braid_config Strategy.Interpretive in
  let proofs =
    Braid_ie.Justify.explain (Braid.System.kb sys)
      (Braid.Cms.qpo (Braid.System.cms sys))
      ~max_proofs:3
      (atom "grandparent" [ s "p0"; v "Y" ])
  in
  check_bool "some proofs" true (proofs <> []);
  List.iter
    (fun (tuple, proof) ->
      check_bool "solution bound" true (R.Tuple.get tuple 0 <> V.Null);
      check_bool "uses rule G1" true (Braid_ie.Justify.proof_rules proof = [ "G1" ]);
      (* a grandparent proof rests on exactly two parent facts *)
      let facts = Braid_ie.Justify.proof_facts proof in
      check_int "two database facts" 2 (List.length facts);
      List.iter
        (fun (a : L.Atom.t) ->
          check_bool "facts are parent tuples" true (a.L.Atom.pred = "parent");
          check_bool "facts are ground" true (L.Atom.is_ground a))
        facts)
    proofs

let test_justify_recursive_chain () =
  let sys = make_system Braid_planner.Qpo.braid_config Strategy.Interpretive in
  let proofs =
    Braid_ie.Justify.explain (Braid.System.kb sys)
      (Braid.Cms.qpo (Braid.System.cms sys))
      ~max_proofs:10
      (atom "ancestor" [ s "p0"; v "Y" ])
  in
  check_bool "proofs found" true (List.length proofs > 1);
  (* at least one proof must go through the recursive rule A2 *)
  check_bool "recursion justified" true
    (List.exists (fun (_, p) -> List.mem "A2" (Braid_ie.Justify.proof_rules p)) proofs);
  (* rendering smoke test *)
  let _, p = List.hd proofs in
  let text = Format.asprintf "%a" Braid_ie.Justify.pp_proof p in
  check_bool "rendering mentions a rule" true (String.length text > 10)

let test_justify_no_solutions () =
  let sys = make_system Braid_planner.Qpo.braid_config Strategy.Interpretive in
  let proofs =
    Braid_ie.Justify.explain (Braid.System.kb sys)
      (Braid.Cms.qpo (Braid.System.cms sys))
      (atom "ancestor" [ s "nobody"; v "Y" ])
  in
  check_bool "no proofs" true (proofs = [])

let justify_cases =
  [
    Alcotest.test_case "justify grandparent" `Quick test_justify_grandparent;
    Alcotest.test_case "justify recursive chain" `Quick test_justify_recursive_chain;
    Alcotest.test_case "justify without solutions" `Quick test_justify_no_solutions;
  ]

let suites = match suites with
  | [ (name, cases) ] -> [ (name, cases @ justify_cases) ]
  | other -> other

(* --- FD SOAs drive ordering --- *)

let test_fd_ordering () =
  (* lookup(K,V) has an FD K -> V; with K bound it should be ordered before
     a huge scan even though the scan has a constant. *)
  let kb = L.Kb.create () in
  L.Kb.declare_base kb "lookup" ~arity:2;
  L.Kb.declare_base kb "huge" ~arity:2;
  L.Kb.add_soa kb
    (L.Soa.Functional_dependency { pred = "lookup"; determinant = [ 0 ]; dependent = [ 1 ] });
  L.Kb.add_rule kb
    (L.Rule.make ~id:"r" (atom "q" [ v "K"; v "W" ])
       [ L.Literal.rel (atom "huge" [ v "V"; v "W" ]); L.Literal.rel (atom "lookup" [ v "K"; v "V" ]) ]);
  let g = PG.extract kb (atom "q" [ s "key1"; v "W" ]) in
  let card = function "huge" -> 1_000_000 | _ -> 1_000 in
  let _ = Shaper.shape kb ~cardinality:card g in
  match g.PG.root.PG.branches with
  | [ b ] ->
    (match b.PG.children with
     | PG.Subgoal first :: _ ->
       Alcotest.(check string) "fd lookup ordered first" "lookup" first.PG.goal.L.Atom.pred
     | _ -> Alcotest.fail "expected subgoal")
  | _ -> Alcotest.fail "expected one branch"

let fd_cases = [ Alcotest.test_case "FD SOA drives ordering" `Quick test_fd_ordering ]

let suites = match suites with
  | [ (name, cases) ] -> [ (name, cases @ fd_cases) ]
  | other -> other

(* --- engine-level knobs --- *)

let test_send_advice_off () =
  let sys =
    Braid.System.build ~send_advice:false ~kb:(Braid_workload.Kbgen.example1 ())
      ~data:(Braid_workload.Datagen.paper_example ~size:15 ())
      ()
  in
  let _, report = Braid_ie.Engine.solve_all (Braid.System.engine sys) k1_query in
  (* advice is still generated and reported, just not transmitted *)
  check_bool "advice generated" true (report.Braid_ie.Engine.advice.Adv.specs <> []);
  let m = Braid.System.metrics sys in
  check_int "no generalizations without transmitted advice" 0
    m.Braid.System.planner.Braid_planner.Qpo.generalizations

let test_conj_size_changes_specs () =
  let kb = Braid_workload.Kbgen.example1 () in
  let spec_count k =
    let advice = gen_advice ~max_conj_size:k kb k1_query in
    List.length advice.Adv.specs
  in
  (* size 1: one spec per base occurrence pattern; size 2 merges runs *)
  check_bool "larger conjunctions, fewer specs" true (spec_count 2 < spec_count 1)

let test_report_structure () =
  let sys =
    Braid.System.build ~kb:(Braid_workload.Kbgen.example1 ())
      ~data:(Braid_workload.Datagen.paper_example ~size:15 ())
      ()
  in
  let answers, report = Braid_ie.Engine.solve_all (Braid.System.engine sys) k1_query in
  check_bool "graph measured" true (report.Braid_ie.Engine.graph_size.PG.or_nodes > 0);
  check_bool "resolutions counted" true
    (report.Braid_ie.Engine.counters.Strategy.resolutions > 0);
  check_bool "db queries counted" true
    (report.Braid_ie.Engine.counters.Strategy.db_goal_queries > 0);
  check_bool "ie time accrues" true (Braid_ie.Engine.ie_ms (Braid.System.engine sys) > 0.0);
  ignore answers

let engine_cases =
  [
    Alcotest.test_case "send_advice:false" `Quick test_send_advice_off;
    Alcotest.test_case "conjunction size changes specs" `Quick test_conj_size_changes_specs;
    Alcotest.test_case "report structure" `Quick test_report_structure;
  ]

let suites = match suites with
  | [ (name, cases) ] -> [ (name, cases @ engine_cases) ]
  | other -> other

(* --- the adaptive suite --- *)

let test_adaptive_matches_better_choice () =
  let persons = 300 in
  let run strategy query first_only =
    let sys =
      Braid.System.build ~config:Braid_planner.Qpo.no_advice_config ~strategy
        ~kb:(Braid_workload.Kbgen.ancestor ())
        ~data:(Braid_workload.Datagen.family ~persons ~fanout:3 ())
        ()
    in
    (match first_only with
     | Some n -> ignore (Braid.System.solve_first sys ~n query)
     | None -> ignore (Braid.System.solve_all sys query));
    (Braid.System.metrics sys).Braid.System.total_ms
  in
  let bound = atom "ancestor" [ s "p7"; v "Y" ] in
  let free = atom "ancestor" [ v "X"; v "Y" ] in
  (* selective query: adaptive must behave like interpretive, beating
     set-oriented by a wide margin *)
  let a_sel = run Strategy.Adaptive bound (Some 1) in
  let c_sel = run Strategy.Set_oriented bound (Some 1) in
  check_bool "adaptive ~ interpretive on selective demand" true (a_sel < c_sel);
  (* broad recursive all-solutions: adaptive must behave like set-oriented *)
  let a_all = run Strategy.Adaptive free None in
  let i_all = run Strategy.Interpretive free None in
  check_bool "adaptive ~ set-oriented on broad demand" true (a_all < i_all)

let test_adaptive_correctness () =
  let sys config strategy =
    Braid.System.build ~config ~strategy ~kb:(Braid_workload.Kbgen.ancestor ())
      ~data:(Braid_workload.Datagen.family ~persons:50 ~fanout:3 ())
      ()
  in
  let q = atom "ancestor" [ s "p0"; v "Y" ] in
  let norm rel =
    List.sort_uniq compare (List.map R.Tuple.to_list (R.Relation.to_list rel))
  in
  let reference =
    norm (Braid.System.solve_all (sys Braid_planner.Qpo.loose_coupling_config Strategy.Interpretive) q)
  in
  check_bool "adaptive answers correctly" true
    (norm (Braid.System.solve_all (sys Braid_planner.Qpo.braid_config Strategy.Adaptive) q)
    = reference)

let adaptive_cases =
  [
    Alcotest.test_case "adaptive picks the better suite" `Quick
      test_adaptive_matches_better_choice;
    Alcotest.test_case "adaptive correctness" `Quick test_adaptive_correctness;
  ]

let suites = match suites with
  | [ (name, cases) ] -> [ (name, cases @ adaptive_cases) ]
  | other -> other

(* --- conjunction runs with interleaved comparisons --- *)

let test_conjunction_run_with_comparison () =
  (* needs_expensive: uses(X,Y) & part(Y,P) & P > 400 — with conjunction
     size 2 the run part(Y,P) & P>400 ships as one filtered query *)
  let build strategy =
    Braid.System.build ~config:Braid_planner.Qpo.loose_coupling_config ~strategy
      ~kb:(Braid_workload.Kbgen.bill_of_materials ())
      ~data:(Braid_workload.Datagen.bill_of_materials ~parts:30 ~max_children:2 ())
      ()
  in
  let q = atom "needs_expensive" [ s "part0" ] in
  let norm rel =
    List.sort_uniq compare (List.map R.Tuple.to_list (R.Relation.to_list rel))
  in
  let reference = norm (Braid.System.solve_all (build Strategy.Interpretive) q) in
  List.iter
    (fun k ->
      check_bool "conjunction strategies agree with interpretive" true
        (norm (Braid.System.solve_all (build (Strategy.Conjunction_compiled k)) q)
        = reference))
    [ 2; 3 ]

let test_unbound_builtin_raises () =
  let kb = L.Kb.create () in
  L.Kb.declare_base kb "b" ~arity:1;
  (* Q is never bound: the comparison cannot be evaluated *)
  L.Kb.add_rule kb
    (L.Rule.make ~id:"bad" (atom "p" [ v "X" ])
       [ L.Literal.cmp Braid_relalg.Row_pred.Lt (v "Q") (i 3); L.Literal.rel (atom "b" [ v "X" ]) ]);
  let sys =
    Braid.System.build ~kb
      ~data:
        [ R.Relation.of_tuples ~name:"b" (R.Schema.make [ ("x", V.Tint) ]) [ [| V.Int 1 |] ] ]
      ()
  in
  check_bool "unbound builtin raises" true
    (try
       ignore (Braid.System.solve_all sys (atom "p" [ v "X" ]));
       false
     with Strategy.Unbound_builtin _ -> true)

let run_cases =
  [
    Alcotest.test_case "conjunction runs with comparisons" `Quick
      test_conjunction_run_with_comparison;
    Alcotest.test_case "unbound builtin raises" `Quick test_unbound_builtin_raises;
  ]

let suites = match suites with
  | [ (name, cases) ] -> [ (name, cases @ run_cases) ]
  | other -> other

(* --- the front end, compiled once per goal form --- *)

module Engine = Braid_ie.Engine
module Kbgen = Braid_workload.Kbgen
module Datagen = Braid_workload.Datagen
module Queries = Braid_workload.Queries

(* Everything [solve] takes from the front end, printed. *)
let front_report (f : Engine.front_end) =
  let size = f.Engine.graph_size and st = f.Engine.shaper_stats in
  Format.asprintf
    "%a@.orderings: %s@.skipped: %s@.graph: %d or, %d and, %d cond@.shaper: %d %d %d %d"
    Adv.pp f.Engine.advice
    (String.concat "; "
       (List.map
          (fun (id, ps) -> id ^ "=" ^ String.concat "," (List.map string_of_int ps))
          f.Engine.orderings))
    (String.concat "," f.Engine.skip_rules)
    size.PG.or_nodes size.PG.and_nodes size.PG.conditions st.Shaper.culled_by_condition
    st.Shaper.culled_by_mutex st.Shaper.conditions_evaluated st.Shaper.reordered_nodes

let compile_name = function
  | Engine.Hit -> "hit"
  | Engine.Miss -> "miss"
  | Engine.Per_goal -> "per_goal"

(* Each goal through the memoized front end, in order: the report must
   equal a fresh compile of that very goal. Returns the statuses. *)
let check_front_ends engine goals =
  List.map
    (fun g ->
      let f, status = Engine.front_end engine g in
      Alcotest.(check string)
        (Printf.sprintf "%s (%s)" (L.Atom.to_string g) (compile_name status))
        (front_report (Engine.compile engine g))
        (front_report f);
      status)
    goals

(* Every rule-defined and reachable base predicate, with all variables, one
   constant per position, one constant everywhere, and distinct constants
   everywhere. *)
let sweep_goals kb consts =
  let derived =
    List.sort_uniq compare
      (List.map
         (fun (r : L.Rule.t) -> (r.L.Rule.head.L.Atom.pred, L.Atom.arity r.L.Rule.head))
         (L.Kb.all_rules kb))
  in
  let base =
    List.concat_map
      (fun (p, n) ->
        List.filter_map
          (fun b -> Option.map (fun arity -> (b, arity)) (L.Kb.base_arity kb b))
          (L.Kb.base_preds_reachable kb (atom p (List.init n (fun _ -> v "X")))))
      derived
  in
  List.concat_map
    (fun (p, n) ->
      let vars = List.init n (fun j -> v (Printf.sprintf "Q%d" j)) in
      let at j c = List.mapi (fun k t -> if k = j then T.Const c else t) vars in
      (atom p vars
      :: List.concat_map
           (fun c ->
             atom p (List.map (fun _ -> T.Const c) vars) :: List.init n (fun j -> atom p (at j c)))
           consts)
      @ [ atom p (List.mapi (fun k _ -> s (Printf.sprintf "x%d" k)) vars) ])
    (List.sort_uniq compare (derived @ base))

let template_kbs =
  [
    ("ancestor", Kbgen.ancestor, fun () -> Datagen.family ~persons:30 ~fanout:3 ());
    ("same_generation", Kbgen.same_generation, fun () -> Datagen.family ~persons:30 ~fanout:3 ());
    ( "bill_of_materials",
      Kbgen.bill_of_materials,
      fun () -> Datagen.bill_of_materials ~parts:20 ~max_children:3 () );
    ( "university",
      Kbgen.university,
      fun () -> Datagen.university ~students:10 ~courses:6 ~enrollments:20 () );
    ("telecom", Kbgen.telecom, fun () -> Datagen.telecom ~offices:5 ~customers:10 ~orders:10 ());
    ("example1", Kbgen.example1, fun () -> Datagen.paper_example ~size:10 ());
    ("example2", Kbgen.example2, fun () -> Datagen.paper_example ~size:10 ());
  ]

let batch_goals = function
  | "ancestor" -> Queries.ancestor_batch ~persons:30 ~n:40 ~skew:0.5 ()
  | "bill_of_materials" -> Queries.bom_batch ~parts:20 ~n:20 ~skew:0.5 ()
  | "university" -> Queries.university_batch ~students:10 ~n:20 ~skew:0.5 ()
  | "telecom" -> Queries.telecom_batch ~orders:10 ~offices:5 ~n:60 ()
  | _ -> []

let test_templates_equal_fresh_compiles () =
  List.iter
    (fun strategy ->
      List.iter
        (fun (name, kb, data) ->
          let sys = Braid.System.build ~strategy ~kb:(kb ()) ~data:(data ()) () in
          let kb = Braid.System.kb sys in
          let consts =
            [ V.Str "y1"; V.Int 7 ] @ List.filteri (fun j _ -> j < 2) (L.Kb.constants kb)
          in
          let goals = batch_goals name @ sweep_goals kb consts @ sweep_goals kb [ V.Str "y2" ] in
          let statuses = check_front_ends (Braid.System.engine sys) goals in
          check_bool (name ^ ": some goals hit a template") true (List.mem Engine.Hit statuses))
        template_kbs)
    [ Strategy.Interpretive; Strategy.Set_oriented ]

let telecom_system () =
  Braid.System.build ~kb:(Kbgen.telecom ())
    ~data:(Datagen.telecom ~offices:5 ~customers:10 ~orders:10 ())
    ()

let check_statuses what expected statuses =
  Alcotest.(check (list string))
    what (List.map compile_name expected) (List.map compile_name statuses)

let test_kb_constant_goal_per_goal () =
  (* co0 is RB1's constant: unification or a mutex check against it could
     go either way depending on the value. *)
  let engine = Braid.System.engine (telecom_system ()) in
  check_statuses "servable" [ Engine.Miss; Engine.Per_goal; Engine.Hit ]
    (check_front_ends engine
       [
         atom "servable" [ s "co3"; v "S" ];
         atom "servable" [ s "co0"; v "S" ];
         atom "servable" [ s "co1"; v "S" ];
       ]);
  (* A rule head with a constant: the template compiled for silver has one
     branch, gold has two. *)
  let kb = L.Kb.create () in
  L.Kb.declare_base kb "premium" ~arity:1;
  L.Kb.declare_base kb "member" ~arity:2;
  L.Kb.add_rule kb
    (L.Rule.make ~id:"T1"
       (atom "tier" [ s "gold"; v "X" ])
       [ L.Literal.rel (atom "premium" [ v "X" ]) ]);
  L.Kb.add_rule kb
    (L.Rule.make ~id:"T2" (atom "tier" [ v "T"; v "X" ])
       [ L.Literal.rel (atom "member" [ v "X"; v "T" ]) ]);
  let sys = Braid.System.build ~kb ~data:[] () in
  check_statuses "tier" [ Engine.Miss; Engine.Per_goal; Engine.Hit ]
    (check_front_ends (Braid.System.engine sys)
       [
         atom "tier" [ s "silver"; v "X" ];
         atom "tier" [ s "gold"; v "X" ];
         atom "tier" [ s "bronze"; v "X" ];
       ])

let test_condition_on_goal_constant () =
  (* N is bound by the goal, so the shaper evaluates N >= 10 and culls the
     branch for small N: the form compiles per goal. *)
  let kb = L.Kb.create () in
  L.Kb.declare_base kb "item" ~arity:2;
  L.Kb.add_rule kb
    (L.Rule.make ~id:"B1" (atom "big" [ v "N"; v "P" ])
       [
         L.Literal.rel (atom "item" [ v "N"; v "P" ]);
         L.Literal.cmp R.Row_pred.Ge (v "N") (i 10);
       ]);
  L.Kb.add_rule kb
    (L.Rule.make ~id:"B2" (atom "big" [ v "N"; v "P" ])
       [ L.Literal.rel (atom "item" [ v "P"; v "N" ]) ]);
  let sys = Braid.System.build ~kb ~data:[] () in
  let engine = Braid.System.engine sys in
  check_statuses "big" [ Engine.Per_goal; Engine.Per_goal; Engine.Per_goal; Engine.Miss ]
    (check_front_ends engine
       [
         atom "big" [ i 5; v "P" ];
         atom "big" [ i 20; v "P" ];
         atom "big" [ i 3; v "P" ];
         atom "big" [ v "N"; i 3 ];
       ]);
  check_bool "the two values shape differently" true
    (front_report (Engine.compile engine (atom "big" [ i 5; v "P" ]))
    <> front_report (Engine.compile engine (atom "big" [ i 20; v "P" ])))

let test_add_rule_invalidates_templates () =
  let sys = telecom_system () in
  let engine = Braid.System.engine sys in
  let and_nodes g = (fst (Engine.front_end engine g)).Engine.graph_size.PG.and_nodes in
  check_statuses "before" [ Engine.Miss; Engine.Hit ]
    (check_front_ends engine
       [ atom "provisionable" [ s "ord1" ]; atom "provisionable" [ s "ord2" ] ]);
  let and_before = and_nodes (atom "provisionable" [ s "ord2" ]) in
  ignore (Braid.System.solve_all sys (atom "provisionable" [ s "ord3" ]));
  L.Kb.add_rule (Braid.System.kb sys)
    (L.Rule.make ~id:"P2" (atom "provisionable" [ v "Ord" ])
       [ L.Literal.rel (atom "order_req" [ v "Ord"; v "Cust"; s "dsl" ]) ]);
  check_statuses "after add_rule" [ Engine.Miss; Engine.Hit ]
    (check_front_ends engine
       [ atom "provisionable" [ s "ord4" ]; atom "provisionable" [ s "ord5" ] ]);
  check_bool "the new rule is in the graph" true
    (and_nodes (atom "provisionable" [ s "ord6" ]) > and_before)

let test_cardinality_change_recompiles () =
  (* a(c, Y) and b(Y, c) are equally bound: the smaller relation goes
     first, so growing [a] past [b] reorders the rule body. *)
  let kb = L.Kb.create () in
  L.Kb.add_rule kb
    (L.Rule.make ~id:"R" (atom "p" [ v "X" ])
       [ L.Literal.rel (atom "a" [ v "X"; v "Y" ]); L.Literal.rel (atom "b" [ v "Y"; v "X" ]) ]);
  let pair x y = [| V.Str x; V.Str y |] in
  let rel name cols rows = R.Relation.of_tuples ~name (R.Schema.make cols) rows in
  let sys =
    Braid.System.build ~kb
      ~data:
        [
          rel "a" [ ("x", V.Tstr); ("y", V.Tstr) ] [ pair "c0" "d0"; pair "c1" "d1" ];
          rel "b" [ ("y", V.Tstr); ("x", V.Tstr) ]
            (List.init 5 (fun k -> pair (Printf.sprintf "d%d" k) (Printf.sprintf "c%d" k)));
        ]
      ()
  in
  let engine = Braid.System.engine sys in
  let orderings g = (fst (Engine.front_end engine g)).Engine.orderings in
  check_statuses "before" [ Engine.Miss; Engine.Hit ]
    (check_front_ends engine [ atom "p" [ s "c0" ]; atom "p" [ s "c1" ] ]);
  let order_before = orderings (atom "p" [ s "c1" ]) in
  for k = 2 to 11 do
    Braid.System.insert_remote sys "a" (pair (Printf.sprintf "c%d" k) (Printf.sprintf "d%d" k))
  done;
  check_statuses "after the insert" [ Engine.Miss; Engine.Hit ]
    (check_front_ends engine [ atom "p" [ s "c2" ]; atom "p" [ s "c3" ] ]);
  check_bool "the body was reordered" true (order_before <> orderings (atom "p" [ s "c4" ]))

(* The set-oriented program is compiled once per goal form, with the
   goal's constant as a parameter: a template hit must run the new goal's
   seed, a new rule must reach the next goal, and a goal naming a KB
   constant compiles on its own. *)
let test_set_program_reuse () =
  let data () = Datagen.family ~persons:30 ~fanout:3 () in
  let sys =
    Braid.System.build ~strategy:Strategy.Set_oriented ~kb:(Kbgen.ancestor ()) ~data:(data ()) ()
  in
  let engine = Braid.System.engine sys in
  let kb = Braid.System.kb sys in
  let rels = data () in
  let base name = List.find_opt (fun r -> R.Relation.name r = name) rels in
  let solve expected g =
    let status = snd (Engine.front_end engine g) in
    Alcotest.(check string) (L.Atom.to_string g ^ " status") (compile_name expected)
      (compile_name status);
    let got = norm_rel (Braid.System.solve_all sys g) in
    check_bool
      (L.Atom.to_string g ^ " = a fresh fixpoint")
      true
      (got = norm_rel (Datalog.solve kb ~base g).Datalog.result);
    got
  in
  let goal c = atom "ancestor" [ s c; v "Y" ] in
  let p0 = solve Engine.Miss (goal "p0") in
  let p5 = solve Engine.Hit (goal "p5") in
  check_bool "p0 and p5 differ" true (p0 <> p5 && p5 <> []);
  check_bool "p0 again" true (solve Engine.Hit (goal "p0") = p0);
  let rule id head body = L.Kb.add_rule kb (L.Rule.make ~id head (List.map L.Literal.rel body)) in
  rule "UP" (atom "ancestor" [ v "X"; v "Y" ]) [ atom "parent" [ v "Y"; v "X" ] ];
  rule "ROOT" (atom "ancestor" [ v "X"; s "p0" ]) [ atom "person" [ v "X"; v "A" ] ];
  check_bool "the new rules reach p5" true (solve Engine.Miss (goal "p5") <> p5);
  check_bool "p0, now a KB constant" true (solve Engine.Per_goal (goal "p0") <> p0);
  ignore (solve Engine.Hit (goal "p7"))

(* A template hands the advisor each spec's form with the goal's values in
   the sentinels' parameters: it must be the form of the instantiated spec,
   for repeated constants, floats and strings with quotes alike. *)
let test_template_spec_forms () =
  let module Form = Braid_subsume.Form in
  let module Advisor = Braid_advice.Advisor in
  let kb = L.Kb.create () in
  List.iter (fun b -> L.Kb.declare_base kb b ~arity:2) [ "a"; "b"; "c" ];
  L.Kb.add_rule kb
    (L.Rule.make ~id:"P" (atom "p" [ v "X"; v "Y"; v "Z" ])
       [
         L.Literal.rel (atom "a" [ v "X"; v "W" ]);
         L.Literal.rel (atom "b" [ v "W"; v "Y" ]);
         L.Literal.rel (atom "c" [ v "Y"; v "Z" ]);
       ]);
  let engine = Braid.System.engine (Braid.System.build ~kb ~data:[] ()) in
  let f x = V.Float x and q = V.Str "say \"hi\"" and apos = V.Str "it's" in
  let goals =
    [
      (f 2.0, f 2.0);
      (f 1.0000001, f 1.0000001);
      (q, apos);
      (f 2.0, f 1.0000001);
      (apos, q);
    ]
  in
  let statuses =
    List.map
      (fun (x, y) ->
        let g = atom "p" [ T.Const x; T.Const y; v "Z" ] in
        let front, status = Engine.front_end engine g in
        let name = L.Atom.to_string g in
        check_bool (name ^ ": the template gives forms") true (front.Engine.spec_forms <> None);
        let adv =
          Advisor.create ?nfa:front.Engine.nfa ?forms:front.Engine.spec_forms front.Engine.advice
        in
        let forms =
          List.map
            (fun (sp : Adv.view_spec) ->
              let got = Advisor.spec_form adv sp and want = Form.of_conj sp.Adv.def in
              check_bool
                (Printf.sprintf "%s: %s's form" name sp.Adv.id)
                true
                (Form.equal got.Form.form want.Form.form && Form.same got want);
              got)
            front.Engine.advice.Adv.specs
        in
        check_bool (name ^ ": specs hold the goal's values") true
          (List.for_all
             (fun value ->
               List.exists (fun (got : Form.inst) -> Array.exists (V.equal value) got.Form.consts) forms)
             [ x; y ]);
        status)
      goals
  in
  check_statuses "p" [ Engine.Miss; Engine.Hit; Engine.Miss; Engine.Hit; Engine.Hit ] statuses

let template_cases =
  [
    Alcotest.test_case "templates equal fresh compiles" `Quick
      test_templates_equal_fresh_compiles;
    Alcotest.test_case "KB constant goal compiles per goal" `Quick
      test_kb_constant_goal_per_goal;
    Alcotest.test_case "condition on a goal constant" `Quick test_condition_on_goal_constant;
    Alcotest.test_case "add_rule invalidates templates" `Quick
      test_add_rule_invalidates_templates;
    Alcotest.test_case "cardinality change recompiles" `Quick
      test_cardinality_change_recompiles;
    Alcotest.test_case "set-oriented program reused per form" `Quick test_set_program_reuse;
    Alcotest.test_case "template spec forms = Form.of_conj" `Quick test_template_spec_forms;
    Alcotest.test_case "magic right-linear rewrite" `Quick test_magic_right_linear;
    Alcotest.test_case "magic right-linear fallbacks" `Quick test_magic_right_linear_fallbacks;
    Alcotest.test_case "float constants keep fetches apart" `Quick
      test_float_constants_keep_fetches_apart;
  ]

let suites = match suites with
  | [ (name, cases) ] -> [ (name, cases @ template_cases) ]
  | other -> other
