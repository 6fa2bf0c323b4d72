(* End-to-end tests: IE + CMS + remote DBMS, across configurations and
   strategies. The ground truth for each workload is computed by the
   loose-coupling configuration with the interpretive strategy (which does
   no caching and no rewriting), and every other configuration must return
   the same set of solutions. *)

module L = Braid_logic
module R = Braid_relalg
module V = Braid_relalg.Value
module Sys_ = Braid.System

let check = Alcotest.(check bool)

let solutions_set rel =
  List.sort_uniq compare
    (List.map (fun t -> List.map V.to_string (R.Tuple.to_list t)) (R.Relation.to_list rel))

let family_system ?(config = Braid_planner.Qpo.braid_config) ?strategy () =
  Sys_.build ~config ?strategy ~kb:(Braid_workload.Kbgen.ancestor ())
    ~data:(Braid_workload.Datagen.family ~persons:60 ~fanout:3 ())
    ()

let query_anc c = L.Atom.make "ancestor" [ L.Term.Const (V.Str c); L.Term.Var "Y" ]

let test_ancestor_loose () =
  let sys = family_system ~config:Braid_planner.Qpo.loose_coupling_config () in
  let r = Sys_.solve_all sys (query_anc "p0") in
  check "p0 has descendants" true (R.Relation.cardinality r > 0);
  (* every returned Y is transitively reachable from p0 *)
  let parent = Braid_remote.Engine.table (Braid_remote.Server.engine (Sys_.server sys)) "parent" in
  let children p =
    R.Relation.fold
      (fun acc t -> if V.equal (R.Tuple.get t 0) p then R.Tuple.get t 1 :: acc else acc)
      [] parent
  in
  let rec reachable p acc =
    List.fold_left (fun acc c -> if List.mem c acc then acc else reachable c (c :: acc)) acc
      (children p)
  in
  let closure = reachable (V.Str "p0") [] in
  R.Relation.iter
    (fun t -> check "solution is a true descendant" true (List.mem (R.Tuple.get t 0) closure))
    r;
  check "all descendants found" true
    (List.length (solutions_set r) = List.length closure)

let all_configs = List.map (fun b -> b.Braid.Baselines.config) Braid.Baselines.all

let test_configs_agree () =
  let reference =
    solutions_set
      (Sys_.solve_all
         (family_system ~config:Braid_planner.Qpo.loose_coupling_config ())
         (query_anc "p1"))
  in
  List.iter
    (fun config ->
      let sys = family_system ~config () in
      (* run the query twice: the second run exercises cache hits *)
      let _ = Sys_.solve_all sys (query_anc "p1") in
      let r = Sys_.solve_all sys (query_anc "p1") in
      check "same solutions" true (solutions_set r = reference))
    all_configs

let test_strategies_agree () =
  let reference =
    solutions_set
      (Sys_.solve_all
         (family_system ~config:Braid_planner.Qpo.loose_coupling_config ())
         (query_anc "p2"))
  in
  List.iter
    (fun strategy ->
      let sys = family_system ~strategy () in
      let r = Sys_.solve_all sys (query_anc "p2") in
      check "same solutions across strategies" true (solutions_set r = reference))
    [
      Braid_ie.Strategy.Interpretive;
      Braid_ie.Strategy.Conjunction_compiled 2;
      Braid_ie.Strategy.Conjunction_compiled 4;
      Braid_ie.Strategy.Set_oriented;
    ]

let test_caching_reduces_requests () =
  let run config =
    let sys = family_system ~config () in
    List.iter
      (fun q -> ignore (Sys_.solve_all sys q))
      (Braid_workload.Queries.ancestor_batch ~persons:60 ~n:12 ~skew:1.2 ());
    (Sys_.metrics sys).Sys_.remote.Braid_remote.Server.requests
  in
  let loose = run Braid_planner.Qpo.loose_coupling_config in
  let braid = run Braid_planner.Qpo.braid_config in
  check "braid issues fewer remote requests than loose coupling" true (braid < loose)

let test_example1_end_to_end () =
  let sys =
    Sys_.build ~kb:(Braid_workload.Kbgen.example1 ())
      ~data:(Braid_workload.Datagen.paper_example ~size:30 ())
      ()
  in
  let q = L.Atom.make "k1" [ L.Term.Var "X"; L.Term.Var "Y" ] in
  let r = Sys_.solve_all sys q in
  let reference =
    Sys_.solve_all
      (Sys_.build
         ~config:Braid_planner.Qpo.loose_coupling_config
         ~kb:(Braid_workload.Kbgen.example1 ())
         ~data:(Braid_workload.Datagen.paper_example ~size:30 ())
         ())
      q
  in
  check "example 1 answers match loose coupling" true
    (solutions_set r = solutions_set reference);
  check "example 1 has answers" true (R.Relation.cardinality r > 0)

let test_example2_mutex_advice () =
  let sys =
    Sys_.build ~kb:(Braid_workload.Kbgen.example2 ())
      ~data:(Braid_workload.Datagen.paper_example ~size:20 ())
      ()
  in
  let q = L.Atom.make "k1" [ L.Term.Var "X"; L.Term.Var "Y" ] in
  let _, report = Braid_ie.Engine.solve_all (Sys_.engine sys) q in
  (* the path expression must contain an alternation with selection term 1 *)
  let rec has_alt1 = function
    | Braid_advice.Ast.Alt (_, Some 1) -> true
    | Braid_advice.Ast.Alt (ps, _) | Braid_advice.Ast.Seq (ps, _) -> List.exists has_alt1 ps
    | Braid_advice.Ast.Pattern _ -> false
  in
  match report.Braid_ie.Engine.advice.Braid_advice.Ast.path with
  | Some p -> check "guarded branches yield a selection-1 alternation" true (has_alt1 p)
  | None -> Alcotest.fail "expected a path expression"

let test_lazy_first_solution_cheaper () =
  (* Asking for one solution with the interpretive strategy must do less
     resolution work than asking for all. *)
  let q = query_anc "p0" in
  let sys1 = family_system () in
  let _ = Sys_.solve_first sys1 ~n:1 q in
  let one = Braid_ie.Engine.ie_ms (Sys_.engine sys1) in
  let sys2 = family_system () in
  let _ = Sys_.solve_all sys2 q in
  let all = Braid_ie.Engine.ie_ms (Sys_.engine sys2) in
  check "single solution costs less inference than all solutions" true (one < all)

let test_solve_text () =
  let sys = family_system () in
  let r = Sys_.solve_text sys "ancestor(p0, Y)" in
  check "text query returns solutions" true (R.Relation.cardinality r > 0)

let suites : unit Alcotest.test list =
  [
    ( "system",
      [
        Alcotest.test_case "ancestor end-to-end (loose)" `Quick test_ancestor_loose;
        Alcotest.test_case "all configurations agree" `Quick test_configs_agree;
        Alcotest.test_case "all strategies agree" `Quick test_strategies_agree;
        Alcotest.test_case "caching reduces remote requests" `Quick
          test_caching_reduces_requests;
        Alcotest.test_case "paper example 1 end-to-end" `Quick test_example1_end_to_end;
        Alcotest.test_case "paper example 2 mutex advice" `Quick test_example2_mutex_advice;
        Alcotest.test_case "first solution cheaper than all" `Quick
          test_lazy_first_solution_cheaper;
        Alcotest.test_case "solve_text" `Quick test_solve_text;
      ] );
  ]

(* --- cache invalidation on remote updates --- *)

let test_update_invalidates_cache () =
  let sys = family_system () in
  let q = query_anc "p0" in
  let before = R.Relation.cardinality (Sys_.solve_all sys q) in
  (* the second run is served from the cache *)
  let remote_before =
    (Sys_.metrics sys).Sys_.remote.Braid_remote.Server.requests
  in
  let again = R.Relation.cardinality (Sys_.solve_all sys q) in
  check "cache hit: no new traffic" true
    ((Sys_.metrics sys).Sys_.remote.Braid_remote.Server.requests = remote_before);
  check "same answer from cache" true (again = before);
  (* a new person becomes p0's child: the update must invalidate *)
  Sys_.insert_remote sys "parent" [| V.Str "p0"; V.Str "newkid" |];
  let after = R.Relation.cardinality (Sys_.solve_all sys q) in
  check "new descendant visible" true (after = before + 1);
  let r = Sys_.solve_all sys q in
  check "specifically newkid" true
    (List.exists
       (fun t -> V.equal (R.Tuple.get t 0) (V.Str "newkid"))
       (R.Relation.to_list r))

let test_invalidate_selective () =
  let sys = family_system () in
  ignore (Sys_.solve_all sys (query_anc "p0"));
  let cms = Sys_.cms sys in
  (* elements over parent exist; person-based ones would survive *)
  let dropped = Braid.Cms.invalidate_table cms "parent" in
  check "parent-dependent elements dropped" true (dropped <> []);
  let summary = Braid.Cms.cache_summary cms in
  (* everything in this workload depends on parent except possibly person *)
  check "cache reduced" true
    (summary.Braid_cache.Cache_model.element_count
     < List.length dropped + summary.Braid_cache.Cache_model.element_count + 1)

let update_cases =
  [
    Alcotest.test_case "update invalidates cache" `Quick test_update_invalidates_cache;
    Alcotest.test_case "selective invalidation" `Quick test_invalidate_selective;
  ]

let suites = match suites with
  | [ (name, cases) ] -> [ (name, cases @ update_cases) ]
  | other -> other
