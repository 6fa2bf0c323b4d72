(* The experiment suite at reduced scale: every figure/claim reproduced in
   DESIGN.md §5 must hold in direction (who wins, and the qualitative
   shape), not in absolute numbers. *)

module E = Braid_experiments

let check_bool = Alcotest.(check bool)

let find label rows = List.find (fun (r : E.Runner.result) -> r.E.Runner.label = label) rows

let test_e1_coupling () =
  let rows, _ = E.Exp_coupling.run ~persons:60 ~queries:15 () in
  let loose = find "loose" rows
  and bermuda = find "bermuda" rows
  and braid = find "braid" rows in
  check_bool "bermuda ≪ loose requests" true
    (bermuda.E.Runner.requests < loose.E.Runner.requests / 2);
  check_bool "braid < bermuda requests" true
    (braid.E.Runner.requests < bermuda.E.Runner.requests);
  check_bool "braid fastest" true
    (braid.E.Runner.total_ms < bermuda.E.Runner.total_ms
    && braid.E.Runner.total_ms < loose.E.Runner.total_ms);
  (* all disciplines find the same solutions *)
  List.iter
    (fun (r : E.Runner.result) ->
      check_bool "same solution count" true (r.E.Runner.solutions = loose.E.Runner.solutions))
    rows

let test_e2_ablation () =
  let rows, _ = E.Exp_ablation.run ~students:40 ~queries:15 () in
  let get label = snd (List.find (fun (l, _) -> l = label) rows) in
  let full = get "braid (all on)" in
  let no_cache = get "- caching entirely" in
  let exact = get "- subsumption (exact match)" in
  check_bool "full braid beats no-cache" true
    (full.E.Runner.total_ms < no_cache.E.Runner.total_ms);
  check_bool "full braid beats exact-only" true
    (full.E.Runner.total_ms <= exact.E.Runner.total_ms);
  (* removing any single technique never helps end-to-end time (within 5%) *)
  List.iter
    (fun (label, (r : E.Runner.result)) ->
      if label <> "braid (all on)" then
        check_bool (label ^ " does not beat full") true
          (r.E.Runner.total_ms >= full.E.Runner.total_ms *. 0.95))
    rows

let test_e3_cost_split () =
  let rows, _ = E.Exp_cost_split.run ~parts:50 ~queries:12 () in
  let loose = find "loose" rows and braid = find "braid" rows in
  check_bool "braid reduces communication" true
    (braid.E.Runner.comm_ms < loose.E.Runner.comm_ms /. 2.0);
  check_bool "braid reduces server demand" true
    (braid.E.Runner.server_ms < loose.E.Runner.server_ms);
  check_bool "braid total lower" true (braid.E.Runner.total_ms < loose.E.Runner.total_ms)

let test_e4_soa_culling () =
  let rows, _ = E.Exp_ie_pipeline.run ~sizes:[ 0; 4 ] () in
  let with_soa = List.find (fun r -> r.E.Exp_ie_pipeline.branches = 4 && r.E.Exp_ie_pipeline.with_soa) rows in
  let without = List.find (fun r -> r.E.Exp_ie_pipeline.branches = 4 && not r.E.Exp_ie_pipeline.with_soa) rows in
  check_bool "SOA culls AND nodes" true
    (with_soa.E.Exp_ie_pipeline.and_nodes_after < without.E.Exp_ie_pipeline.and_nodes_after);
  check_bool "SOA reduces CAQL queries" true
    (with_soa.E.Exp_ie_pipeline.caql_queries < without.E.Exp_ie_pipeline.caql_queries);
  check_bool "SOA reduces remote requests" true
    (with_soa.E.Exp_ie_pipeline.requests <= without.E.Exp_ie_pipeline.requests);
  (* zero dead branches: SOA changes nothing *)
  let base_yes = List.find (fun r -> r.E.Exp_ie_pipeline.branches = 0 && r.E.Exp_ie_pipeline.with_soa) rows in
  let base_no = List.find (fun r -> r.E.Exp_ie_pipeline.branches = 0 && not r.E.Exp_ie_pipeline.with_soa) rows in
  check_bool "no dead branches: identical" true
    (base_yes.E.Exp_ie_pipeline.caql_queries = base_no.E.Exp_ie_pipeline.caql_queries)

let test_e5_reuse () =
  let rows, _ = E.Exp_reuse.run ~queries:30 () in
  let get label = List.find (fun r -> r.E.Exp_reuse.label = label) rows in
  let exact = get "bermuda (exact)" in
  let sub = get "braid (subsumption)" in
  check_bool "subsumption more full hits" true
    (sub.E.Exp_reuse.full_hits > exact.E.Exp_reuse.full_hits);
  check_bool "subsumption fewer requests" true
    (sub.E.Exp_reuse.requests < exact.E.Exp_reuse.requests);
  check_bool "subsumption moves fewer tuples" true
    (sub.E.Exp_reuse.tuples_moved <= exact.E.Exp_reuse.tuples_moved)

let test_e6_ic_range () =
  let rows, _ = E.Exp_ic_range.run ~persons:500 ~queries:4 () in
  let get strategy demand =
    List.find
      (fun r -> r.E.Exp_ic_range.strategy = strategy && r.E.Exp_ic_range.demand = demand)
      rows
  in
  let interp_first = get "interpretive" "first" in
  let interp_all = get "interpretive" "all" in
  let set_first = get "set-oriented" "first" in
  let set_all = get "set-oriented" "all" in
  (* the paper's point: neither end always wins *)
  check_bool "interpretive wins for first-solution demand" true
    (interp_first.E.Exp_ic_range.total_ms < set_first.E.Exp_ic_range.total_ms);
  check_bool "set-oriented wins for all-solutions demand" true
    (set_all.E.Exp_ic_range.total_ms < interp_all.E.Exp_ic_range.total_ms);
  check_bool "set-oriented moves the same data regardless of demand" true
    (set_first.E.Exp_ic_range.tuples_moved = set_all.E.Exp_ic_range.tuples_moved);
  check_bool "interpretive moves data proportional to demand" true
    (interp_first.E.Exp_ic_range.tuples_moved < interp_all.E.Exp_ic_range.tuples_moved)

let test_e7_lazy () =
  let rows, _ = E.Exp_lazy.run ~take_points:[ 1; 10; 0 ] () in
  List.iter
    (fun r ->
      check_bool "lazy work tracks demand" true
        (r.E.Exp_lazy.lazy_produced <= r.E.Exp_lazy.consumed + 1);
      check_bool "eager always does full work" true
        (r.E.Exp_lazy.eager_produced >= r.E.Exp_lazy.lazy_produced))
    rows;
  let one = List.find (fun r -> r.E.Exp_lazy.consumed = 1) rows in
  check_bool "first solution is nearly free" true
    (one.E.Exp_lazy.lazy_produced * 50 < one.E.Exp_lazy.eager_produced)

let test_e8_advice () =
  let rows, _ = E.Exp_advice.run ~sizes:[ 10; 30 ] () in
  let get size label =
    List.find (fun r -> r.E.Exp_advice.size = size && r.E.Exp_advice.label = label) rows
  in
  List.iter
    (fun size ->
      let plain = get size "subsumption only" in
      let advised = get size "with advice" in
      check_bool "advice reduces requests" true
        (advised.E.Exp_advice.requests < plain.E.Exp_advice.requests);
      check_bool "advice used generalization or prefetch" true
        (advised.E.Exp_advice.generalizations + advised.E.Exp_advice.prefetches > 0))
    [ 10; 30 ];
  (* requests grow with data size without advice, stay flat with it *)
  let p10 = get 10 "subsumption only" and p30 = get 30 "subsumption only" in
  let a10 = get 10 "with advice" and a30 = get 30 "with advice" in
  check_bool "plain grows with |Y|" true (p30.E.Exp_advice.requests > p10.E.Exp_advice.requests);
  check_bool "advised stays flat" true (a30.E.Exp_advice.requests = a10.E.Exp_advice.requests)

let test_e9_replacement () =
  let rows, _ = E.Exp_replacement.run ~rounds:8 () in
  let lru = List.find (fun r -> r.E.Exp_replacement.label = "plain LRU") rows in
  let pinned =
    List.find (fun r -> r.E.Exp_replacement.label = "LRU + advice pinning") rows
  in
  check_bool "cyclic thrash: LRU never hits" true (lru.E.Exp_replacement.full_hits = 0);
  check_bool "pinning rescues part of the cycle" true
    (pinned.E.Exp_replacement.full_hits > 0);
  check_bool "pinning reduces remote requests" true
    (pinned.E.Exp_replacement.requests < lru.E.Exp_replacement.requests)

let test_e10_indexing () =
  let rows, _ = E.Exp_indexing.run ~probes:30 ~size:80 () in
  let without = List.find (fun r -> r.E.Exp_indexing.label = "no indexing") rows in
  let with_ix =
    List.find (fun r -> r.E.Exp_indexing.label = "advice indexing (? column)") rows
  in
  check_bool "indexing reduces touched tuples by 10x" true
    (with_ix.E.Exp_indexing.tuples_touched * 10 < without.E.Exp_indexing.tuples_touched);
  check_bool "indexing reduces local time" true
    (with_ix.E.Exp_indexing.local_ms < without.E.Exp_indexing.local_ms)

let suites : unit Alcotest.test list =
  [
    ( "experiments",
      [
        Alcotest.test_case "E1 coupling disciplines" `Slow test_e1_coupling;
        Alcotest.test_case "E2 technique ablation" `Slow test_e2_ablation;
        Alcotest.test_case "E3 cost split" `Slow test_e3_cost_split;
        Alcotest.test_case "E4 SOA culling" `Slow test_e4_soa_culling;
        Alcotest.test_case "E5 subsumption reuse" `Slow test_e5_reuse;
        Alcotest.test_case "E6 I-C range crossover" `Slow test_e6_ic_range;
        Alcotest.test_case "E7 lazy vs eager" `Slow test_e7_lazy;
        Alcotest.test_case "E8 advice generalization" `Slow test_e8_advice;
        Alcotest.test_case "E9 replacement pinning" `Slow test_e9_replacement;
        Alcotest.test_case "E10 advice indexing" `Slow test_e10_indexing;
      ] );
  ]

let test_e11_fixpoint () =
  let rows, _ = E.Exp_fixpoint.run ~persons:100 () in
  let get a = List.find (fun r -> r.E.Exp_fixpoint.approach = a) rows in
  let interp = get "interpretive IE" in
  let set = get "set-oriented IE + workstation fixpoint" in
  let cms_fix = get "CMS fixpoint DAP" in
  check_bool "fixpoint DAP needs few requests" true
    (cms_fix.E.Exp_fixpoint.requests <= 2);
  check_bool "far fewer than interpretive" true
    (cms_fix.E.Exp_fixpoint.requests * 10 < interp.E.Exp_fixpoint.requests);
  check_bool "comparable to set-oriented" true
    (cms_fix.E.Exp_fixpoint.total_ms < interp.E.Exp_fixpoint.total_ms);
  check_bool "same data volume as set-oriented" true
    (cms_fix.E.Exp_fixpoint.tuples_moved = set.E.Exp_fixpoint.tuples_moved)

let suites = match suites with
  | [ (name, cases) ] ->
    [ (name, cases @ [ Alcotest.test_case "E11 fixpoint operator" `Slow test_e11_fixpoint ]) ]
  | other -> other

let test_e12_application () =
  let rows, _ = E.Exp_application.run ~offices:20 ~customers:50 ~orders:40 ~queries:25 () in
  let loose = find "loose" rows and braid = find "braid" rows in
  check_bool "braid needs far fewer requests" true
    (braid.E.Runner.requests * 2 < loose.E.Runner.requests);
  check_bool "braid is faster end to end" true
    (braid.E.Runner.total_ms < loose.E.Runner.total_ms);
  (* every discipline answers identically *)
  List.iter
    (fun (r : E.Runner.result) ->
      check_bool "solutions agree" true (r.E.Runner.solutions = loose.E.Runner.solutions))
    rows

let suites = match suites with
  | [ (name, cases) ] ->
    [ (name, cases @ [ Alcotest.test_case "E12 whole application" `Slow test_e12_application ]) ]
  | other -> other
