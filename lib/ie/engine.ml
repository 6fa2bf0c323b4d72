module L = Braid_logic
module R = Braid_relalg
module TS = Braid_stream.Tuple_stream
module Qpo = Braid_planner.Qpo
module Server = Braid_remote.Server
module Catalog = Braid_remote.Catalog
module Obs = Braid_obs

type t = {
  kb : L.Kb.t;
  qpo : Qpo.t;
  strategy : Strategy.kind;
  max_depth : int;
  send_advice : bool;
  mutable total_resolutions : int;
}

let create ?(strategy = Strategy.Interpretive) ?(max_depth = 50_000) ?(send_advice = true) kb
    qpo =
  { kb; qpo; strategy; max_depth; send_advice; total_resolutions = 0 }

let kb t = t.kb
let qpo t = t.qpo
let strategy t = t.strategy

type report = {
  graph_size : Problem_graph.size;
  shaper_stats : Shaper.stats;
  advice : Braid_advice.Ast.t;
  counters : Strategy.counters;
}

let max_conj_size t =
  match t.strategy with
  | Strategy.Interpretive | Strategy.Adaptive -> 1
  | Strategy.Conjunction_compiled k -> k
  | Strategy.Set_oriented -> max_int

let solve t query =
  Obs.Metrics.incr "ie.queries";
  Obs.Trace.with_span ~cat:"ie" "ie.solve"
    ~args:
      (if Obs.Trace.enabled () then [ ("query", Obs.Trace.Str (L.Atom.to_string query)) ]
       else [])
    (fun () ->
      (* Query translator + problem graph extractor. *)
      let graph =
        Obs.Trace.with_span ~cat:"ie" "ie.extract" (fun () ->
            let graph = Problem_graph.extract t.kb query in
            let size = Problem_graph.size graph in
            Obs.Trace.add_arg "and_nodes" (Obs.Trace.Int size.Problem_graph.and_nodes);
            Obs.Trace.add_arg "or_nodes" (Obs.Trace.Int size.Problem_graph.or_nodes);
            graph)
      in
      let rules_before = Problem_graph.rule_ids graph in
      (* Problem graph shaper, fed by catalog statistics via the CMS. *)
      let catalog = Server.catalog (Qpo.server t.qpo) in
      let shaper_stats =
        Obs.Trace.with_span ~cat:"ie" "ie.shape" (fun () ->
            Shaper.shape t.kb ~cardinality:(Catalog.cardinality catalog) graph)
      in
      (* Rules the shaper proved useless (every instance culled) are never
         expanded by the strategy controller. *)
      let rules_after = Problem_graph.rule_ids graph in
      let skip_rules =
        List.filter (fun id -> not (List.mem id rules_after)) rules_before
      in
      (* View specifier + path expression creator. *)
      let advice =
        Obs.Trace.with_span ~cat:"ie" "ie.advice" (fun () ->
            let advice = Advice_gen.generate ~max_conj_size:(max_conj_size t) t.kb graph in
            Obs.Trace.add_arg "specs"
              (Obs.Trace.Int (List.length advice.Braid_advice.Ast.specs));
            advice)
      in
      if t.send_advice then Qpo.set_advice t.qpo advice
      else Qpo.set_advice t.qpo { Braid_advice.Ast.specs = []; path = None };
      (* Inference strategy controller. *)
      let counters = { Strategy.resolutions = 0; db_goal_queries = 0 } in
      let orderings = Shaper.rule_orderings graph in
      let stream =
        Strategy.solve t.strategy t.kb t.qpo ~orderings ~counters ~max_depth:t.max_depth
          ~skip_rules query
      in
      (* Account inference work as it happens: wrap the stream so pulls update
         the engine's running total. *)
      let counted =
        TS.from (TS.schema stream)
          (let cursor = TS.cursor stream in
           let last = ref 0 in
           fun () ->
             let r = TS.next cursor in
             let delta = counters.Strategy.resolutions - !last in
             t.total_resolutions <- t.total_resolutions + delta;
             if delta > 0 then Obs.Metrics.incr ~by:delta "ie.resolutions";
             last := counters.Strategy.resolutions;
             r)
      in
      (counted, { graph_size = Problem_graph.size graph; shaper_stats; advice; counters }))

let solve_all t query =
  let stream, report = solve t query in
  (TS.to_relation stream, report)

let solve_first t ?(n = 1) query =
  let stream, report = solve t query in
  let cursor = TS.cursor stream in
  let rec take k acc =
    if k = 0 then List.rev acc
    else
      match TS.next cursor with
      | Some tup -> take (k - 1) (tup :: acc)
      | None -> List.rev acc
  in
  (take n [], report)

let ie_ms t =
  let model = Server.cost_model (Qpo.server t.qpo) in
  model.Braid_remote.Cost_model.ie_resolution_ms *. float_of_int t.total_resolutions
