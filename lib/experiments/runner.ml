module Sys_ = Braid.System
module Qpo = Braid_planner.Qpo
module Server = Braid_remote.Server

type result = {
  label : string;
  queries : int;
  solutions : int;
  requests : int;
  tuples_returned : int;
  tuples_scanned : int;
  comm_ms : float;
  server_ms : float;
  local_ms : float;
  ie_ms : float;
  total_ms : float;
  caql_queries : int;
  exact_hits : int;
  full_hits : int;
  partial_hits : int;
  misses : int;
  generalizations : int;
  prefetches : int;
  lazy_answers : int;
  degraded : int;
  retries : int;
  trips : int;
  evictions : int;
  cache_bytes : int;
}

let run_batch ~label ?config ?capacity_bytes ?strategy ?first_only ~kb ~data queries =
  let sys = Sys_.build ?config ?capacity_bytes ?strategy ~kb:(kb ()) ~data:(data ()) () in
  let solutions = ref 0 in
  List.iter
    (fun q ->
      match first_only with
      | Some n -> solutions := !solutions + List.length (Sys_.solve_first sys ~n q)
      | None ->
        solutions :=
          !solutions + Braid_relalg.Relation.cardinality (Sys_.solve_all sys q))
    queries;
  let m = Sys_.metrics sys in
  {
    label;
    queries = List.length queries;
    solutions = !solutions;
    requests = m.Sys_.remote.Server.requests;
    tuples_returned = m.Sys_.remote.Server.tuples_returned;
    tuples_scanned = m.Sys_.remote.Server.tuples_scanned;
    comm_ms = m.Sys_.remote.Server.comm_ms;
    server_ms = m.Sys_.remote.Server.server_ms;
    local_ms = m.Sys_.planner.Qpo.local_ms;
    ie_ms = m.Sys_.ie_ms;
    total_ms = m.Sys_.total_ms;
    caql_queries = m.Sys_.planner.Qpo.queries;
    exact_hits = m.Sys_.planner.Qpo.exact_hits;
    full_hits = m.Sys_.planner.Qpo.full_hits;
    partial_hits = m.Sys_.planner.Qpo.partial_hits;
    misses = m.Sys_.planner.Qpo.misses;
    generalizations = m.Sys_.planner.Qpo.generalizations;
    prefetches = m.Sys_.planner.Qpo.prefetches;
    lazy_answers = m.Sys_.planner.Qpo.lazy_answers;
    degraded = m.Sys_.planner.Qpo.degraded;
    retries = m.Sys_.rdi.Braid_remote.Rdi.retries;
    trips = m.Sys_.rdi.Braid_remote.Rdi.trips;
    evictions = m.Sys_.cache.Braid_cache.Cache_manager.evictions;
    cache_bytes = m.Sys_.cache_summary.Braid_cache.Cache_model.total_bytes;
  }
