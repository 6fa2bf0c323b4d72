module L = Braid_logic
module R = Braid_relalg
module Qpo = Braid_planner.Qpo
module Server = Braid_remote.Server
module Router = Braid_remote.Shard_router
module Engine = Braid_ie.Engine

type t = {
  kb : L.Kb.t;
  cms : Cms.t;
  engine : Engine.t;
}

let build ?cost ?config ?capacity_bytes ?strategy ?send_advice ?(shards = 1)
    ?(replicas = 1) ?(partitioning = []) ~kb ~data () =
  if shards < 1 then invalid_arg "System.build: shards must be >= 1";
  if replicas < 1 then invalid_arg "System.build: replicas must be >= 1";
  let server = Server.create ?cost () in
  List.iter
    (fun rel ->
      Braid_remote.Engine.load (Server.engine server) rel;
      let name = R.Relation.name rel in
      if not (L.Kb.is_base kb name || L.Kb.is_derived kb name) then
        L.Kb.declare_base kb name ~arity:(R.Schema.arity (R.Relation.schema rel)))
    data;
  List.iter
    (fun (name, p) ->
      Braid_remote.Catalog.set_partitioning (Server.catalog server) name (Some p))
    partitioning;
  let router = Router.create ~shards ~replicas server in
  let cms = Cms.create ?config ?capacity_bytes ~router server in
  let engine = Engine.create ?strategy ?send_advice kb (Cms.qpo cms) in
  { kb; cms; engine }

let kb t = t.kb
let cms t = t.cms
let engine t = t.engine
let server t = Cms.server t.cms
let router t = Cms.router t.cms

let solve t query = Engine.solve t.engine query

let solve_all t query = fst (Engine.solve_all t.engine query)

let solve_first t ?n query = fst (Engine.solve_first t.engine ?n query)

let solve_text t text = solve_all t (Loader.parse_atomic_query text)

let insert_remote t name tuple =
  (* [Engine.insert] maintains catalog stats and index buckets
     incrementally ([Catalog.note_insert]); no rescan needed here. When
     sharded, the router also places the row on its owning shard. *)
  Router.insert (router t) name tuple;
  ignore (Cms.invalidate_table t.cms name)

type metrics = {
  remote : Server.stats;
  rdi : Braid_remote.Rdi.stats;
  planner : Qpo.metrics;
  cache : Braid_cache.Cache_manager.stats;
  cache_summary : Braid_cache.Cache_model.summary;
  ie_ms : float;
  total_ms : float;
}

let metrics t =
  let planner = Cms.metrics t.cms in
  let ie_ms = Engine.ie_ms t.engine in
  {
    remote = Cms.remote_stats t.cms;
    rdi = Cms.rdi_stats t.cms;
    planner;
    cache = Braid_cache.Cache_manager.stats (Cms.cache t.cms);
    cache_summary = Cms.cache_summary t.cms;
    ie_ms;
    total_ms = planner.Qpo.elapsed_ms +. ie_ms;
  }

let pp_metrics ppf m =
  Format.fprintf ppf
    "@[<v>remote: %d requests, %d tuples returned, %d scanned (server %.1fms, comm %.1fms)@,\
     planner: %d queries — %d exact, %d full, %d partial hits, %d misses; %d generalizations, \
     %d prefetches, %d lazy@,\
     rdi: %d requests, %d retries, %d trips, %d deadline misses, %d degraded answers@,\
     cache: %d elements, %d bytes, %d insertions, %d evictions@,\
     time: ie %.1fms, local %.1fms, total %.1fms@]"
    m.remote.Server.requests m.remote.Server.tuples_returned m.remote.Server.tuples_scanned
    m.remote.Server.server_ms m.remote.Server.comm_ms m.planner.Qpo.queries
    m.planner.Qpo.exact_hits m.planner.Qpo.full_hits m.planner.Qpo.partial_hits
    m.planner.Qpo.misses m.planner.Qpo.generalizations m.planner.Qpo.prefetches
    m.planner.Qpo.lazy_answers m.rdi.Braid_remote.Rdi.requests
    m.rdi.Braid_remote.Rdi.retries m.rdi.Braid_remote.Rdi.trips
    m.rdi.Braid_remote.Rdi.deadline_misses m.planner.Qpo.degraded m.cache_summary.Braid_cache.Cache_model.element_count
    m.cache_summary.Braid_cache.Cache_model.total_bytes
    m.cache.Braid_cache.Cache_manager.insertions m.cache.Braid_cache.Cache_manager.evictions
    m.ie_ms m.planner.Qpo.local_ms m.total_ms
