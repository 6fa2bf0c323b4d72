module Qpo = Braid_planner.Qpo
module CMgr = Braid_cache.Cache_manager
module Journal = Braid_cache.Journal
module Maintain = Braid_cache.Maintain
module Server = Braid_remote.Server
module Router = Braid_remote.Shard_router

type t = {
  qpo : Qpo.t;
  cache : CMgr.t;
  server : Server.t;
  maintain : bool;
  mutable delta_totals : Maintain.report;
}

let add_report (a : Maintain.report) (b : Maintain.report) =
  {
    Maintain.maintained = a.Maintain.maintained + b.Maintain.maintained;
    fallbacks = a.Maintain.fallbacks + b.Maintain.fallbacks;
    dropped = a.Maintain.dropped + b.Maintain.dropped;
    rows_added = a.Maintain.rows_added + b.Maintain.rows_added;
    rows_removed = a.Maintain.rows_removed + b.Maintain.rows_removed;
  }

let schema_of t = Braid_remote.Catalog.schema_of (Server.catalog t.server)

let note_write t w =
  let r = Maintain.on_write t.cache ~schema_of:(schema_of t) w in
  t.delta_totals <- add_report t.delta_totals r

(* With a router, maintenance taps its write stream so writes issued
   directly against the router (not through [apply_insert]) are propagated
   too; replication-log re-applies do not re-fire (see
   {!Braid_remote.Shard_router.set_write_observer}). *)
let wire_maintenance t =
  if t.maintain then
    match Qpo.router t.qpo with
    | Some r ->
      Router.set_write_observer r
        (Some
           (function
             | Router.W_insert (name, tup) -> note_write t (Maintain.Insert (name, tup))
             | Router.W_delete (name, tup) -> note_write t (Maintain.Delete (name, tup))))
    | None -> ()

let create ?(config = Qpo.braid_config) ?(capacity_bytes = 8 * 1024 * 1024) ?rdi_policy
    ?router ?(maintain = false) server =
  let cache = CMgr.create ~capacity_bytes () in
  let t =
    {
      qpo = Qpo.create ?rdi_policy ?router config ~cache ~server;
      cache;
      server;
      maintain;
      delta_totals = Maintain.empty_report;
    }
  in
  wire_maintenance t;
  t

let qpo t = t.qpo
let cache t = t.cache
let server t = t.server
let rdi t = Qpo.rdi t.qpo
let router t = Qpo.router t.qpo
let rdi_stats t = Qpo.rdi_stats t.qpo
let exec_remote t sql = Qpo.exec_remote t.qpo sql

let begin_session t advice = Qpo.set_advice t.qpo advice

let new_session t ?sid advice = Qpo.new_session t.qpo ?sid advice
let set_fetcher t f = Qpo.set_fetcher t.qpo f

let query t ?session ?spec_id ?prefer_lazy q =
  Qpo.answer_conj t.qpo ?session ?spec_id ?prefer_lazy q

let query_full t ?session q = Qpo.answer_query t.qpo ?session q

let query_text t text = query_full t (Braid_caql.Parser.parse_query text)

let invalidate_table t ?(mode = `Drop) name =
  match mode with
  | `Drop -> CMgr.invalidate_pred t.cache name
  | `Mark_stale -> CMgr.mark_stale_pred t.cache name

(* --- the write path --- *)

let delta_totals t = t.delta_totals
let reset_delta_totals t = t.delta_totals <- Maintain.empty_report

let apply_insert t name tup =
  match Qpo.router t.qpo with
  | Some r ->
    Router.insert r name tup;
    (* maintenance (when on) ran via the router's write observer *)
    if not t.maintain then ignore (CMgr.mark_stale_pred t.cache name)
  | None ->
    Braid_remote.Engine.insert (Server.engine t.server) name tup;
    if t.maintain then note_write t (Maintain.Insert (name, tup))
    else ignore (CMgr.mark_stale_pred t.cache name)

let apply_delete t name tup =
  match Qpo.router t.qpo with
  | Some r ->
    let removed = Router.delete r name tup in
    if removed && not t.maintain then ignore (CMgr.invalidate_pred t.cache name);
    removed
  | None ->
    let removed = Braid_remote.Engine.delete (Server.engine t.server) name tup in
    if removed then begin
      if t.maintain then note_write t (Maintain.Delete (name, tup))
      else ignore (CMgr.invalidate_pred t.cache name)
    end;
    removed

(* --- crash consistency --- *)

let journal t = CMgr.journal t.cache
let checkpoint t = CMgr.checkpoint t.cache

type recovery_report = {
  recovered : string list;
  dropped : string list;
  epoch : int;
  replayed : int;
}

let recover ?(config = Qpo.braid_config) ?(capacity_bytes = 8 * 1024 * 1024) ?rdi_policy
    ?router ?(maintain = false) ?(validate = fun _ -> true) ~journal:jnl server =
  let model = Journal.replay ~capacity_bytes jnl in
  let recovered =
    List.map (fun (e : Braid_cache.Element.t) -> e.Braid_cache.Element.id)
      (Braid_cache.Cache_model.elements model)
  in
  (* Re-validate every recovered element before reuse; failures are dropped
     and the drop is journaled so a second replay stays consistent. *)
  let dropped =
    List.filter_map
      (fun (e : Braid_cache.Element.t) ->
        if validate e then None else Some e.Braid_cache.Element.id)
      (Braid_cache.Cache_model.elements model)
  in
  List.iter
    (fun id ->
      Journal.log_remove jnl ~id ~pred:"(recovery-validation)";
      Braid_cache.Cache_model.remove model id)
    dropped;
  let cache = CMgr.create ~journal:jnl ~model ~capacity_bytes () in
  let t =
    {
      qpo = Qpo.create ?rdi_policy ?router config ~cache ~server;
      cache;
      server;
      maintain;
      delta_totals = Maintain.empty_report;
    }
  in
  wire_maintenance t;
  ( t,
    {
      recovered;
      dropped;
      epoch = Journal.epoch jnl;
      replayed = List.length recovered;
    } )

let cache_summary t = Braid_cache.Cache_model.summary (CMgr.model t.cache)
let metrics t = Qpo.metrics t.qpo
let remote_stats t = Qpo.remote_stats t.qpo

let set_observer t f = Qpo.set_observer t.qpo f
