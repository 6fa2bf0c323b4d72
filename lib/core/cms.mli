(** The Cache Management System, as a component (paper §3/§5).

    Wires the Query Planner/Optimizer, Advice Manager, Cache Manager and
    Remote DBMS Interface together and exposes the IE–CMS interface: a
    session begins with a set of advice and is followed by a sequence of
    CAQL queries whose results are returned as streams.

    "The CMS may be used by systems other than the one described here"
    (§3) — nothing in this interface assumes the caller is the IE. *)

type t

val create :
  ?config:Braid_planner.Qpo.config ->
  ?capacity_bytes:int ->
  ?rdi_policy:Braid_remote.Rdi.policy ->
  ?router:Braid_remote.Shard_router.t ->
  ?maintain:bool ->
  Braid_remote.Server.t ->
  t
(** [config] defaults to {!Braid_planner.Qpo.braid_config};
    [capacity_bytes] defaults to 8 MiB of cache; [rdi_policy] configures
    the resilient Remote DBMS Interface (retries, backoff, breaker).
    Every fetch and write goes through one
    {!Braid_remote.Shard_router}: [router] when given (sharded or
    replicated, with the server as its coordinator and catalog
    authority), otherwise a one-shard, one-replica router whose only
    replica is the server itself, built fresh here.
    [maintain] (default [false]) turns on incremental view maintenance:
    every write through the router — {!apply_insert}/{!apply_delete}
    included — delta-propagates into dependent cache elements via
    {!Braid_cache.Maintain} instead of stale-marking them (see
    docs/CONSISTENCY.md). *)

val qpo : t -> Braid_planner.Qpo.t
val cache : t -> Braid_cache.Cache_manager.t
val server : t -> Braid_remote.Server.t
(** The router's coordinator. *)

val router : t -> Braid_remote.Shard_router.t
(** The router every remote request and write goes through. *)

val rdi_stats : t -> Braid_remote.Rdi.stats
(** RDI accounting on the fetch path ({!Braid_remote.Shard_router.rdi_stats}). *)

val exec_remote : t -> Braid_remote.Sql.select -> Braid_remote.Rdi.outcome
(** One resilient remote request through the router, bypassing any
    installed fetcher hook. *)

val begin_session : t -> Braid_advice.Ast.t -> unit
(** Submit the session's advice (view specifications + path expression)
    — single-client shorthand for the planner's default session. *)

val new_session : t -> ?sid:string -> Braid_advice.Ast.t -> Braid_planner.Qpo.session
(** Opens an independent client session over the shared CMS: its own
    advice epoch and path tracking, while the cache, journal, and RDI
    breaker stay shared (see {!Braid_planner.Qpo.new_session}). *)

val set_fetcher :
  t ->
  (Braid_caql.Ast.conj -> Braid_remote.Sql.select -> Braid_remote.Rdi.outcome) option ->
  unit
(** Remote-fetch interceptor pass-through (see
    {!Braid_planner.Qpo.set_fetcher}) — the serving layer's coalescer
    attaches here. *)

val query :
  t ->
  ?session:Braid_planner.Qpo.session ->
  ?spec_id:string ->
  ?prefer_lazy:bool ->
  Braid_caql.Ast.conj ->
  Braid_planner.Qpo.answer
(** One CAQL query; the result is a stream (lazy when possible and
    requested). [session] selects the client session the answer's advice
    tracking is attributed to. *)

val query_full :
  t ->
  ?session:Braid_planner.Qpo.session ->
  Braid_caql.Ast.t ->
  Braid_relalg.Relation.t * Braid_planner.Plan.t
(** Full CAQL including union, difference and aggregation — operations the
    remote DBMS does not support and the CMS evaluates itself. *)

val query_text : t -> string -> Braid_relalg.Relation.t * Braid_planner.Plan.t
(** {!query_full} of {!Braid_caql.Parser.parse_query}. *)

val invalidate_table : t -> ?mode:[ `Drop | `Mark_stale ] -> string -> string list
(** Invalidate every cache element that depends on the named remote table;
    returns the affected element ids. Call after the table changes.
    [`Drop] (the default) removes the elements; [`Mark_stale] keeps them
    but flags them, so queries can still be answered — degraded — while
    the remote is unreachable. *)

val apply_insert : t -> string -> Braid_relalg.Tuple.t -> unit
(** One single-tuple insert on the write path: applied to the remote
    through {!Braid_remote.Shard_router.insert}, then propagated into the
    cache — delta-maintained when [maintain] is on, [`Mark_stale] of
    dependents otherwise. *)

val apply_delete : t -> string -> Braid_relalg.Tuple.t -> bool
(** One single-tuple delete on the write path (bag semantics: one
    occurrence). When the remote held the tuple: delta-maintained when
    [maintain] is on, otherwise dependents are {e dropped} — a stale
    element is only an honest subset under insert-only writes, so deletes
    cannot stale-mark (see docs/CONSISTENCY.md). [false] when the tuple
    was absent (nothing changes anywhere). *)

val delta_totals : t -> Braid_cache.Maintain.report
(** Cumulative delta-maintenance outcomes since creation (or the last
    {!reset_delta_totals}): elements maintained, fallbacks, drops, rows
    added/removed. All zeros when [maintain] is off. *)

val reset_delta_totals : t -> unit

val journal : t -> Braid_cache.Journal.t
(** The cache's write-ahead log — the durable artifact a simulated crash
    leaves behind. *)

val checkpoint : t -> int
(** Writes a cache checkpoint to the journal and returns the new epoch;
    the journal drops everything before it, and replay after a crash
    starts from it. The cache also checkpoints itself (see
    {!Braid_cache.Cache_manager.checkpoint}). *)

type recovery_report = {
  recovered : string list;  (** element ids restored by replay, in order *)
  dropped : string list;  (** recovered but failed re-validation; removed *)
  epoch : int;  (** checkpoint epoch the replay started from *)
  replayed : int;  (** number of elements the replay produced *)
}

(** Rebuilds a CMS from a surviving journal after a
    {!Braid_remote.Fault.Crash}: replays the log from the latest
    checkpoint into a fresh cache model (extensions by shared reference),
    re-validates every recovered element with [validate] (dropping — and
    journaling the drop of — any failure), and wires a new QPO over the
    recovered cache. Without [router], the new QPO's single-server router
    is new too, so breaker and jitter state restart with the process. The
    recovered CMS keeps writing the same journal, and checkpoints itself
    at the same points. *)
val recover :
  ?config:Braid_planner.Qpo.config ->
  ?capacity_bytes:int ->
  ?rdi_policy:Braid_remote.Rdi.policy ->
  ?router:Braid_remote.Shard_router.t ->
  ?maintain:bool ->
  ?validate:(Braid_cache.Element.t -> bool) ->
  journal:Braid_cache.Journal.t ->
  Braid_remote.Server.t ->
  t * recovery_report

val cache_summary : t -> Braid_cache.Cache_model.summary
val metrics : t -> Braid_planner.Qpo.metrics
val remote_stats : t -> Braid_remote.Server.stats
(** Remote-side accounting on the fetch path
    ({!Braid_remote.Shard_router.stats}). *)

val set_observer :
  t ->
  (Braid_caql.Ast.conj ->
  Braid_planner.Plan.provenance ->
  Braid_relalg.Relation.t ->
  unit)
  option ->
  unit
(** Answer observer pass-through (see {!Braid_planner.Qpo.set_observer}) —
    the consistency oracle attaches here. *)
