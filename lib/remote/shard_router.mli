(** Scatter-gather router over a partitioned, replicated fleet of remote
    servers.

    The ROADMAP's scale-out step: instead of one {!Server} absorbing every
    fetch, the remote is split into [N] shards, each held by a {e replica
    group} of [R] full {!Server}s — the primary plus [R - 1] backups, each
    with its own fault injector and its own {!Rdi} policy instance
    (independent circuit breaker, decorrelated jitter seed). A sick shard
    degrades only its slice of the data, and with [R >= 2] a sick {e copy}
    costs a failover, not freshness.

    The {e coordinator} server passed to {!create} keeps the complete data
    set and stays the catalog/statistics authority, the consistency
    oracle's ground truth, and the recovery source. All query traffic goes
    through {!exec}, which routes per the {!Catalog.partitioning}
    metadata:

    - {b pinned}: a single-source fetch whose WHERE clause pins the
      partition key to a constant (or whose semi-join filter maps to one
      shard), an unpartitioned table's home shard, or a multi-source fetch
      whose sources all resolve to the same shard — exactly one shard is
      charged;
    - {b fan-out}: everything else over one source, and joins whose
      partition keys the query equates (co-partitioned, shard-local) —
      scatter to the relevant shards, union the slices in shard order,
      re-[DISTINCT] when the request asked for it;
    - {b gather}: a join the shards cannot answer locally — fetch each
      source's slices with source-local predicates and semi-join filters
      pushed down, then run the residual join on a scratch engine at the
      router (its scan work reported in [counters.gather_scanned]).

    {2 The single server}

    A one-shard, one-replica router is the unsharded remote: its only
    replica {e is} the coordinator. A group whose only copy is the
    coordinator gets no slice or snapshot and keeps no replication log,
    and a single replica's {!stats}/{!rdi_stats} are its own.

    {2 Replication}

    Placement is {!Catalog.replica_node}: replica [r] of shard [s] lives
    on node [(s + r) mod shards], pure arithmetic, identical on every run.
    Writes ({!insert}) go to the coordinator and append to the owning
    shard's {e replication log}; each replica applies the entry inline only
    when reachable and already at the log head — otherwise the write is
    {e hinted} (queued in the log) and handed off when {!tick_repair}
    replays the log from the replica's applied offset (the cache WAL's
    checkpoint-and-replay idiom; {!crash_replica} rebuilds a dead replica
    the same way).

    Reads are offered to replicas most-caught-up-first (primary ahead on
    ties); the first successful execution wins. A fully caught-up copy
    serves Fresh, a lagging one is downgraded to an honestly-[Stale] answer
    ([Rdi.Replica_lag] — inserts are append-only, so its data is a subset
    of the truth), and a serve by anyone but the primary counts as a
    failover ([shard.replica.failovers]). Only total replica loss fails the
    read; old data is the CMS's stale elements, not the router's.

    Outcome merging is degradation-aware: all slices Fresh ⇒ Fresh; any
    slice degraded or missing ⇒ [Stale] (the merged subset — compatible
    with the oracle's subset rule); nothing at all ⇒ [Failed].
    {!Fault.Injected}[ Crash] propagates unhandled, as with a single RDI.

    Everything stays deterministic: {!Catalog.shard_of_value} is seed-free,
    per-replica RDI seeds are fixed offsets of the base policy seed,
    merges happen in shard order, and injectors installed through the
    router share one {!Fault.clock} so partitions heal on system-wide
    request progress — the E16/E17 counters in BENCH_relalg.json are
    byte-identical across runs. An [R = 1] router behaves bit-for-bit like
    the pre-replication one. *)

type t

(** A single-tuple write as carried by the replication log and reported to
    the write observer ({!set_write_observer}). *)
type write =
  | W_insert of string * Braid_relalg.Tuple.t
  | W_delete of string * Braid_relalg.Tuple.t

(** How {!exec} will place one request. *)
type route =
  | Pinned of { shard : int; reason : [ `Key | `Home | `Colocated ] }
  | Fanout of int list
  | Gather of (Sql.source * int list) list
      (** per-source shard targets for a router-side join *)

(** Routing and replication decisions since {!create}. Only this module
    writes it. *)
type counters = private {
  mutable requests : int;
  mutable pinned : int;  (** requests answered by exactly one shard *)
  mutable fanouts : int;
  mutable gathers : int;
  mutable shards_touched : int;  (** sum over requests of shards contacted *)
  mutable shards_pruned : int;  (** sum over requests of shards skipped *)
  mutable gather_scanned : int;  (** tuples the router's own residual joins scanned *)
  mutable failovers : int;  (** reads served by a backup instead of the primary *)
  mutable hinted_writes : int;  (** log entries a replica missed at write time *)
  mutable handoffs : int;  (** hinted entries delivered by anti-entropy repair *)
  mutable repairs : int;  (** repair runs that caught a lagging replica up *)
}

(** One replica's health, as [:shards] displays it. *)
type replica_health = {
  rh_replica : int;  (** replica index within the group; 0 = primary *)
  rh_node : int;  (** hosting node per {!Catalog.replica_node} *)
  rh_lag : int;  (** replication-log entries behind the head *)
  rh_partitioned : bool;  (** severed right now ({!Server.partitioned}) *)
  rh_breaker : Rdi.breaker_state;
  rh_hints : int;  (** writes queued for it since its last repair *)
}

val create : ?policy:Rdi.policy -> ?replicas:int -> shards:int -> Server.t -> t
(** Stands up [shards] replica groups of [replicas] servers each (sharing
    the coordinator's cost model) and slices every table currently loaded
    on the coordinator across them per its {!Catalog.partitioning};
    unpartitioned tables live whole on a deterministic home shard; at
    1×1 the only replica is the coordinator and nothing is copied. Each
    replica's RDI runs [policy] (default {!Rdi.default_policy}) with a
    per-replica seed offset. [replicas] defaults to the catalog's recorded
    {!Catalog.replication} (and records it when given). Raises
    [Invalid_argument] when [shards < 1] or [replicas < 1]. *)

val coordinator : t -> Server.t
val catalog : t -> Catalog.t
val cost_model : t -> Cost_model.t
val shard_count : t -> int

val replica_count : t -> int
(** Replicas per shard ([R]); 1 = unreplicated. *)

val shard : t -> int -> Server.t
(** The i-th shard's {e primary} server (fault injection, per-shard stats). *)

val rdi : t -> int -> Rdi.t
(** The i-th shard's primary RDI. *)

val replica : t -> shard:int -> int -> Server.t
(** [replica t ~shard r] — replica [r]'s server (0 = primary). *)

val replica_rdi : t -> shard:int -> int -> Rdi.t
(** Replica [r]'s RDI (0 = primary, the one {!rdi} returns). *)

val breakers : t -> Rdi.breaker_state list
(** Primary breaker per shard, in shard order. *)

val log_length : t -> int -> int
(** Length of shard [i]'s replication log (entries since the last
    distribute). *)

val applied : t -> shard:int -> replica:int -> int
(** The replica's applied replication-log offset; [log_length - applied]
    is its lag. *)

val replica_health : t -> int -> replica_health list
(** Shard [i]'s replicas, primary first. Passive — no clock advance. *)

val replica_choice : t -> int -> int * string
(** The replica a read of shard [i] would be offered to first, and why
    (["primary"], ["primary lags n"], ["primary breaker open"]...). Pure —
    no execution, no counters; [:explain] prints it. The dynamic path can
    still move past the choice when its attempt fails. *)

val home : t -> string -> int
(** The home shard of an unpartitioned table (hash of its name). *)

val owner_of_row : t -> string -> Braid_relalg.Tuple.t -> int

val load : t -> ?partitioning:Catalog.partitioning -> Braid_relalg.Relation.t -> unit
(** Loads (or replaces) the table on the coordinator, records
    [partitioning] when given, and (re)distributes the slices. *)

val insert : t -> string -> Braid_relalg.Tuple.t -> unit
(** Inserts into the coordinator (catalog authority), appends to the owning
    shard's replication log, and applies the entry inline on every replica
    that is reachable and caught up — anyone else gets it as a hinted
    write, delivered by {!tick_repair}. Costs one reachability heartbeat
    per replica. Fires the write observer once. *)

val delete : t -> string -> Braid_relalg.Tuple.t -> bool
(** Removes one occurrence of the tuple from the coordinator and, when it
    was present, replicates the delete through the owning shard's log
    exactly like {!insert} (inline apply or hint) and fires the write
    observer. [false] — and no log entry, no observation — when the
    coordinator does not hold the tuple. *)

val set_write_observer : t -> (write -> unit) option -> unit
(** Installs (or clears) the write-stream tap: called exactly once per
    logical write accepted by the coordinator, {e after} the write is
    applied and replicated. Replication-log re-applies (inline replica
    apply, anti-entropy repair, crash rebuild) are re-executions of the
    same logical write and do not fire it. The CMS hooks incremental cache
    maintenance here ({!Braid_cache.Maintain}). *)

val route : t -> Sql.select -> route
(** The routing decision alone — pure, no execution, no counters. *)

val route_to_string : route -> string

val exec : t -> Sql.select -> Rdi.outcome
(** One routed request (see the routing/merging/replica-serving rules
    above). Emits a [shard.route] span holding one [shard.read] span
    (arguments [shard], [replica]) per replica offered the read — the
    copy's [rdi.exec] nests inside it — plus [shard.fanout] instants,
    [shard.replica.failover] instants, and [shard.*] metrics. *)

val tick_repair : ?max_lag:int -> t -> int
(** One anti-entropy round: every reachable replica whose lag exceeds
    [max_lag] (default 0) replays the replication log from its applied
    offset to the head, draining its hinted writes. Returns the number of
    replicas repaired. Emits [shard.replica.repair] spans and bumps the
    [repairs]/[handoffs] counters. The serving soak ticks this every
    wave — the lag bound of steady-state operation. *)

val crash_replica : t -> shard:int -> replica:int -> unit
(** Crash-and-recover one replica: its in-memory engine is lost and
    rebuilt from durable state — the base slice snapshots plus the
    replication-log prefix below its [applied] offset (checkpoint +
    replay, the cache WAL idiom). Breaker and jitter state restart with
    the process; the fault profile persists (it models the environment).
    The replica rejoins lagging; {!tick_repair} catches it up. The
    coordinator, as a replica, keeps its data: only its RDI restarts. *)

val set_faults : t -> shard:int -> Fault.config option -> unit
(** Fault profile for the shard's {e primary} — the one-shard-down
    experiments poison a single copy and watch reads fail over. The
    config is wired to the router's shared {!Fault.clock} when it carries
    none. *)

val set_replica_faults : t -> shard:int -> replica:int -> Fault.config option -> unit
(** Per-replica fault profile (chaos runs sever exactly one copy). Also
    wired to the shared clock. *)

val set_policy : t -> Rdi.policy -> unit
(** Re-seeds every replica's RDI with its per-replica offset of [policy]. *)

val stats : t -> Server.stats
(** {!Server.sum} over every replica server; a single replica's own
    stats. The coordinator counts only when it is that replica. *)

val shard_stats : t -> Server.stats list
(** Per-shard {e primary} stats, in shard order. *)

val rdi_stats : t -> Rdi.stats
(** {!Rdi.sum} over every replica's RDI; a single replica's own stats. *)

val counters : t -> counters
(** A snapshot: later requests do not change it. *)
