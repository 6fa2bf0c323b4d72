(** The randomized consistency soak: N sessions over one shared CMS,
    interleaved by the deterministic {!Scheduler} under flaky faults and a
    small cache, with eager and lazy answers, hot-session bursts
    (exercising admission-control shedding), concurrent
    inserts/invalidations, periodic checkpoints and one mid-run crash +
    recovery. [sessions = 1] is the single-session soak: one IE session
    driving the CMS.

    Every answer — planner-executed or load-shed to a cache substitute —
    is diffed against fault-free ground truth by the
    {!Braid_check.Oracle}, attributed to the session that received it.
    Recovery must rebuild a byte-identical cache model from the shared
    journal (whose entries carry session ids). The whole run is a
    deterministic function of [seed]: same seed, byte-identical
    {!report_to_string}. *)

type divergence = { wave : int; sid : string; detail : string }

(** End-of-run health of one replica of a shard. *)
type replica_report = {
  rr_replica : int;  (** 0 = primary *)
  rr_node : int;  (** placement node id (see {!Braid_remote.Catalog.replica_nodes}) *)
  rr_lag : int;  (** replication-log entries not yet applied *)
  rr_hints : int;  (** hinted writes still queued for it *)
  rr_partitioned : bool;
  rr_breaker : string;
  rr_log : string list;
      (** the SQL texts this replica served — the chaos CI leg writes one
          journal file per replica from these on failure *)
}

(** End-of-run accounting for one shard of a sharded soak. *)
type shard_report = {
  shard : int;
  sh_requests : int;  (** server requests this shard's primary absorbed *)
  sh_scanned : int;  (** tuples its executor scanned *)
  sh_failures : int;  (** RDI requests that exhausted retries here *)
  sh_stale_serves : int;  (** degraded answers served for this shard *)
  sh_breaker : string;  (** final primary breaker state: closed/open/half-open *)
  sh_log : string list;
      (** the SQL texts this shard's primary served (oldest first) — the
          serve-soak CI job writes one journal file per shard from these and
          uploads them as artifacts on failure; deliberately not part of
          {!report_to_string} (the rendered report stays compact) *)
  sh_replicas : replica_report list;  (** [] when [replicas = 1] *)
}

type session_report = {
  sid : string;
  submitted : int;
  answered : int;
  shed : int;
  fresh : int;
  degraded : int;
  p95_ms : float;  (** simulated per-query elapsed, surviving the crash *)
}

type report = {
  seed : int;
  sessions : int;
  waves : int;
  shards : int;  (** 1 = single-server remote (the default path) *)
  replicas : int;  (** copies per shard; 1 = unreplicated *)
  write_heavy : bool;  (** maintenance-on profile: write bursts, incl. deletes *)
  recursive : bool;  (** goal jobs solved by the set-oriented IE tier *)
  submitted : int;
  answered : int;
  shed : int;
  lost : int;  (** queued in the dead scheduler when the crash hit *)
  fresh : int;
  degraded : int;
  lazy_answers : int;
      (** answers the planner served as lazy generators, across crash
          incarnations *)
  inserts : int;
  deletes : int;  (** write-heavy profile only; 0 otherwise *)
  drops : int;
  stale_marks : int;
  delta_maintained : int;
      (** elements kept Fresh by delta propagation, across crash incarnations *)
  delta_fallbacks : int;  (** dependents that fell back to stale-mark/drop *)
  delta_dropped : int;  (** dependents dropped on a delete fallback *)
  delta_rows_added : int;
  delta_rows_removed : int;
  checkpoints : int;
  goal_submitted : int;  (** recursive profile only; 0 otherwise *)
  goal_answered : int;
  goal_shed : int;
  goal_solutions : int;  (** fixpoint tuples across all goal answers *)
  goal_complete : int;
      (** goal answers set-equal to current ground truth (the rest are
          honest subsets — degraded fetches under monotone rules) *)
  goal_rounds : int;  (** ie.set.rounds accumulated by goal jobs *)
  goal_fetches : int;  (** ie.set.fetches — conjunctive fetches issued *)
  coalesce_requests : int;
  coalesce_identical : int;
  coalesce_subsumed : int;
  coalesce_misses : int;
  remote_requests : int;  (** RDI requests across crash incarnations *)
  elapsed_ms : float;  (** simulated wall-clock across incarnations *)
  crash_wave : int option;
  elements_at_crash : int;
  recovered_elements : int;
  dropped_on_recovery : int;
  revalidation_failures : int;
  recovery_mismatch : string option;
  divergences : divergence list;
  per_session : session_report list;
  route_pinned : int;  (** requests the router pinned to exactly one shard *)
  route_fanouts : int;
  route_gathers : int;
  shards_pruned : int;  (** shard-scans partition pruning avoided *)
  failovers : int;  (** replicated-shard reads served by a backup *)
  hinted_writes : int;  (** writes queued for an unreachable/lagging replica *)
  handoffs : int;  (** hinted writes delivered by anti-entropy repair *)
  repairs : int;  (** anti-entropy log replays *)
  partition_wave : int option;  (** chaos: the wave the primary was severed *)
  heal_wave : int option;  (** chaos: first wave the partition was seen healed *)
  stale_after_heal : int;
      (** RDI stale serves recorded after heal + the first post-heal repair
          round — the chaos gate requires 0 *)
  end_max_lag : int;  (** worst replica lag at the end — 0 once repair caught up *)
  per_shard : shard_report list;  (** [] when the remote is a single server *)
  journal_entries : int;
  journal_epoch : int;
  journal_dump : string list;
}

val failures : report -> string list
(** Every gate the run violated, one message each; [[]] for a passing
    run. Always: no oracle divergence, byte-identical recovery, every
    recovered element re-validated, every replica repaired back to the
    log head. Per profile, derived from the report: with more than one
    session (and neither chaos nor write-heavy) — at least one coalesce
    hit; write-heavy — elements delta-maintained, delta rows added,
    deletes issued; recursive — goals answered through multi-round
    fixpoints and set-oriented fetches, at least one complete (a goal
    answer with a tuple outside ground truth is a divergence); chaos (a
    primary was severed) — failovers, hinted writes and handoffs
    happened, the partition healed, and nothing served stale after heal
    + repair. *)

val run :
  ?crash:bool ->
  ?shards:int ->
  ?replicas:int ->
  ?chaos:bool ->
  ?write_heavy:bool ->
  ?recursive:bool ->
  sessions:int ->
  seed:int ->
  waves:int ->
  unit ->
  report
(** The link is flaky at a 0.35 transient/disconnect/timeout rate,
    admission follows {!Admission.default_policy}, and [crash] (default
    true) arms one crash at a seeded wave in the middle third of the run.
    Each wave: every session may submit from the overlapping {!Workload}
    family (one hot view shared across sessions; a quarter of the jobs ask
    for a lazy answer), the first session occasionally bursts past its
    admission cap, a mutation may hit a base table, then one scheduler
    wave executes.

    [shards] (default 1 — the single-server path, untouched) > 1 runs the
    soak over a {!Braid_remote.Shard_router}: the workload tables are
    hash-partitioned per {!Workload.partition_keys}, each replica gets its
    own brownout fault profile (per-shard and per-replica seed offsets)
    and RDI instance, inserts route to the owning shard, and the crash
    arms every injector. The report gains routing counters and per-shard
    lines.

    [replicas] (default 1) > 1 keeps that many copies of every shard
    behind the router — reads fail over, writes hint, and one
    anti-entropy repair round runs after every wave.

    [chaos] (default false; requires [replicas >= 2], forces [crash]
    off and makes the link fault-free) severs shard 0's primary at wave
    [waves/3] with a {!Braid_remote.Fault.severed} profile healing after
    150 system-wide requests on the router's shared fault clock. The
    report records partition/heal waves, stale serves after heal and the
    end-of-run lag.

    [write_heavy] (default false; requires the single-server remote —
    see docs/CONSISTENCY.md on deletes under replication lag) creates the
    CMS with [~maintain:true] and replaces the occasional insert with a
    per-wave burst of {!Workload.gen_write} inserts {e and deletes}:
    dependent cache elements are delta-maintained instead of invalidated,
    every answer still oracle-checked, and the crash replays the
    journaled deltas byte-identically. The report gains the [delta_*]
    counters.

    [recursive] (default false; excludes [write_heavy]) installs a
    set-oriented inference engine on the scheduler over
    {!Workload.recursive_kb} and has sessions pose [zreach] goals
    alongside their CAQL jobs: each goal is one magic-set fixpoint whose
    conjunctive base fetches flow through the shared cache, the wave's
    coalescer window and the journal, under the same faults and crash.
    Every goal answer is diffed against a fault-free fixpoint over the
    coordinator's current tables: extras are divergences (monotone rules
    + insert-only staleness mean a degraded answer may only miss
    tuples). The report gains the [goal_*] counters. *)

val report_to_string : report -> string
(** Deterministic rendering — byte-identical across runs for a seed. *)
