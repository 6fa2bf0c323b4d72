(** The randomized consistency soak: N sessions over one shared CMS,
    interleaved by the deterministic {!Scheduler} under flaky faults and a
    small cache, with eager and lazy answers, hot-session bursts
    (exercising admission-control shedding), concurrent
    inserts/invalidations, periodic checkpoints and one mid-run crash +
    recovery. One session is the single-session soak: one IE session
    driving the CMS.

    Every answer — planner-executed or load-shed to a cache substitute —
    is diffed against fault-free ground truth by the
    {!Braid_check.Oracle}, attributed to the session that received it.
    Recovery must rebuild a byte-identical cache model from the shared
    journal (whose entries carry session ids). The whole run is a
    deterministic function of its {!profile}, [seed] and [waves]: same
    inputs, byte-identical {!report_to_string}.

    The report keeps counts only. The per-request record of a run — which
    copy was asked for what, with every retry, trip and failure — is
    the span trace of the run under an installed tracer ([bench --serve
    LEG --trace PATH]): each replica read is a [shard.read] span naming
    its shard and replica (docs/OBSERVABILITY.md). *)

(** What goes wrong during the run. *)
type faults =
  | Flaky_crash
      (** the flaky link (a 0.35 transient/disconnect/timeout rate) plus
          one CMS crash + recovery at a seeded wave in the middle third
          of the run *)
  | Flaky  (** the flaky link only — no crash *)
  | Partition
      (** a fault-free link except that shard 0's primary is severed at
          wave [waves/3] with a {!Braid_remote.Fault.severed} profile
          healing after 150 system-wide requests on the router's shared
          fault clock; no crash. The report records partition/heal waves,
          failed requests after heal and the end-of-run lag. *)

(** What the sessions do each wave, besides their CAQL reads. *)
type mix =
  | Reads  (** an occasional insert that invalidates or stale-marks *)
  | Write_heavy
      (** the CMS runs with [~maintain:true] and a per-wave burst of
          {!Workload.gen_write} inserts {e and deletes} replaces the
          occasional insert: dependent cache elements are delta-maintained
          instead of invalidated, every answer is still oracle-checked,
          and the crash replays the journaled deltas byte-identically *)
  | Recursive
      (** a set-oriented inference engine over {!Workload.recursive_kb}
          is installed on the scheduler and sessions pose [zreach] goals
          alongside their CAQL jobs: each goal is one magic-set fixpoint
          whose conjunctive base fetches flow through the shared cache,
          the wave's coalescer window and the journal, under the same
          faults. Every goal answer is diffed against a fault-free
          fixpoint over the coordinator's current tables: extras are
          divergences (monotone rules + insert-only staleness mean a
          degraded answer may only miss tuples). *)

(** One soak configuration. The mix and the fault plan are each one
    value, so two pairings nobody has given a meaning cannot be asked
    for: recursive goals under write bursts (the goal-soundness gate
    leans on monotone rules plus insert-only staleness, which deletes
    break) and a partition plus a crash (recovery's fault reset would
    also wipe the partition mid-heal). *)
type profile = {
  sessions : int;  (** >= 1 *)
  shards : int;
      (** 1 = the single-server remote. More runs the soak over a
          {!Braid_remote.Shard_router}: the workload tables are
          hash-partitioned per {!Workload.partition_keys}, each replica
          gets its own brownout fault profile (per-shard and per-replica
          seed offsets) and RDI instance, inserts route to the owning
          shard, and the crash arms every injector. The report gains
          routing counters and per-shard lines. *)
  replicas : int;
      (** copies per shard; 1 = unreplicated. More keeps that many copies
          of every shard behind the router — reads fail over, writes
          hint, and one anti-entropy repair round runs after every wave. *)
  faults : faults;
  mix : mix;
}

val legs : (string * profile) list
(** The CI serve-soak legs by name: ["single-session"] (1 session),
    ["multi-session"] (8), ["sharded"] (8 over 4 shards), ["chaos"] (6
    over 4 shards x 2 replicas, [Partition]), ["write-heavy"] (8,
    [Write_heavy]) and ["recursive"] (6, [Recursive]). Every leg but
    chaos runs [Flaky_crash]. The bench CLI's [--serve LEG], the
    tier-1 tests and experiments E14/E16 all start from these values. *)

type divergence = { wave : int; sid : string; detail : string }

(** End-of-run accounting for one shard of a sharded soak. *)
type shard_report = {
  shard : int;
  sh_server : Braid_remote.Server.stats;  (** the shard primary's server *)
  sh_rdi : Braid_remote.Rdi.stats;  (** the shard's RDI *)
  sh_breaker : Braid_remote.Rdi.breaker_state;  (** final primary breaker state *)
  sh_replicas : Braid_remote.Shard_router.replica_health list;
      (** end-of-run health of each copy; [] when [replicas = 1] *)
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
  profile : profile;
  seed : int;
  waves : int;
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
  deletes : int;  (** [Write_heavy] mix only; 0 otherwise *)
  drops : int;
  stale_marks : int;
  deltas : Braid_cache.Maintain.report;
      (** delta propagation totals across crash incarnations —
          [Write_heavy] only *)
  checkpoints : int;
  goal_submitted : int;  (** [Recursive] mix only; 0 otherwise *)
  goal_answered : int;
  goal_shed : int;
  goal_solutions : int;  (** fixpoint tuples across all goal answers *)
  goal_complete : int;
      (** goal answers set-equal to current ground truth (the rest are
          honest subsets — degraded fetches under monotone rules) *)
  goal_rounds : int;  (** ie.set.rounds accumulated by goal jobs *)
  goal_fetches : int;  (** ie.set.fetches — conjunctive fetches issued *)
  coalesce : Coalescer.stats;  (** across crash incarnations *)
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
  route : Braid_remote.Shard_router.counters option;
      (** routing and replication counters; [None] for the single-server
          remote *)
  partition_wave : int option;  (** chaos: the wave the primary was severed *)
  heal_wave : int option;  (** chaos: first wave the partition was seen healed *)
  failed_after_heal : int;
      (** replica RDI failures plus fast-fails recorded after heal + the
          first post-heal repair round — the chaos gate requires 0 *)
  end_max_lag : int;  (** worst replica lag at the end — 0 once repair caught up *)
  per_shard : shard_report list;  (** [] when the remote is a single server *)
  journal_entries : int;  (** entries since the last checkpoint *)
  journal_epoch : int;
  journal_dump : string list;  (** those entries, oldest first *)
}

val failures : report -> string list
(** Every gate the run violated, one message each; [[]] for a passing
    run. Always: no oracle divergence, byte-identical recovery, every
    recovered element re-validated, every replica repaired back to the
    log head. Per profile, keyed on [r.profile]: with more than one
    session (and neither [Partition] nor [Write_heavy]) — at least one
    coalesce hit; [Write_heavy] — elements delta-maintained, delta rows
    added, deletes issued; [Recursive] — goals answered through
    multi-round fixpoints and set-oriented fetches, at least one complete
    (a goal answer with a tuple outside ground truth is a divergence);
    [Partition] — failovers, hinted writes and handoffs happened, the
    partition healed, and no replica request failed after heal + repair. *)

val run : profile -> seed:int -> waves:int -> report
(** Admission follows {!Admission.default_policy}. Each wave: every
    session may submit from the overlapping {!Workload} family (one hot
    view shared across sessions; a quarter of the jobs ask for a lazy
    answer), the first session occasionally bursts past its admission
    cap, the mix's writes (and goals) are issued, then one scheduler wave
    executes.

    @raise Invalid_argument naming the broken rule when [sessions < 1],
    when the [Write_heavy] mix is given more than one server (see
    docs/CONSISTENCY.md on deletes under replication lag), or when a
    [Partition] has fewer than 2 replicas (it severs the primary).
    Shard and replica counts below 1 are rejected by
    {!Braid_remote.Shard_router.create}. *)

val report_to_string : report -> string
(** Deterministic rendering — byte-identical across runs for a seed. *)
