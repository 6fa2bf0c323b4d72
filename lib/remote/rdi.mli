(** The Remote DBMS Interface's resilience policy (paper §4, Figure 5).

    The RDI is the one component that talks to the autonomous remote
    server, so it is where unreliability must be absorbed: per-request
    deadlines, bounded retries with exponential backoff + jitter, a
    circuit breaker that stops hammering a down server, and — the bridge's
    last line of defense — degrade-to-cache: the most recent good response
    for the same request text is served, explicitly flagged stale, when
    the remote cannot answer in time.

    Everything is simulated and deterministic: backoff "waits" charge
    simulated milliseconds, the breaker cooldown counts requests, and
    jitter comes from a seeded {!Braid_prng.Prng} — the same seed replays
    the same retry/trip sequence byte for byte.

    The record of what happened is the span tracer: each {!exec} is one
    [rdi.exec] span (argument [sql]) holding the attempts' [remote.exec]
    spans and the [rdi.*] instants — retries with their backoff, trips,
    probes, stale serves, failures (docs/OBSERVABILITY.md). Untraced, the
    interface keeps only {!stats}. *)

type policy = {
  deadline_ms : float option;  (** per-attempt deadline, [None] = wait forever *)
  request_budget_ms : float option;
      (** whole-request budget: the retry loop stops (counted as a
          deadline miss) once the cumulative simulated spend — attempts'
          server + communication time plus backoff waits — exceeds it.
          [deadline_ms] bounds one attempt; this bounds their sum, so
          retries + backoff can no longer spend many multiples of the
          caller's budget. [None] = unbounded. *)
  max_retries : int;  (** retries after the first attempt *)
  backoff_base_ms : float;  (** delay before the first retry *)
  backoff_multiplier : float;  (** delay growth per retry *)
  backoff_jitter : float;
      (** each delay is multiplied by [1 + u * jitter], [u] uniform in
          [\[0,1)] — decorrelates retry storms *)
  breaker_threshold : int;  (** consecutive failures that trip the breaker *)
  breaker_cooldown : int;  (** fast-failed requests before a half-open probe *)
  seed : int;  (** jitter PRNG seed *)
}

val default_policy : policy
(** Deadline off, 3 retries, 25 ms base doubling with 25% jitter, trip
    after 5 consecutive failures, half-open probe after 8 fast-fails. *)

type breaker_state = Closed | Open | Half_open

type failure =
  | Remote_fault of Fault.kind  (** the attempt(s) failed with this fault *)
  | Breaker_open  (** fast-failed without touching the server *)
  | Replica_lag of int
      (** answered by a backup replica that is [n] replication-log entries
          behind its primary — an honestly-stale subset. Produced by
          {!Shard_router}, never by this module. *)

val failure_to_string : failure -> string

type outcome =
  | Fresh of Braid_relalg.Relation.t
  | Stale of Braid_relalg.Relation.t * failure
      (** degraded: the last good response for this request text *)
  | Failed of failure  (** no answer available at all *)

(** Resilience accounting since {!create}. Only this module writes it. *)
type stats = private {
  mutable requests : int;  (** calls to {!exec} *)
  mutable attempts : int;  (** server round trips actually tried *)
  mutable retries : int;
  mutable failures : int;  (** requests that exhausted their retries *)
  mutable deadline_misses : int;
  mutable trips : int;  (** Closed/Half_open -> Open transitions *)
  mutable fast_fails : int;  (** requests rejected by an open breaker *)
  mutable half_open_probes : int;
  mutable stale_serves : int;  (** degraded answers served from the response cache *)
  mutable backoff_ms : float;  (** total simulated backoff waiting *)
}

type t

val create : ?policy:policy -> Server.t -> t
(** A fresh interface to [server]; [policy] defaults to {!default_policy}. *)

val server : t -> Server.t
(** The server this interface guards. *)

val policy : t -> policy
(** The resilience policy in effect. *)

val set_policy : t -> policy -> unit
(** Also resets the breaker and the jitter PRNG (a new policy epoch). *)

val breaker : t -> breaker_state
(** The circuit breaker's current state. *)

val exec : t -> Sql.select -> outcome
(** One resilient request: breaker check, up to [1 + max_retries]
    attempts under the deadline with backoff between them, then
    degrade-to-cache. Never raises on injected faults. *)

val stats : t -> stats
(** A snapshot of the accounting: later requests do not change it. Most
    of the same events also feed the global [Braid_obs.Metrics] registry
    (names under [rdi.*]; docs/OBSERVABILITY.md maps one to the other)
    and emit [rdi.*] trace instants when a tracer is installed. *)

val sum : stats list -> stats
(** Field-wise sum. *)

val flush_response_cache : t -> unit
(** Drops every degrade-to-cache snapshot. The write path calls this on
    every accepted {e delete}: a last-good response is only an honest
    subset of the truth under insert-only writes, so once a row is gone a
    retained snapshot could serve it back as phantom "extra" rows (the
    consistency oracle's subset rule would flag exactly that — see
    docs/CONSISTENCY.md). Inserts never flush. *)

