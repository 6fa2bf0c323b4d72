(** The remote fetch coalescer: deduplicates in-flight remote requests
    across the sessions of one scheduling wave.

    The cooperative scheduler linearizes one wave of session slots and
    treats every remote fetch issued inside the wave as {e concurrent}: K
    sessions asking for the same — or a subsumed — view cost one remote
    round trip. Two reuse levels, both deterministic:

    - {b identical}: same SQL text → the first fetch's outcome is shared
      by reference (the relation is immutable once fetched);
    - {b subsumed}: an earlier in-flight fetch's definition subsumes the
      new request ({!Braid_subsume.Subsumption.full_cover}), so the answer
      is derived locally from the in-flight response by
      selection/projection — charged as Cache Manager work, not a round
      trip.

    Identical reuse shares the first fetch's outcome whatever it was, a
    failure included: the fetches of one wave are concurrent, so an
    identical one would have waited on the same in-flight request and got
    the same answer. Subsumed reuse needs rows, so it derives only from
    [Fresh] and [Stale] entries. The window is valid {e only} within one
    wave: [begin_round]/[end_round] bracket
    it, and a fetch arriving outside any round bypasses the window
    entirely (a later single-session query must not read a response that
    cache inserts may since have superseded).

    Over a {e sharded} remote ({!Braid.Cms.router}) the window keys are
    shard-aware: entries record their
    {!Braid_remote.Shard_router.route_signature}, identical reuse matches
    on (SQL text, route), and a {e Stale} in-flight response is only
    subsumed-reused for a request with the same route — a request pinned
    to a healthy shard must not inherit another placement's degradation
    (Fresh entries, being true supersets, reuse freely). Misses go through
    {!Braid.Cms.exec_remote}, i.e. the shard router when one is
    installed. *)

(** Coalescing accounting since {!create}. Only this module writes it. *)
type stats = private {
  mutable requests : int;  (** fetches routed through the coalescer *)
  mutable identical_hits : int;  (** shared outcome, same SQL text *)
  mutable subsumed_hits : int;  (** derived locally from an in-flight response *)
  mutable misses : int;  (** went to the RDI *)
  mutable rounds : int;  (** waves bracketed so far *)
}

type t

val create : Braid.Cms.t -> t
(** Coalesces over the CMS's remote fetch path ({!Braid.Cms.exec_remote}:
    the shard router when sharded, the single RDI otherwise). The CMS's
    cache is only used to evaluate the compensating selection/projection
    of subsumed reuse (its touched-tuple accounting charges the
    derivation as local work). *)

val begin_round : t -> unit
(** Opens a wave: clears the window and starts coalescing. *)

val end_round : t -> unit
(** Closes the wave; subsequent fetches bypass the window until the next
    {!begin_round}. Idempotent. *)

val fetch : t -> Braid_caql.Ast.conj -> Braid_remote.Sql.select -> Braid_remote.Rdi.outcome
(** The planner-facing fetch hook (install with
    {!Braid.Cms.set_fetcher}): answer from the wave's window when
    possible, otherwise {!Braid.Cms.exec_remote} and remember the outcome
    for the rest of the wave. *)

val stats : t -> stats
(** A snapshot of the counters — deterministic for a fixed seed; later
    fetches do not change it. The hit and miss events also feed the
    [serve.coalesce.*] counters of {!Braid_obs.Metrics} and emit
    [serve.coalesce] trace instants. *)

val sum : stats list -> stats
(** Field-wise sum (the soak's totals across crash incarnations). *)
