(** The remote fetch coalescer: deduplicates in-flight remote requests
    across the sessions of one scheduling wave.

    The cooperative scheduler linearizes one wave of session slots and
    treats every remote fetch issued inside the wave as {e concurrent}: K
    sessions asking for the same query cost one remote round trip. One
    rule: fetches of one wave with equal {!Braid_remote.Sql.select}
    values share the first one's outcome by reference (the relation is
    immutable once fetched), a failure included, since an identical
    concurrent fetch would have waited on the same in-flight request and
    got the same answer. A query's semi-join filters are part of its
    value ({!Braid_remote.Sql.with_semijoins} keeps them sorted), and
    where a sharded remote places a request is a function of the query,
    so equal values mean equal answers.

    The window is valid {e only} within one wave:
    [begin_round]/[end_round] bracket it, and a fetch arriving outside
    any round bypasses the window entirely (a later single-session query
    must not read a response that cache inserts may since have
    superseded). Misses go through {!Braid.Cms.exec_remote}, i.e. the
    CMS's shard router. *)

(** Coalescing accounting since {!create}. Only this module writes it. *)
type stats = private {
  mutable requests : int;  (** fetches routed through the coalescer *)
  mutable identical_hits : int;  (** shared outcome, equal query *)
  mutable subsumed_hits : int;
      (** always 0: kept for readers of the record; nothing is derived
          from another fetch's response *)
  mutable misses : int;  (** went to the RDI *)
  mutable rounds : int;  (** waves bracketed so far *)
}

type t

val create : Braid.Cms.t -> t
(** Coalesces over the CMS's remote fetch path
    ({!Braid.Cms.exec_remote}, through its shard router). *)

val begin_round : t -> unit
(** Opens a wave: clears the window and starts coalescing. *)

val end_round : t -> unit
(** Closes the wave; subsequent fetches bypass the window until the next
    {!begin_round}. Idempotent. *)

val fetch : t -> Braid_caql.Ast.conj -> Braid_remote.Sql.select -> Braid_remote.Rdi.outcome
(** The planner-facing fetch hook (install with
    {!Braid.Cms.set_fetcher}): the outcome of an equal query already
    fetched in this wave, otherwise {!Braid.Cms.exec_remote}, remembered
    for the rest of the wave. The definition is not read. *)

val stats : t -> stats
(** A snapshot of the counters — deterministic for a fixed seed; later
    fetches do not change it. The hit and miss events also feed the
    [serve.coalesce.*] counters of {!Braid_obs.Metrics}, and each hit
    emits a [serve.coalesce] trace instant carrying the query's [sql]
    text. *)

val sum : stats list -> stats
(** Field-wise sum (the soak's totals across crash incarnations). *)
