(** The remote DBMS as BrAID sees it: an independent server reached over a
    (simulated) network, with per-request accounting.

    Every result is fetched eagerly: one request returns the whole
    relation and charges its transfer at once. *)

type t

(** Request accounting since {!create}. Only this module writes it. *)
type stats = private {
  mutable requests : int;
  mutable tuples_returned : int;
  mutable tuples_scanned : int;
  mutable server_ms : float;  (** simulated server computation *)
  mutable comm_ms : float;  (** simulated communication (overhead + transfer) *)
  mutable faults_injected : int;  (** requests that failed with an injected fault *)
  mutable injected_ms : float;  (** injected latency plus time wasted on faults *)
}

val create : ?cost:Cost_model.t -> unit -> t

val set_faults : t -> Fault.config option -> unit
(** Enable (or disable, with [None]) deterministic fault injection on every
    subsequent request. *)

val fault_config : t -> Fault.config option

val reachable : t -> bool
(** One reachability heartbeat: {!Fault.probe} against the installed
    injector (advancing the shared fault clock), [true] when no injector
    is installed. The replication layer calls this before shipping a
    log entry to a replica. *)

val partitioned : t -> bool
(** Whether an installed injector's partition is currently active —
    passive, no clock advance ({!Fault.partitioned}). *)

val engine : t -> Engine.t
(** Direct access for loading data; bulk loads are not charged as queries
    (the database pre-exists in the paper's setting). *)

val catalog : t -> Catalog.t
val cost_model : t -> Cost_model.t

val exec : t -> ?deadline_ms:float -> Sql.select -> Braid_relalg.Relation.t
(** One remote request, fully materialized, charged to the accounting.

    With fault injection enabled the request may raise [Fault.Injected]:
    a transient error or disconnect decided by the injector, or — when
    [deadline_ms] is given — a timeout because the request's simulated
    total (injected latency + request cost) exceeds the deadline. A failed
    request still charges the round-trip overhead plus the time wasted
    waiting.

    The server keeps no request log: under an installed tracer each call
    is one [remote.exec] span carrying its [sql], plan and cost, and the
    injected [fault] when there was one. *)

val stats : t -> stats
(** A snapshot: later requests do not change it. *)

val sum : stats list -> stats
(** Field-wise sum. *)
