(** E13 — fault-tolerant Remote DBMS Interface: answer availability under
    an unreliable remote link.

    Sweeps the injected transient-error rate over a remote-bound workload
    and reports how queries were satisfied: fresh after retries, or
    degraded-empty when retries and the breaker gave up (loose coupling:
    no cache to fall back on). All randomness (fault schedule, backoff jitter) is seeded,
    so the resulting counters are byte-identical across runs — the CI
    bench-smoke job gates on them. *)

type row = {
  error_rate : float;
  queries : int;
  answered : int;  (** queries that produced a result stream (all of them) *)
  fresh : int;
  degraded : int;
  requests : int;  (** RDI-level requests *)
  attempts : int;  (** server round trips, including retries *)
  retries : int;
  trips : int;  (** circuit-breaker trips *)
  deadline_misses : int;
  fast_fails : int;  (** requests short-circuited while the breaker was open *)
}

val run :
  ?seed:int -> ?queries:int -> ?size:int -> ?distinct:int -> unit -> row list * Table.t
(** [queries] requests over [distinct] request texts against a
    [size]-scaled database; [seed] drives the fault injector's schedule. *)
