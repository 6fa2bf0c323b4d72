(** Deterministic fault injection for the simulated remote DBMS.

    The paper's setting (§4, Figure 5) is an {e autonomous, remote} DBMS
    reached over a network: latency varies, links drop, servers shed load.
    This module decides — pseudo-randomly but reproducibly from a seed —
    the fate of each request: extra latency (base + jitter + occasional
    spike + per-table "slow table" hotspots) or an injected failure.

    All randomness flows through {!Braid_prng.Prng} (splitmix64), so a
    given [(config, request sequence)] produces bit-identical schedules on
    every run — the property the resilience tests and the CI bench gate
    rely on. *)

type kind =
  | Transient  (** the server refused the request; retrying may succeed *)
  | Disconnect  (** the connection dropped mid-request *)
  | Timeout  (** the caller's deadline elapsed before the reply *)
  | Crash
      (** the CMS process dies at this request — not a remote failure.
          The RDI re-raises it (no retry, no failure accounting);
          recovery is the cache journal's job ({!Braid_cache.Journal}). *)
  | Partition
      (** the target is unreachable: requests fail fast (no latency draw
          spent) until the partition heals. Deterministic — see
          {!type:partition}. *)

val kind_to_string : kind -> string

exception Injected of kind
(** Raised by {!Server.exec} when a fault fires. *)

type clock
(** A shared request counter. Wire the same clock into several injectors'
    configs and every {!roll} or {!probe} on any of them advances it; a
    {!type:partition}'s [heal_after] then counts requests {e system-wide}
    rather than per-target. That is what lets a severed replica heal even
    after failover routes all traffic away from it. One clock per run
    keeps same-seed re-runs byte-identical. *)

val clock : unit -> clock
(** A fresh clock at tick zero. *)

val ticks : clock -> int
(** Requests observed so far (rolls + probes across all wired injectors). *)

type partition = {
  heal_after : int;
      (** the partition heals once this many requests have passed —
          measured on the shared {!type:clock} from the moment the
          injector was installed, or on the injector's own rolls when no
          clock is wired *)
}

type config = {
  seed : int;
  error_rate : float;  (** probability of a transient error per request *)
  disconnect_rate : float;  (** probability of a dropped connection *)
  latency_base_ms : float;  (** extra latency added to every request *)
  latency_jitter_ms : float;  (** uniform extra in [\[0, jitter)] *)
  spike_rate : float;  (** probability of a latency spike *)
  spike_ms : float;  (** spike magnitude when one fires *)
  slow_tables : (string * float) list;
      (** per-table extra latency — hotspots a real server develops *)
  crash_at : int option;
      (** kill the CMS on the n-th request (1-based ordinal) after this
          injector was installed; fires exactly once *)
  partition : partition option;
      (** sever the target until [heal_after] requests pass *)
  clock : clock option;
      (** the shared request clock partitions heal against *)
}

val none : config
(** No faults, no latency: the seed-state behavior. *)

val flaky : ?seed:int -> error_rate:float -> unit -> config
(** A plausible unreliable link: the given transient error rate, a tenth
    of it as disconnects, 5 ms +- 10 ms latency and 2% spikes of 120 ms. *)

val severed : ?seed:int -> heal_after:int -> unit -> config
(** A network partition and nothing else: every request fails fast with
    {!Partition} until [heal_after] requests have passed, then the link
    is clean. Wire a {!type:clock} in to heal on system-wide progress. *)

type t

val create : config -> t
val config : t -> config

val partitioned : t -> bool
(** Whether the partition (if any) is still active — without spending a
    request or advancing any clock. *)

val probe : t -> bool
(** One reachability heartbeat: advances the shared clock (a probe is
    itself a request the system sends) and returns whether the target is
    reachable. The replication layer uses this before shipping a log
    entry to a backup. *)

val roll : t -> tables:string list -> (float, kind) result
(** Decide one request's fate: [Ok latency_ms] or [Error kind]. Exactly
    four PRNG draws per call regardless of outcome, so fault schedules
    stay aligned across configurations sharing a seed — a partitioned or
    healed injector keeps the same downstream schedule. [tables] are the
    FROM-clause tables, matched against [slow_tables]. *)
