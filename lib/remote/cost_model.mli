(** Simulated cost model for the workstation / server / network split.

    The paper measures cost as "volume of communication between the
    workstation and the remote system, computational demands made on the
    database server, and computation that needs to be done by the
    workstation" (§3). We charge simulated milliseconds for each component;
    the defaults reflect 1991-era LAN DBMS access where a remote round trip
    dwarfs per-tuple local work. All experiments also report the raw
    counters, which are model-independent. *)

type t = {
  request_overhead_ms : float;
      (** per remote request: round trip + server parse/plan *)
  server_scan_ms : float;  (** server work per tuple scanned *)
  transfer_tuple_ms : float;  (** network cost per result tuple shipped *)
  cache_tuple_ms : float;  (** workstation (CMS) work per tuple processed *)
  ie_resolution_ms : float;  (** workstation (IE) work per inference step *)
  hash_build_tuple_ms : float;
      (** hash-join: inserting one build-side tuple into the hash table *)
  probe_tuple_ms : float;
      (** per input/output tuple streamed through a join operator *)
  sort_tuple_ms : float;
      (** sort-merge join: per tuple per [log2 n] comparison level *)
  inlj_probe_ms : float;
      (** index-nested-loop join: one index probe per outer tuple *)
  filter_value_ms : float;
      (** shipping one semi-join filter value to the server *)
}

val default : t

val local_only : t
(** Zero communication cost — used by tests to isolate logic from cost. *)

val remote_query_cost : t -> scanned:int -> returned:int -> float
(** Server + communication cost of one remote request. *)

