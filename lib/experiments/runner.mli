(** Shared experiment machinery: build a fresh system, run a query batch,
    snapshot every counter. *)

type result = {
  label : string;
  queries : int;
  solutions : int;
  requests : int;  (** remote DBMS requests *)
  tuples_returned : int;
  tuples_scanned : int;
  comm_ms : float;
  server_ms : float;
  local_ms : float;
  ie_ms : float;
  total_ms : float;
  caql_queries : int;
  exact_hits : int;
  full_hits : int;
  partial_hits : int;
  misses : int;
  generalizations : int;
  prefetches : int;
  lazy_answers : int;
  degraded : int;  (** answers served with stale or incomplete data *)
  retries : int;  (** RDI retry attempts *)
  trips : int;  (** circuit-breaker trips *)
  evictions : int;
  cache_bytes : int;
}

val run_batch :
  label:string ->
  ?config:Braid_planner.Qpo.config ->
  ?capacity_bytes:int ->
  ?strategy:Braid_ie.Strategy.kind ->
  ?first_only:int ->
  kb:(unit -> Braid_logic.Kb.t) ->
  data:(unit -> Braid_relalg.Relation.t list) ->
  Braid_logic.Atom.t list ->
  result
(** Builds a fresh system and solves each query in order ([first_only n]
    pulls only the first [n] solutions per query — the single-solution
    usage pattern). *)

