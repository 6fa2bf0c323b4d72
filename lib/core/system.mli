(** BrAID, assembled (paper Figure 3): an inference engine and a CMS on the
    "workstation", talking to an independent remote DBMS.

    This is the highest-level entry point: load a knowledge base and a
    database, pick a configuration (BrAID or one of the baseline coupling
    disciplines) and an inference strategy, then pose AI queries. *)

type t

val build :
  ?cost:Braid_remote.Cost_model.t ->
  ?config:Braid_planner.Qpo.config ->
  ?capacity_bytes:int ->
  ?strategy:Braid_ie.Strategy.kind ->
  ?send_advice:bool ->
  ?shards:int ->
  ?replicas:int ->
  ?partitioning:(string * Braid_remote.Catalog.partitioning) list ->
  kb:Braid_logic.Kb.t ->
  data:Braid_relalg.Relation.t list ->
  unit ->
  t
(** Loads each relation into the remote DBMS (named after the relation) and
    declares it in the knowledge base if not already declared.

    The CMS reaches the remote through a {!Braid_remote.Shard_router} of
    [shards] (default 1) shards with [replicas] (default 1) copies each.
    At 1×1 its only replica is the remote server itself. Otherwise
    [partitioning] records each table's scheme in the catalog first, then
    the loaded tables are sliced across the shards (unpartitioned tables
    live whole on a deterministic home shard) with [replicas] copies per
    shard (primary/backup failover, anti-entropy repair). *)

val kb : t -> Braid_logic.Kb.t
val cms : t -> Cms.t
val engine : t -> Braid_ie.Engine.t

val server : t -> Braid_remote.Server.t
(** The remote server: the router's coordinator. *)

val router : t -> Braid_remote.Shard_router.t
(** The router between the CMS and the remote. *)

val solve : t -> Braid_logic.Atom.t -> Braid_stream.Tuple_stream.t * Braid_ie.Engine.report
(** One session: advice generation + CAQL query sequence; solutions stream
    on demand (for interpretive strategies). *)

val solve_all : t -> Braid_logic.Atom.t -> Braid_relalg.Relation.t
val solve_first : t -> ?n:int -> Braid_logic.Atom.t -> Braid_relalg.Tuple.t list

val solve_text : t -> string -> Braid_relalg.Relation.t
(** Parses an atomic AI query like ["ancestor(ann, X)"] with
    {!Loader.parse_atomic_query} and solves it; raises [Invalid_argument]
    when the text is not a single atom. *)

val insert_remote : t -> string -> Braid_relalg.Tuple.t -> unit
(** Inserts a tuple into a remote table, refreshes its catalog statistics
    and invalidates the cache elements that depend on it, so subsequent
    queries see the change. Raises [Invalid_argument] on unknown tables. *)

(** Aggregated accounting across the three components. *)
type metrics = {
  remote : Braid_remote.Server.stats;
  rdi : Braid_remote.Rdi.stats;  (** resilience accounting (retries, trips, failures) *)
  planner : Braid_planner.Qpo.metrics;
  cache : Braid_cache.Cache_manager.stats;
  cache_summary : Braid_cache.Cache_model.summary;
  ie_ms : float;
  total_ms : float;  (** elapsed (with overlap) + inference time *)
}

val metrics : t -> metrics
val pp_metrics : Format.formatter -> metrics -> unit
