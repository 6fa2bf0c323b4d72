(** The remote database schema and its statistics.

    The IE "can access the schema information from the DBMS (via the CMS)"
    (§3) and the problem graph shaper uses "cardinality and selectivity
    information from the DBMS schema" (§4.1); this module is that source. *)

type table_stats = {
  cardinality : int;
  distinct_per_column : int array;  (** number of distinct values per column *)
  sorted_prefix : int;
      (** length of the longest column prefix on which the stored row order
          is lexicographically sorted — lets the enumerator pick a merge
          join on pre-sorted base tables without a modeled sort. 0 after
          single-row inserts (conservative). *)
}

type partitioning =
  | Hash of { column : int }
      (** row -> shard [Value.hash v mod shards] on the column's value *)
  | Range of { column : int; bounds : Braid_relalg.Value.t list }
      (** [bounds] are ascending split points: shard [i] holds rows whose
          key is [< nth bounds i] (and the last shard the rest); with
          fewer bounds than [shards - 1] the tail shards hold nothing *)

type t

val create : unit -> t

val register : t -> string -> Braid_relalg.Schema.t -> unit

val set_partitioning : t -> string -> partitioning option -> unit
(** Records (or clears) how the sharded remote stores the table. Purely
    declarative metadata — the {!Shard_router} consults it for routing and
    slicing; a one-shard router ignores it. Raises
    [Invalid_argument] for unknown tables or out-of-range columns. *)

val partitioning_of : t -> string -> partitioning option

val partition_column : partitioning -> int

val shard_of_value : partitioning -> shards:int -> Braid_relalg.Value.t -> int
(** The shard a partition-key value belongs to, deterministic across runs
    and machines (hash partitioning uses the seed-free {!Braid_relalg.Value.hash}). *)

val set_replication : t -> int -> unit
(** Records the cluster's replication factor: copies of every shard slice,
    [>= 1] (1 = unreplicated, the default). Declarative metadata like
    {!set_partitioning} — the {!Shard_router} builds its replica groups
    from it. Raises [Invalid_argument] for factors below 1. *)

val replication : t -> int
(** The recorded replication factor. *)

val replica_node : shards:int -> int -> int -> int
(** [replica_node ~shards s r] — the node hosting replica [r] of shard
    [s] (0 = the primary): chained placement [(s + r) mod shards], so
    each node carries its own primary slice plus backups of its left
    neighbors. Pure arithmetic (no seed, no state):
    placement is identical on every run and machine, the property the
    replica fault seeds and CI gates rely on. *)

val refresh_stats : t -> string -> Braid_relalg.Relation.t -> unit
(** Rescans the relation for cardinality/distinct counts and (re)builds the
    per-column secondary indexes in the same pass. *)

val index_on : t -> string -> int list -> Braid_relalg.Index.t option
(** A persisted secondary index on exactly the given column list, if one is
    currently valid. *)

val ensure_index :
  t -> string -> Braid_relalg.Relation.t -> int list -> Braid_relalg.Index.t
(** Returns the persisted index on the column list, building it from [rel]
    and persisting it first if missing. *)

val note_insert : t -> string -> Braid_relalg.Tuple.t -> unit
(** Incremental maintenance for a single-tuple insert: bumps the
    cardinality, updates the per-column distinct counts, and appends the
    tuple to the affected bucket of every persisted index — no index is
    dropped and no rescan is paid. *)

val note_delete : t -> string -> Braid_relalg.Tuple.t -> unit
(** Incremental maintenance for a single-tuple delete, called after the
    row left the relation ({!Braid_relalg.Relation.remove_once}):
    decrements the cardinality and removes the row from every persisted
    index in place ({!Braid_relalg.Index.remove}) — no index is dropped.
    Bitmaps are dropped. Distinct-count value sets are kept: they are
    planning estimates, and exact decrement would need per-value reference
    counting. *)

val ensure_bitmap :
  t -> string -> Braid_relalg.Relation.t -> int -> Braid_relalg.Bitmap.t
(** Returns a bitmap index on the column, building (and persisting) it from
    [rel] if missing or stale (row count changed since it was built). *)

val schema_of : t -> string -> Braid_relalg.Schema.t option
val stats_of : t -> string -> table_stats option
val tables : t -> string list

val cardinality : t -> string -> int
(** 0 for unknown tables. *)


val sorted_prefix : t -> string -> int
(** [table_stats.sorted_prefix] of the table; 0 when unknown. *)

val eq_selectivity : t -> string -> int -> float
(** Estimated fraction of rows matching an equality predicate on the given
    column: [1 / distinct], defaulting to 0.1 when unknown. *)

val range_selectivity : float
(** Fixed textbook estimate for inequality predicates. *)
