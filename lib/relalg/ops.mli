(** Relational algebra operators over extensions.

    These are the DBMS-like operations of the Cache Manager's Query
    Processor and of the simulated remote engine. All operators are
    bag-semantics unless stated otherwise. *)

val select : Row_pred.t -> Relation.t -> Relation.t

val select_indexed : Index.t -> Value.t list -> ?residual:Row_pred.t -> Relation.t -> Relation.t
(** Index-backed equality selection; [residual] filters the probe result. *)

val select_indexed_count :
  Index.t -> Value.t list -> ?residual:Row_pred.t -> Relation.t -> Relation.t * int
(** Like [select_indexed] but also reports how many tuples the probe
    touched (the bucket size, before the residual filter) — the honest
    "rows scanned" figure for cost accounting. *)

val select_indexed_in_count :
  Index.t -> Value.t list -> ?residual:Row_pred.t -> Relation.t -> Relation.t * int
(** [select_indexed_count] over a one-column index and several values:
    each value's bucket in turn, in the order the values are listed, so a
    row equal to two listed values is emitted twice (pass
    {!Row_pred.distinct_members}). The count is the rows of every bucket
    probed. *)

val select_sv : Row_pred.t -> Relation.t -> int array
(** Selection as a selection vector: the indices of the qualifying rows,
    in order. Nothing is copied until the vector is materialized. *)

val materialize_sv : ?name:string -> Relation.t -> int array -> Relation.t
(** Materialize a selection vector (shares the tuples themselves). *)

val project_sv : int list -> Relation.t -> int array -> Relation.t
(** Fused select+project: project only the rows a selection vector kept,
    never materializing the intermediate selection. *)

val project : int list -> Relation.t -> Relation.t
(** Bag projection onto the listed positions. *)

val product : Relation.t -> Relation.t -> Relation.t

val hash_join :
  left_cols:int list -> right_cols:int list -> ?residual:Row_pred.t ->
  Relation.t -> Relation.t -> Relation.t
(** Equi-join: {!index_nl_join_count} over an {!Index.build} of the right
    input on [right_cols]. The residual predicate sees the concatenated
    tuple; output follows the left input, each left tuple's matches in
    the right input's order. *)

val nested_join : Row_pred.t -> Relation.t -> Relation.t -> Relation.t
(** Theta join by nested loops; the predicate sees the concatenated tuple. *)

val index_nl_join_count :
  left_cols:int list -> Index.t -> ?residual:Row_pred.t ->
  Relation.t -> Relation.t -> Relation.t * int
(** Index-nested-loop equi-join: for each tuple of the left input, probe
    [ix] (an index on the right relation's join columns) and emit the
    concatenations passing [residual]. The right relation itself is never
    scanned. Also returns how many bucket tuples the probes touched — the
    honest "rows scanned" figure for the right side. *)

val index_only_scan :
  Index.t -> Schema.t -> ?residual:Row_pred.t -> ?distinct:bool -> unit ->
  Relation.t * int
(** Covering-index scan: answers a projection onto the index's key columns
    from the key directory alone, never touching the base extension. The
    output schema is [schema] (the base schema projected onto the index
    columns, in index-column order); [residual] is evaluated against the
    key tuple (positions are key positions). Each key is emitted once per
    bucket tuple (bag semantics) unless [distinct]. The count is the number
    of directory keys visited; output is key-sorted. *)

val merge_join :
  left_cols:int list -> right_cols:int list -> ?residual:Row_pred.t ->
  Relation.t -> Relation.t -> Relation.t
(** Sort-merge equi-join. Both inputs MUST already be sorted ascending on
    their join columns (e.g. via [order_by] or a cache element's sorted
    representation); equal-key groups are cross-producted. Equivalent to
    [hash_join] on sorted inputs, but preserves the join-key order in the
    output and needs no hash table. *)

val union : Relation.t -> Relation.t -> Relation.t
(** Set union (distinct). Schemas must have equal arity. *)

val union_all : Relation.t -> Relation.t -> Relation.t

val inter : Relation.t -> Relation.t -> Relation.t
(** Set intersection via a hash set of the right input: O(|a| + |b|). *)

val diff : Relation.t -> Relation.t -> Relation.t
(** Set difference via a hash set of the right input: O(|a| + |b|). *)

val rename : string -> Relation.t -> Relation.t

val order_by : int list -> Relation.t -> Relation.t
(** Ascending lexicographic sort on the listed columns. *)

val limit : int -> Relation.t -> Relation.t
