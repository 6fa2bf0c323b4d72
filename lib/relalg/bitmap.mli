(** Bitmap index on one low-cardinality column.

    Each distinct value owns a bitset over the relation's row positions.
    The executor uses these for IN-set (semi-join) filters and for
    non-equality predicates over columns with few distinct values: ORing a
    handful of bitsets and materializing the survivors touches only the
    matching rows, where a sequential scan would touch all of them. *)

type t

val build : Relation.t -> int -> t
(** [build r col] indexes row positions of [r] by the value in [col]. The
    bitmap is a snapshot: it covers exactly the rows present at build time
    (see [nrows]). *)

val nrows : t -> int
(** Cardinality of the relation at build time — callers use this to detect
    a stale bitmap after inserts. *)

val distinct : t -> int

val matching_any : t -> Value.t list -> int array
(** Row positions (ascending) whose column value equals any of the listed
    values — a selection vector for [Ops.materialize_sv]. *)

val matching : t -> Row_pred.cmp -> Value.t -> int array
(** Row positions (ascending) whose column value satisfies [cmp value]. *)

