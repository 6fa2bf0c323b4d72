(** Tuples: immutable-by-convention arrays of values.

    Invariant: tuples are shared between relations and never mutated in
    place. Relation copies, selections, schema views, stream spines, index
    buckets and cache answers hold the same tuple values and copy at most
    the row vector, so writing into a [Tuple.t] after it has been added
    anywhere would change every relation that holds it. A new tuple may be
    filled slot by slot only before it is first handed out. *)

type t = Value.t array

val arity : t -> int
val get : t -> int -> Value.t
val make : Value.t list -> t
val to_list : t -> Value.t list
val project : t -> int list -> t
val concat : t -> t -> t
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val key : t -> int list -> Value.t list
(** [key t cols] extracts the listed columns, for use as a hash key. *)

val pp : Format.formatter -> t -> unit
