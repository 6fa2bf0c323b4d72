(** Named relation extensions: a schema plus a bag of tuples.

    Relations are bags; [distinct] converts to set semantics. The remote
    engine, the cache manager and the CAQL evaluator all operate on this
    representation. *)

type t

val create : ?name:string -> Schema.t -> t
val of_tuples : ?name:string -> Schema.t -> Tuple.t list -> t

val unsafe_of_rows : ?name:string -> Schema.t -> Tuple.t Vec.t -> t
(** Adopts [rows] as the relation's backing store without per-tuple arity
    checks — for operators whose output tuples are schema-correct by
    construction (the join inner loops). The vector must not be mutated by
    the caller afterwards. *)

val name : t -> string
val schema : t -> Schema.t
val cardinality : t -> int

val add : t -> Tuple.t -> unit
(** Raises [Invalid_argument] on arity mismatch. *)

val remove_once : t -> Tuple.t -> bool
(** Remove the first occurrence of a tuple (bag semantics: one occurrence
    only), preserving the order of the remaining rows. Returns [false]
    when the tuple is absent. The delta-maintenance primitive. *)

val get : t -> int -> Tuple.t

val rows_copy : t -> Tuple.t Vec.t
(** A fresh vector of the relation's rows, in order: one copy of the row
    vector, with every tuple shared. Later writes to the relation do not
    show in the vector, nor the other way round. *)

val iter : (Tuple.t -> unit) -> t -> unit
val fold : ('acc -> Tuple.t -> 'acc) -> 'acc -> t -> 'acc
val to_list : t -> Tuple.t list
val mem : t -> Tuple.t -> bool

val distinct : t -> t
(** Set-semantics copy, preserving first-occurrence order. *)

val copy : ?name:string -> t -> t
val with_name : string -> t -> t
(** Shares the underlying tuple storage. *)

val with_schema : Schema.t -> t -> t
(** Schema view: reinterpret the same rows under a different (equal-arity)
    schema without copying them. Raises [Invalid_argument] on arity
    mismatch. The view aliases the original storage: rows added through
    either handle are visible through both. *)

val qualify : string -> t -> t
(** [qualify a r] is the zero-copy view of [r] named [a] whose attributes
    are renamed [a.attr] — what the remote executor needs for an aliased
    source. *)

val of_selection : ?name:string -> t -> int array -> t
(** Materialize a selection vector: the relation holding the rows of [r]
    at the listed indices, in order. Tuples themselves are shared. *)

module Tuple_tbl : Hashtbl.S with type key = Tuple.t
(** Hash table keyed by whole tuples ([Tuple.equal]/[Tuple.hash]); the
    backing store for [distinct] and the hash-set operators in [Ops]. *)

val sort_by : (Tuple.t -> Tuple.t -> int) -> t -> t

val row_bytes : Tuple.t -> int
(** One row's term of {!bytes_estimate}: 16 bytes plus 16 per value, plus
    the length of each string value. *)

val bytes_estimate : t -> int
(** Rough in-memory footprint used for cache space accounting: 64 bytes
    plus the {!row_bytes} of every row. *)

val pp : Format.formatter -> t -> unit
(** Tabular rendering (for examples and debugging). *)
