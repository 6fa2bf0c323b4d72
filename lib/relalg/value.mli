(** Typed atomic values stored in relations.

    This is the common currency of the whole system: the remote DBMS, the
    cache, the CAQL layer and the logic layer all exchange values of this
    type. *)

type t =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
  | Null  (** SQL-style missing value; compares less than everything. *)

type ty = Tint | Tfloat | Tstr | Tbool

val type_of : t -> ty option
(** [type_of v] is [None] for [Null]. *)

val compare : t -> t -> int
(** Total order: [Null] < [Bool] < [Int]/[Float] (numerically) < [Str]. *)

val equal : t -> t -> bool
val hash : t -> int

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val add_to_buffer : Buffer.t -> t -> unit
(** Appends exactly what {!pp} prints. *)

val pp_ty : Format.formatter -> ty -> unit

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** Arithmetic; numeric promotion Int->Float; non-numeric operands or
    division by zero yield [Null]. *)
