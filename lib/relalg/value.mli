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
(** Values {!equal} equates hash alike: [Int 2] and [Float 2.0], and an
    int past 2^53 and the float it rounds to. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val float_digits : float -> string
(** The shortest decimal that reads back as the float, written without an
    exponent ([1e-07] is ["0.0000001"]); an integral float has no
    fraction (["2"]). Infinities and NaN print as {!pp} prints them. *)

val add_to_buffer : Buffer.t -> t -> unit
(** Appends what {!pp} prints, except that a float is {!float_digits}: a
    lossless rendering, for keys. [Int 2] and [Float 2.0] print alike, as
    {!equal} equates them. *)

val pp_ty : Format.formatter -> ty -> unit

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** Arithmetic; numeric promotion Int->Float; non-numeric operands or
    division by zero yield [Null]. *)
