(** Relation schemas: ordered, named, typed attributes. *)

type t

val make : (string * Value.ty) list -> t
(** Raises [Invalid_argument] on duplicate attribute names. *)

val arity : t -> int
val names : t -> string list
val name_at : t -> int -> string
val ty_at : t -> int -> Value.ty

val position : t -> string -> int
(** Raises [Not_found] for an unknown attribute. *)

val position_opt : t -> string -> int option
val mem : t -> string -> bool

val project : t -> int list -> t
(** Schema of a projection onto the given positions (in order). *)

val concat : t -> t -> t
(** Schema of a product; clashing names on the right are suffixed with ['].*)

val qualify : string -> t -> t
(** [qualify a s] prefixes every attribute name with ["a."], as the remote
    executor names the attributes of an aliased source. *)

val rename : t -> (string * string) list -> t
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
