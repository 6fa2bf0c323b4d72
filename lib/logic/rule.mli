(** Horn rules: [head <- body]. Each rule carries an identifier (the paper's
    rule identifiers R1, R2, ... recorded in view specifications for
    debugging and answer justification, §4.2.1). *)

type t = { id : string; head : Atom.t; body : Literal.t list }

val make : id:string -> Atom.t -> Literal.t list -> t

val vars : t -> string list
(** Distinct variables of head then body, in order of first occurrence. *)

val head_vars : t -> string list
val body_vars : t -> string list

val rename_apart : int -> t -> t
(** [rename_apart k r] suffixes every variable with ["_k"]; used to keep
    resolution steps standardized apart. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
