(** Logic terms.

    BrAID's languages (AI queries, CAQL, advice) are function-free Horn
    logic, so a term is just a variable or a constant; this keeps
    unification and subsumption decidable and cheap. *)

type t =
  | Var of string
  | Const of Braid_relalg.Value.t

val int : int -> t

val is_var : t -> bool
val is_const : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string
