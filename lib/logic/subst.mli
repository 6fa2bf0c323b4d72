(** Substitutions: finite maps from variable names to terms.

    Because terms are function-free, a binding chain can only be
    [Var -> Var -> ... -> Const]; [resolve] follows such chains. *)

type t

val empty : t
val bind : string -> Term.t -> t -> t
(** Unchecked bind; callers (the unifier) maintain consistency. *)

val find : string -> t -> Term.t option

val resolve : t -> Term.t -> Term.t
(** Follows variable chains to the final binding. *)

val apply_atom : t -> Atom.t -> Atom.t
val bindings : t -> (string * Term.t) list
(** Fully-resolved bindings, sorted by variable name. *)

val restrict : string list -> t -> t
(** Keeps only bindings for the given variables (resolved first). *)

val pp : Format.formatter -> t -> unit
