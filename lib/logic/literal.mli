(** Body literals: relation occurrences or built-in (evaluable) predicates.

    Built-ins are the paper's "evaluable relations" (arithmetic and numeric
    comparison, §4.1): they are never looked up in the DBMS and are
    evaluated by the IE or the CMS once their arguments are bound. *)

type expr =
  | Term of Term.t
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Div of expr * expr

type t =
  | Rel of Atom.t  (** user-defined or database relation occurrence *)
  | Cmp of Braid_relalg.Row_pred.cmp * expr * expr

val rel : Atom.t -> t
val cmp : Braid_relalg.Row_pred.cmp -> Term.t -> Term.t -> t

val expr_vars : expr -> string list
val vars : t -> string list

val constants : t -> Braid_relalg.Value.t list
(** Constants in order of appearance, with repeats. *)

val apply : Subst.t -> t -> t

val eval_expr : expr -> Braid_relalg.Value.t option
(** [None] when the expression still contains a variable. *)

val eval_cmp : t -> bool option
(** Evaluates a ground [Cmp]; [None] for [Rel] or non-ground comparisons. *)

val rename : (string -> string) -> t -> t

val cmp_symbol : Braid_relalg.Row_pred.cmp -> string
(** How {!pp} prints the comparison: ["="], ["<>"], ["<"], ["<="], [">"], [">="]. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
