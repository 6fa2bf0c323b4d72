(** Row-level predicates evaluated against a tuple.

    Operands are column positions or literals; small arithmetic terms are
    allowed so that CAQL's evaluable predicates can be pushed into scans. *)

type operand =
  | Col of int
  | Lit of Value.t
  | Add of operand * operand
  | Sub of operand * operand
  | Mul of operand * operand
  | Div of operand * operand

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type t =
  | True
  | False
  | Cmp of cmp * operand * operand
  | And of t list
  | Or of t list
  | Not of t

val eval_operand : operand -> Tuple.t -> Value.t
val eval : t -> Tuple.t -> bool

val conj : t list -> t
(** Conjunction with [True]/[False] simplification. *)

val shift : int -> t -> t
(** [shift k p] adds [k] to every column reference (for predicates that were
    written against the right side of a product). *)

val cmp_holds : cmp -> Value.t -> Value.t -> bool
val pp : Format.formatter -> t -> unit
