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

type value_set
(** The members of an IN-list, hashed for one-probe membership. *)

type t =
  | True
  | False
  | Cmp of cmp * operand * operand
  | And of t list
  | Or of t list
  | Not of t
  | In of operand * value_set
      (** [In (a, s)] holds when [a] equals some member of [s]; build it
          with [one_of]. *)

val eval : t -> Tuple.t -> bool

val one_of : operand -> Value.t list -> t
(** [one_of a vs] holds exactly when [Or [Cmp (Eq, a, Lit v); ...]] over
    [vs] would ([Value.compare] = 0, so [2] matches [2.0], [-0.0] matches
    [0.0] and [Null] matches [Null]), but evaluates as one hash probe rather
    than a compare per value. The set is built here, once; [shift] shares
    it. [False] when [vs] is empty. *)

val value_set : Value.t list -> value_set
(** Hashes an IN-list's values (duplicates allowed) for [mem]. *)

val mem : value_set -> Value.t -> bool
(** [mem s v] is [List.exists (fun w -> Value.compare v w = 0) vs] for the
    [vs] [s] was built from, in one hash probe. *)

val has_wide : Value.t list -> bool
(** Whether a value is a number beyond 2^53. Among such values
    [Value.equal] is not transitive, so hash-index buckets need not hold
    exactly the rows an IN-list of them admits. *)

val distinct_members : Value.t list -> Value.t list
(** One value per [Value.equal] class, the first listed. Without wide
    members ({!has_wide}), probing a hash index with each of these reaches
    every row [one_of a vs] admits exactly once. A list strictly
    increasing under [Value.compare] is returned as it is, unhashed. *)

val conj : t list -> t
(** Conjunction with [True]/[False] simplification. *)

val shift : int -> t -> t
(** [shift k p] adds [k] to every column reference (for predicates that were
    written against the right side of a product). *)

val cmp_holds : cmp -> Value.t -> Value.t -> bool
val pp : Format.formatter -> t -> unit
