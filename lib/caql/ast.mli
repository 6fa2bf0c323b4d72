(** CAQL — the Cache Query Language (paper §5: "a superset of conventional,
    relational query languages such as SQL").

    The core is the {b PSJ conjunctive query} [conj]: a conjunction of
    relation occurrences and evaluable comparisons with a projection head.
    This is the fragment over which subsumption is decided (§5.3.2 limits
    [Q] and the cache elements to "logic expressions equivalent to PSJ
    expressions", after [LARS85]).

    On top of the conjunctive core CAQL adds union (OR), safe negation
    (NOT, as set difference), and second-order aggregation (SETOF / BAGOF /
    AGG) — operations the remote DBMS of the paper's era did not support
    and the CMS evaluates itself. *)

type comparison = Braid_relalg.Row_pred.cmp * Braid_logic.Literal.expr * Braid_logic.Literal.expr

type conj = {
  head : Braid_logic.Term.t list;  (** answer terms: variables or constants *)
  atoms : Braid_logic.Atom.t list;  (** base/view relation occurrences *)
  cmps : comparison list;
}

type t =
  | Conj of conj
  | Union of t list  (** non-empty; members have equal head arity *)
  | Diff of t * t  (** safe negation: tuples of the left not in the right *)
  | Distinct of t  (** SETOF: set semantics over a BAGOF result *)
  | Division of t * t
      (** the ALL quantifier as relational division: [Division (d, s)]
          yields the prefixes [k] of dividend [d] (arity |k| + |s|) that
          pair with {e every} tuple of the divisor [s] *)
  | Fixpoint of fixpoint
      (** the specialized fixed point operator of §2's second-order
          templates: [step] may reference [name] as a relation; evaluation
          iterates [base ∪ step] to a fixpoint (set semantics) *)
  | Agg of agg

and fixpoint = {
  name : string;  (** the recursive relation's name, visible inside [step] *)
  base : t;
  step : t;  (** same head arity as [base] *)
}

and agg = {
  keys : int list;  (** group-by positions within the source's head *)
  specs : Braid_relalg.Aggregate.spec list;
  source : t;
}

val conj : ?cmps:comparison list -> Braid_logic.Term.t list -> Braid_logic.Atom.t list -> conj

val head_arity : t -> int

val constants : conj -> Braid_relalg.Value.t list
(** All constants appearing anywhere in the conjunct. *)

val apply_subst : Braid_logic.Subst.t -> conj -> conj

val rename_vars : (string -> string) -> conj -> conj

val variant_key : conj -> string
(** The conjunct as {!conj_to_string} prints it, but with each constant
    as {!Braid_relalg.Value.add_to_buffer} prints it (lossless: floats
    that differ get different keys), and with its variables
    renamed [v0], [v1], ... in the order they are met when the comparisons
    are read first (each one's right operand before its left, and inside
    an arithmetic expression the right operand first), then the atoms'
    arguments left to right, then the head. So [(X, Y) :- b(X, Y) & X < Y]
    has the key [(v1, v0) :- b(v1, v0) & v1 < v0]. Printed straight into
    one buffer. Two conjuncts have the same key iff they are variants
    whose constants print alike ([2] and [2.0] do); the set-oriented tier
    interns its fetches by it. The cache matches on
    [Braid_subsume.Form] instead, which compares constants by value. *)

val variant_equal : conj -> conj -> bool
(** Equality up to variable renaming, with atom order significant
    ([variant_key a = variant_key b]). This is the reuse test of
    exact-match caching systems (BERMUDA [IOAN88], [SELL87]), which BrAID's
    subsumption strictly generalizes. *)

val pp_term : Format.formatter -> Braid_logic.Term.t -> unit
(** A term as CAQL reads it back: an integral float keeps a fraction
    ([2.0]), a string is quoted with the quote character it does not
    contain (['say "hi"']). Only a string holding both quote characters
    has no CAQL spelling; it prints OCaml-escaped. Answer tuples print
    with {!Braid_relalg.Value.pp}, not this. *)

val pp_atom : Format.formatter -> Braid_logic.Atom.t -> unit
val pp_literal : Format.formatter -> Braid_logic.Literal.t -> unit
(** Atoms and comparisons with their constants printed by {!pp_term}. *)

val pp_conj : Format.formatter -> conj -> unit
val pp : Format.formatter -> t -> unit
val to_string : t -> string
val conj_to_string : conj -> string
