(** Subsumption of PSJ queries by cached view definitions (paper §5.3.2).

    A cache element [E] (a conjunctive view definition with a stored-column
    head) {e subsumes} a subquery [Q_c] of a query [Q] — written [E ⊐ Q_c]
    — when [Q_c]'s answers are derivable from [E]'s stored extension by
    selection and projection. The check generalizes one-way unification to
    conjunctions, following the paper's two-step algorithm:

    + match each of [E]'s relation occurrences against an occurrence of the
      same predicate in [Q], where "a constant in the subquery can match
      with the same constant or a variable at the corresponding position in
      the cache element, but a variable can only match with a variable";
    + reject elements that are {e more restricted} than the query: every
      occurrence of [E] must map consistently, [E]'s comparison constraints
      must be implied by [Q]'s (interval reasoning handles
      variable-vs-constant comparisons), and every compensating selection
      or exposed join variable must be available among [E]'s stored
      columns.

    A successful match yields a {b cover}: the set of [Q]'s atoms it
    replaces and a replacement atom over the element's stored relation;
    [rewrite] applies it. This strictly generalizes the exact-match reuse
    of [SELL87]/[IOAN88] (see [exact_match]) and the single-relation
    caching of [CERI86]. *)

type element = {
  id : string;  (** the cached relation's name; also the replacement atom's predicate *)
  def : Braid_caql.Ast.conj;  (** view definition; [def.head] = stored columns *)
}

type cover = {
  element_id : string;
  replacement : Braid_logic.Atom.t;
  covered : int list;  (** indices into the query's [atoms], sorted *)
}

val covers : element -> Braid_caql.Ast.conj -> cover list
(** All distinct ways the element derives a sub-conjunction of the query
    (the element's every atom must participate), in the order the search
    finds them: element atom [i] tries the query's atoms in turn, a repeat
    (same covered atoms, same replacement) dropped. Empty when the element
    cannot be used. Runs through the pair's {!plan}. *)

val full_cover : element -> Braid_caql.Ast.conj -> cover option
(** A cover whose [covered] is all of the query's atoms, if any. *)

val rewrite :
  Braid_caql.Ast.conj -> (int list * Braid_logic.Atom.t) list -> Braid_caql.Ast.conj
(** [rewrite q [(covered, replacement); ...]] replaces each set of [q]'s
    atoms (disjoint, sorted indices) by its replacement atom, placed where
    the set's first atom stood; the other atoms keep their order. A
    cover's pair is [(c.covered, c.replacement)], whose compensating
    selections are encoded by constants and repeated variables in the
    replacement's argument list; the QPO also passes the atoms that stand
    for fetched relations. *)

val exact_match : element -> Braid_caql.Ast.conj -> bool
(** Variant equality of definitions with equal constants ({!Form.same}:
    the reuse test of BERMUDA-style result caching). *)

val generalizes : Braid_caql.Ast.conj -> Braid_caql.Ast.conj -> bool
(** [generalizes g q]: treating [g] as a view, are all of [q]'s answers
    derivable from [g] by selection/projection covering all of [q]? Used
    by QPO step 1 to decide query generalization. *)

(** {2 Match plans}

    The search of step 2 depends on the constants only through equality
    tests, so it runs once per (query form, definition form) pair. A
    {b match plan} lists, in search order, each assignment of definition
    atoms to query atoms that survives the checks needing no values (a
    definition constant faces a query constant, columns that select or
    merge are stored, needed query variables are exposed), with what is
    left for the instances: which query parameters must be equal, which
    query parameter each definition atom constant must equal, where each
    stored column comes from, and the definition's comparisons, which
    the query's must still imply. A cache holding elements by (form, atom
    constants) finds an assignment's elements with one lookup of
    {!def_key}. *)

type plan
type assignment

val plan : query:Form.t -> def:Form.t -> plan
(** Memoised for the pairs whose predicates fit; the table holds at most
    1,024 pairs and starts over when full. *)

val rank : plan -> int
(** The position, among the query form's sorted predicates, of the first
    one the definition mentions: the cache's candidate order. *)

val assignments : plan -> assignment list
(** In search order; empty when no instance of the definition form can
    cover any instance of the query form. *)

val holds : assignment -> Form.inst -> bool
(** The query's parameters that the assignment merges are equal. *)

val def_key : assignment -> Form.inst -> Braid_relalg.Value.t array
(** The atom constants a definition must have for the assignment to apply
    to the query: its [Form.atom_params] parameters. *)

val cover : assignment -> Form.inst -> id:string -> Form.inst -> cover option
(** [cover a q ~id d]: the cover of the query by the definition through
    [a], given that {!holds} and the definition's atom constants are
    {!def_key}; [None] when the query's comparisons do not imply the
    definition's. *)

val same_cover : cover -> cover -> bool
(** The same covered atoms and the same replacement arguments: the
    repeat {!covers} drops. *)

val full_cover_of : id:string -> Form.inst -> Form.inst -> cover option
(** [full_cover_of ~id d q] is {!full_cover} for prepared instances. *)

val subsumes : def:Form.inst -> Form.inst -> bool
(** {!generalizes} for prepared instances. *)
