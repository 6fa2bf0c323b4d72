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
    finds them. Empty when the element cannot be used. Step 1 runs first
    and allocates nothing: unless every element atom meets a query atom of
    its predicate and arity whose constants agree with the element's
    constants, the element is rejected before any mapping is built. *)

type probe
(** A query prepared for testing many elements against it. *)

val probe : Braid_caql.Ast.conj -> probe

val probe_covers : probe -> element -> cover list
(** [probe_covers (probe q) e = covers e q]; the query's preparation is
    shared by every element probed with it. *)

val full_cover : element -> Braid_caql.Ast.conj -> cover option
(** A cover whose [covered] is all of the query's atoms, if any. *)

val rewrite : Braid_caql.Ast.conj -> cover -> Braid_caql.Ast.conj
(** Replaces the covered atoms with the replacement occurrence; the
    compensating selections are encoded by constants and repeated
    variables in the replacement's argument list. *)

val exact_match : element -> Braid_caql.Ast.conj -> bool
(** Variant equality of definitions (the reuse test of BERMUDA-style
    result caching). *)

val generalizes : Braid_caql.Ast.conj -> Braid_caql.Ast.conj -> bool
(** [generalizes g q]: treating [g] as a view, are all of [q]'s answers
    derivable from [g] by selection/projection covering all of [q]? Used
    by QPO step 1 to decide query generalization. *)
