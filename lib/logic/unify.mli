(** Unification and one-way matching over function-free terms.

    One-way matching implements the paper's subsumption-check primitive
    (§5.3.2): "a constant in the predicate in the subquery can match with
    the same constant or a variable at the corresponding position in the
    predicate in the cache element, but a variable can only match with a
    variable". *)

val atoms : Subst.t -> Atom.t -> Atom.t -> Subst.t option
(** Fails on predicate or arity mismatch. *)

val match_atoms : Subst.t -> general:Atom.t -> specific:Atom.t -> Subst.t option
(** The two atoms must be standardized apart (no shared variable names);
    otherwise applying the resulting substitution can collapse chains. *)

val variant : Atom.t -> Atom.t -> bool
(** True when the atoms are equal up to consistent variable renaming. *)
