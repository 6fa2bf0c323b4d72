(** The magic-set transform for the set-oriented strategy tier.

    Bottom-up evaluation computes {e all} solutions of every reachable
    predicate; a selective query ([ancestor("p0", Y)]) would still derive
    the whole closure. The transform rewrites the reachable fragment of the
    knowledge base so bottom-up derivation is restricted to the tuples the
    query actually demands:

    - every derived predicate is split per {b adornment} — a [b]/[f] string
      recording which argument positions arrive bound — and renamed
      [p$ad];
    - a {b magic predicate} [m$p$ad] collects the bound-argument tuples
      demanded of [p$ad]; each adorned rule is guarded by its magic atom,
      so a rule fires only for demanded bindings;
    - demand propagates {b sideways} through each rule body in the shaper's
      conjunct order ([orderings], the same order the interpretive
      controller evaluates), emitting one magic rule per bound derived
      occurrence;
    - the query's own constants seed the demand as a magic fact.

    Derived occurrences whose adornment is all-free get no magic predicate
    (their full extension is demanded — guarding is pure overhead), and
    [transform] returns [None] when the query itself binds nothing or is
    not a derived predicate: the untransformed program is already optimal
    there.

    {b The right-linear case} (Naughton, Ramakrishnan, Sagiv and Ullman,
    SIGMOD 1989). Plain magic sets still derive [q$ad(z, ...)] for {e every}
    binding [z] in the demand set: [ancestor("p0", Y)] builds the closure
    below each node it demands, though the query needs only p0's rows.
    When the query's predicate [q], at an adornment [ad] with at least one
    [f], passes its free arguments unchanged down its recursion, any
    answer for a demanded binding is an answer of the query. The
    transform then derives the demand set and the answers only. Eligible
    programs: every rule of [q] not skipped is
    - an {e exit} rule, with no body atom whose predicate reaches [q]; or
    - a {e right-linear} rule, whose one such atom is [q] itself, and at
      least one rule is. In the shaper's order that atom comes last, after
      every other literal has joined its magic rule's body (each
      comparison with its variables bound), and its sideways adornment
      is [ad] again. At each free position it carries the head's argument
      unchanged: a variable, distinct from the other free ones, that
      occurs nowhere else in the body (no atom, no comparison) nor at a
      bound head position.

    Such a program keeps every magic rule, including the recursive call's
    [m$q$ad(Z) <- m$q$ad(X) & parent(X, Z)]. Its right-linear rules get no
    adorned rule; each exit rule becomes an answer rule
    [q$ad$rl(free head args) <- m$q$ad(bound head args) & <adorned body>],
    where derived atoms of lower strata keep their adornments and magic
    rules; and the query becomes [q$ad$rl(free query args)]. Any other
    program is transformed as above. *)

type t = {
  kb : Braid_logic.Kb.t;  (** the adorned + magic program *)
  query : Braid_logic.Atom.t;  (** the query renamed to its adorned predicate *)
  adornment : string;  (** the query's adornment, e.g. ["bf"] *)
}

val transform :
  Braid_logic.Kb.t ->
  ?orderings:(string * int list) list ->
  ?skip_rules:string list ->
  Braid_logic.Atom.t ->
  t option
(** [skip_rules] (rules the problem-graph shaper culled) are excluded from
    the transformed program, so the caller must not re-apply them. Answers
    of [t.query] over [t.kb] equal answers of the original query over the
    original program (soundness of magic sets for definite programs). *)

val is_magic : string -> bool
(** Recognizes magic predicate names ([m$...]) — used to account the magic
    filter's size separately from real derived predicates. *)
