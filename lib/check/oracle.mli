(** Differential consistency oracle.

    The CMS's whole value proposition is that a cached answer is
    indistinguishable from re-asking the remote DBMS: subsumption,
    generalization, lazy answers and invalidation must all preserve
    answer equivalence, and the degraded paths must never invent data.
    This module checks exactly that: every CAQL conjunction is also
    evaluated {e directly} against ground truth — the engine's tables,
    bypassing the server (no fault draws, no charges) — and the two
    relations are diffed under set semantics.

    Invariants checked:
    - {b Fresh} answers are set-equal to ground truth.
    - {b Degraded} answers are a subset of ground truth (stale data under
      insert-only mutation of monotone PSJ queries can only miss tuples,
      never invent them — the property asserted in [test/test_faults.ml]).
    - Recovered cache elements re-validate: non-stale elements set-equal
      to the ground truth of their definition, stale elements a subset. *)

type t

val create : Braid_remote.Server.t -> t

val ground_truth : t -> Braid_caql.Ast.conj -> Braid_relalg.Relation.t
(** Direct fault-free evaluation of the definition over the engine's
    tables. Never goes through [Server.exec], so the fault schedule of the
    run under test is not perturbed. *)

val diff_relations :
  expected:Braid_relalg.Relation.t ->
  actual:Braid_relalg.Relation.t ->
  Braid_relalg.Tuple.t list * Braid_relalg.Tuple.t list
(** [(missing, extra)] under set semantics: tuples of [expected] absent
    from [actual], and tuples of [actual] absent from [expected]. *)

type divergence = {
  def : Braid_caql.Ast.conj;
  provenance : Braid_planner.Plan.provenance;
  missing : Braid_relalg.Tuple.t list;
  extra : Braid_relalg.Tuple.t list;
}

val divergence_to_string : divergence -> string

val check_answer :
  t ->
  Braid_caql.Ast.conj ->
  Braid_planner.Plan.provenance ->
  Braid_relalg.Relation.t ->
  divergence option
(** [None] when the answer satisfies its provenance's invariant. *)

val revalidate : t -> Braid_cache.Element.t -> bool
(** Whether a (recovered) element's content satisfies its invariant
    against current ground truth: set-equal when fresh, subset when
    stale. Passed as [validate] to {!Braid.Cms.recover}. *)

val same_state :
  Braid_cache.Cache_model.t -> Braid_cache.Cache_model.t -> (unit, string) result
(** The recovery invariant: [actual] reproduces [expected] byte-for-byte —
    same element ids in the same insertion order, same definitions,
    stale and pinned flags, and identical extension content. [Error]
    carries the first mismatch. *)
