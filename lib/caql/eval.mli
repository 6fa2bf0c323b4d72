(** CAQL evaluation.

    Two evaluation modes, matching the CMS's two data representations
    (§5.1): {b eager} evaluation producing a full extension, and {b lazy}
    evaluation producing a generator that computes one solution tuple on
    demand (depth-first with chronological backtracking over the atom
    list).

    Both are parameterized by [source], the function that resolves a
    relation occurrence to data — the caller (Cache Manager, remote engine
    wrapper, or test harness) decides where the extension comes from. *)

exception Unsafe of string
(** Raised when a head or comparison variable is not range-restricted:
    {!Join_plan.Unsafe}, under a second name. *)

val conj :
  source:(Braid_logic.Atom.t -> Braid_relalg.Relation.t) ->
  schema_of:(string -> Braid_relalg.Schema.t option) ->
  Ast.conj ->
  Braid_relalg.Relation.t
(** Eager bottom-up evaluation: the conjunct compiled to a
    {!Join_plan} led by its first atom and run over the [source]
    relations, each atom's resolved once, in written order, before the
    plan runs. The result shares tuples with the [source] relations (a
    head naming one atom's columns in order keeps them whole) but always
    owns its row vector, so writes to either side never reach the
    other. *)

val query :
  source:(Braid_logic.Atom.t -> Braid_relalg.Relation.t) ->
  schema_of:(string -> Braid_relalg.Schema.t option) ->
  Ast.t ->
  Braid_relalg.Relation.t
(** Full CAQL: {!walk} over {!conj}, with a fixpoint's name resolving to
    its accumulated relation inside its step. *)

val walk :
  conj:(bound:(string * Braid_relalg.Relation.t) list -> Ast.conj -> Braid_relalg.Relation.t) ->
  Ast.t ->
  Braid_relalg.Relation.t
(** The operator tree walk — union (set semantics), difference, distinct,
    division, fixpoint, aggregation — over a caller-supplied evaluator of
    the conjunctive leaves. [bound] holds the fixpoint names in scope
    (innermost first) with their relations so far. Operands are evaluated
    left to right, so a caller's side effects (plan steps, cache traffic)
    follow the tree's reading order. *)

val lazy_conj :
  source:(Braid_logic.Atom.t -> Braid_stream.Tuple_stream.t) ->
  schema_of:(string -> Braid_relalg.Schema.t option) ->
  Ast.conj ->
  Braid_stream.Tuple_stream.t
(** Lazy generator: tuples are produced on demand; the amount of work done
    (visible through the sources' [produced] counters) is proportional to
    how far the consumer pulls. *)
