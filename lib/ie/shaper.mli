(** The problem graph shaper (paper §4.1): eagerly constrains the problem
    graph before any DBMS access.

    - Evaluates built-in conjuncts whose arguments are already bound
      ("constants may also be produced by evaluating predicates all of
      whose arguments are bound"); a false condition culls its AND branch.
    - Culls AND branches that require two mutually exclusive predicates on
      identical arguments (mutual-exclusion SOAs).
    - Orders conjuncts within each AND node by a bound-first,
      smallest-cardinality-first heuristic using catalog statistics
      ("cardinality and selectivity information from the DBMS schema ...
      is used to determine producer-consumer relationships"). Built-ins
      are placed as early as their variables allow. *)

type stats = {
  culled_by_condition : int;
  culled_by_mutex : int;
  conditions_evaluated : int;
  reordered_nodes : int;
}

val shape :
  Braid_logic.Kb.t ->
  cardinality:(string -> int) ->
  Problem_graph.t ->
  stats
(** Mutates the graph in place. [cardinality] typically comes from the
    remote catalog via the CMS. *)

val rule_orderings : Problem_graph.t -> (string * int list) list
(** For each rule id appearing in the (shaped) graph, the permutation
    applied to its body (positions into the original body), taken from the
    first instance encountered. The strategy controller replays these
    orderings when it expands rules dynamically. *)

val reorder : (string * int list) list -> Braid_logic.Rule.t -> Braid_logic.Literal.t list
(** [reorder orderings r] is [r]'s body in the order [orderings] records for
    its id (a renamed instance keeps its id), or as written when there is
    none. Both the strategy controller and the magic-set transform replay
    the shaper's order this way. *)
