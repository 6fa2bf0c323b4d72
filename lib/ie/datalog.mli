(** A local bottom-up datalog evaluator.

    The compiled end of the I-C range needs "a fixed point operator" for
    recursively defined relations (paper §2: second-order templates with
    specialized operators), because the remote DBMS of the paper's era
    cannot evaluate recursion. The set-oriented strategy runs this
    fixpoint on the workstation and lets it drive conjunctive fetches
    through the CMS (see {!source}).

    The fixpoint is semi-naive, with set semantics: rounds after the first
    join each rule once per recursive body occurrence with that occurrence
    restricted to the previous round's {e delta}, so settled tuples are not
    re-derived. The [tuples_produced] counter measures that work.

    A semi-naive round costs its delta, not the totals. Its state is
    scoped to one [run] and nothing outlives it:
    - each derived predicate keeps one tuple set of everything derived so
      far, and its total only grows: a round appends its fresh tuples in
      place, in first-derivation order;
    - joins probe indexes kept for the whole run, keyed by predicate and
      join columns and built on first use. Static relations (fetched
      components, supplied extensions) are indexed once. A derived total's
      indexes grow with its appends. A delta gets no run-scoped index: the
      join indexes it for that call alone.

    Answers, their order and every counter are those of rebuilding the
    totals each round. The test suite keeps a naive fixpoint, which
    re-derives every relation from scratch each round, as the oracle the
    semi-naive rounds are checked against. *)

type outcome = {
  result : Braid_relalg.Relation.t;  (** bindings for the query's variables *)
  iterations : int;
  tuples_produced : int;  (** total tuples materialized across rounds *)
  fetches : int;  (** conjunctive fetches issued ([Conj_fetch] mode; else 0) *)
  fetched_tuples : int;  (** tuples returned by those fetches *)
  derived_sizes : (string * int) list;
      (** fixpoint cardinality of every derived predicate evaluated —
          includes magic predicates when the program was magic-transformed,
          which is what the selectivity accounting reads *)
}

(** How base relations are obtained.

    - [Extensions]: extensions are supplied locally (reference fixpoints
      and tests pass them directly).
    - [Conj_fetch]: the evaluator requests base data itself, one
      conjunctive CAQL query per maximal variable-connected group of base
      atoms in a rule body (with the comparisons the group covers shipped
      as selections). Routed through the QPO these fetches become ordinary
      PSJ cache elements — subsumption, advice, sharded routing, and IVM
      all see them. [schema] resolves base relation schemas statically
      (normally the remote catalog). *)
type source =
  | Extensions of (string -> Braid_relalg.Relation.t option)
  | Conj_fetch of {
      fetch : Braid_caql.Ast.conj -> Braid_relalg.Relation.t;
      schema : string -> Braid_relalg.Schema.t option;
    }

exception Unknown_base_relation of string
(** Raised when a predicate {e declared} base has no extension: absent from
    [Extensions], or without a catalog schema in [Conj_fetch] mode. (An
    all-[Tstr] empty placeholder here would silently type-mismatch an
    int-keyed join.) Predicates that are neither derived nor declared
    still fail softly — empty, as in Prolog. *)

val run :
  Braid_logic.Kb.t ->
  ?skip_rules:string list ->
  source:source ->
  Braid_logic.Atom.t ->
  outcome
(** Evaluates all derived predicates reachable from the query to a fixpoint
    over the base extensions obtained per [source], then answers the query
    atom. The result schema names the query's distinct variables in order;
    constants in the query act as selections. Raises
    [Braid_caql.Eval.Unsafe] on non-range-restricted rules. *)

val solve :
  Braid_logic.Kb.t ->
  ?skip_rules:string list ->
  base:(string -> Braid_relalg.Relation.t option) ->
  Braid_logic.Atom.t ->
  outcome
(** [run] with [source = Extensions base]. *)
