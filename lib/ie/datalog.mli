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

    A semi-naive round costs its delta, not the totals. Before round 0
    every rule is compiled to {!Braid_caql.Join_plan} plans, one for round
    0 and one per derived body occurrence, led by that occurrence's delta:
    the rows its total gained in the previous round. Their inputs are the
    totals, which only grow, in first-derivation order, and the static
    relations (fetched components, supplied extensions, empty failures);
    head tuples go straight into the predicate's seen-set and next delta.
    A run's state is its own and nothing outlives it, except the indexes
    of a fetch that handed out its own (see {!exec}); components that are
    variants are one fetch and share their indexes.

    A join order changes only the order in which a round meets its
    tuples. So the rounds, [tuples_produced] and every fixpoint size are
    those of joining each rule body in written order, and answers are
    equal as sets; the order of their rows may differ. The test suite
    keeps a naive fixpoint, which re-derives every relation from scratch
    each round through the tuple-at-a-time
    {!Braid_caql.Eval.lazy_conj}, as the oracle the plans are checked
    against. *)

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

(** {1 A program compiled once}

    The plans, the componentized rules and every schema depend on the KB,
    the rules skipped, the catalog schemas and the query's form, not on
    the query's constants. [compile] builds them once; [exec] runs them
    for one set of constants. *)

type program

val compile :
  Braid_logic.Kb.t ->
  ?skip_rules:string list ->
  ?params:Braid_relalg.Value.t list ->
  schema:(string -> Braid_relalg.Schema.t option) ->
  Braid_logic.Atom.t ->
  program
(** What [run] does before round 0 in [Conj_fetch] mode. Every constant of
    the query or of a rule head or body that equals one of [params]
    becomes that parameter; a fetched component must not mention one.
    Raises what [run] raises for an unsafe rule or a base relation
    without a schema. *)

val exec :
  program ->
  args:Braid_relalg.Value.t list ->
  fetch:
    (Braid_caql.Ast.conj ->
    Braid_relalg.Relation.t * (int list -> Braid_relalg.Index.t) option) ->
  outcome
(** Runs the program with [args] in place of its [params], fetching each
    distinct component once. A fetch returns the component's rows and,
    optionally, where indexes on them come from: [Some ix] when something
    already keeps indexes on exactly those rows, in that order (a cache
    element whose extension the fetch returned), so that [ix cols] is an
    index on [cols] over them; the run then probes those instead of
    building its own. [exec (compile kb ~schema q) ~args:[]
    ~fetch:(fun c -> (fetch c, None))] is
    [run kb ~source:(Conj_fetch { fetch; schema }) q]. *)
