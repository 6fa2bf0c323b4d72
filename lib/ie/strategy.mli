(** The inference strategy controller (paper §4.1/Figure 4).

    BrAID's IE "does not use a built-in inferencing strategy. Rather, it
    makes available a set of component functions that can be combined into
    various tailored function suites ... to effect several different
    strategies along the I-C range". The suites provided:

    - {!Interpretive}: depth-first with chronological backtracking (the
      "well-known ... strategy of Prolog"), one CAQL query per database
      goal, results consumed tuple-at-a-time from lazy streams,
      single-solution on demand.
    - {!Conjunction_compiled}[ k]: the same search, but maximal runs of up
      to [k] consecutive database conjuncts are compiled into one CAQL
      query (partial compilation / conjunction compilation, §2).
    - {!Set_oriented}: the compiled end of the range, set-at-a-time and
      all-solutions. The reachable fragment is first magic-set transformed
      (see {!Magic}) so bottom-up derivation touches only query-relevant
      tuples; for an all-free goal the transform is the identity and this
      is plain compiled evaluation. The transform and the fixpoint's rule
      plans are compiled once per goal form ({!compile_set}), the goal's
      constants being the program's parameters. The semi-naive {!Datalog}
      fixpoint then runs in [Conj_fetch] mode — including recursion via the fixpoint
      operator: each rule body's base component is requested as {e one}
      conjunctive CAQL query through the QPO/CMS (not a whole-extension
      dump, and not one query per binding), so every fetch is a PSJ cache
      element that subsumption, advice, sharded routing, and IVM all
      see. *)

type kind =
  | Interpretive
  | Conjunction_compiled of int
  | Set_oriented
  | Adaptive
      (** the paper's long-run goal ("a step toward ... an inference system
          capable of adapting its choice of inference search strategy to
          the problem at hand", §4): chooses per query between the
          interpretive and the set-oriented suite by comparing their
          estimated costs from catalog statistics — selective (constant-
          bound) queries run interpretively; broad recursive queries run
          set-oriented. *)

val label : kind -> string
(** ["interpretive"], ["conjunction-N"], ["set-oriented"] or ["adaptive"]. *)

val of_label : string -> (kind, string) result
(** The inverse of {!label}; [Error] carries a one-line message naming the
    accepted labels. Shared by the CLI's [--strategy] and the REPL's
    [:strategy]. *)

type counters = {
  mutable resolutions : int;  (** SLD steps / fixpoint tuples: workstation inference work *)
  mutable db_goal_queries : int;  (** CAQL queries issued to the CMS *)
}

exception Depth_limit of int
exception Unbound_builtin of string

type set_program
(** The set-oriented suite compiled for one goal form: the (magic-)
    transformed program and its {!Datalog.program}, whose parameters stand
    for the goal's constants. *)

val compile_set :
  Braid_logic.Kb.t ->
  Braid_planner.Qpo.t ->
  orderings:(string * int list) list ->
  skip_rules:string list ->
  params:Braid_relalg.Value.t list ->
  Braid_logic.Atom.t ->
  set_program
(** Magic-transforms the goal (the transform needs its constants only for
    the seed) and compiles the result against the remote catalog's
    schemas. Every constant equal to one of [params] becomes a parameter:
    a caller that compiles a form once passes a goal whose constants are
    sentinels that occur nowhere in the KB, and lists them here. *)

type solutions =
  | Lazily of Braid_stream.Tuple_stream.t
      (** the interpretive suites' stream: pulling one solution performs
          only the inference needed for it *)
  | All of Braid_relalg.Relation.t
      (** the set-oriented suite's answer, computed up front
          (all-solutions semantics); the caller owns the row vector *)

val solutions :
  kind ->
  Braid_logic.Kb.t ->
  Braid_planner.Qpo.t ->
  orderings:(string * int list) list ->
  counters:counters ->
  ?max_depth:int ->
  ?skip_rules:string list ->
  set_program:(unit -> set_program * Braid_relalg.Value.t list) ->
  Braid_logic.Atom.t ->
  solutions
(** Solutions as tuples over the query's distinct variables (in order of
    first occurrence). Duplicate solutions are preserved for the
    interpretive strategies (as in Prolog) and absent for the set-oriented
    one (set semantics). [skip_rules] are rules the problem graph shaper proved
    useless for this query (culled by a false condition or a
    mutual-exclusion SOA); the controller never expands them.
    [set_program] gives the compiled program of a derived goal's form with
    the goal's values for its parameters; only the set-oriented suite
    asks for it, once per goal. *)
