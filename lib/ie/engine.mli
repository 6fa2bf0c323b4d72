(** The Inference Engine (paper §4, Figure 4), end to end.

    A call to {!solve} runs one IE–CMS {e session} (§3): the AI query is
    translated, the problem graph is extracted and shaped, advice (view
    specifications and a path expression) is generated and submitted to the
    CMS, and then the strategy controller walks the graph issuing CAQL
    queries. The report captures what each pipeline stage did. *)

type t

val create :
  ?strategy:Strategy.kind ->
  ?max_depth:int ->
  ?send_advice:bool ->
  Braid_logic.Kb.t ->
  Braid_planner.Qpo.t ->
  t
(** [strategy] defaults to {!Strategy.Interpretive}; [send_advice] (default
    true) controls whether the generated advice is transmitted to the CMS —
    advice is never {e required} by the CMS (§3). *)

val kb : t -> Braid_logic.Kb.t
val qpo : t -> Braid_planner.Qpo.t
val strategy : t -> Strategy.kind

type report = {
  graph_size : Problem_graph.size;
  shaper_stats : Shaper.stats;
  advice : Braid_advice.Ast.t;
  counters : Strategy.counters;
}

val solve : t -> Braid_logic.Atom.t -> Braid_stream.Tuple_stream.t * report
(** Solutions as a stream of tuples over the query's distinct variables.
    With an interpretive strategy the stream is demand-driven: inference
    (and hence CMS/DBMS work) happens as the consumer pulls. *)

val solve_all : t -> Braid_logic.Atom.t -> Braid_relalg.Relation.t * report
(** Forces all solutions. *)

val solve_first : t -> ?n:int -> Braid_logic.Atom.t ->
  Braid_relalg.Tuple.t list * report
(** Pulls at most [n] (default 1) solutions — the single-solution,
    tuple-at-a-time usage pattern of §2. *)

val ie_ms : t -> float
(** Simulated workstation inference time accumulated so far (resolution
    steps times the cost model's per-step charge). *)

(** {1 The front end, compiled once per goal form}

    Extraction, shaping and advice generation depend on a goal's {e form}:
    its predicate, its variables, and which positions hold constants of
    which equality class. {!solve} compiles each form once, for the goal
    with every class replaced by a sentinel constant that occurs nowhere in
    the KB, and instantiates the result (sentinel → constant in the advice;
    spec ids and order unchanged) for every later goal of that form.

    A template is reused only while the KB's {!Braid_logic.Kb.generation}
    and every catalog cardinality the shaper consulted are unchanged. A goal
    whose constant is also a KB constant, and every goal of a form whose
    extracted graph has a condition on a goal constant (the shaper evaluates
    it), is compiled on its own by {!compile}.

    The set-oriented suite's program ({!Strategy.compile_set}: the
    magic-set transform, the componentized rules and their join plans) is
    kept with the template too. It is compiled on the form's first
    set-oriented goal, for the sentinel goal, and each later goal of the
    form runs it with its own constants as the parameters: the magic seed
    and the answer's selection are the only parts that depend on them. A
    goal compiled on its own compiles its program on its own. *)

type front_end = {
  advice : Braid_advice.Ast.t;
  nfa : Braid_advice.Tracker.nfa option;
      (** the compiled path tracker, kept with a template *)
  spec_forms : Braid_subsume.Form.inst list option;
      (** with a template, each spec's {!Braid_advice.Advisor.spec_form}:
          the template's, with the goal's values in the sentinels'
          parameters *)
  orderings : (string * int list) list;  (** {!Shaper.rule_orderings} *)
  skip_rules : string list;  (** rules the shaper culled entirely *)
  graph_size : Problem_graph.size;
  shaper_stats : Shaper.stats;
}

type compile =
  | Hit  (** instantiated from the form's template *)
  | Miss  (** the form's template was compiled, then instantiated *)
  | Per_goal  (** compiled for this goal alone *)

val front_end : t -> Braid_logic.Atom.t -> front_end * compile
(** What {!solve} uses. *)

val compile : t -> Braid_logic.Atom.t -> front_end
(** Extract, shape and advise this very goal, ignoring templates. *)
