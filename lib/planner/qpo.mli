(** The Query Planner/Optimizer and Execution Monitor (paper Figure 5,
    §5.3): plans each CAQL query in three steps and executes the plan.

    - {b Step 1 — determine the query to be evaluated}: with advice, the
      IE-query may be replaced by a {e generalization} (its view
      specification with parameters freed) when path tracking predicts
      repetition, so one remote request serves the whole family (§5.3.1).
    - {b Step 2 — determine relevant cache elements}: subsumption through
      the cache model's form index (§5.3.2), with the query's form
      ({!Braid_subsume.Form}) computed once and shared with step 1's
      identification and generalization. The configured {!caching_mode}
      only narrows which elements this step may use; the baseline
      disciplines of earlier systems run the same cover choice and the
      same step 3.
    - {b Step 3 — generate and execute the plan}: choose, per remaining
      subquery, cache vs remote execution by estimated cost (one shipped
      join vs per-relation fetches), build advice-recommended indexes,
      decide lazy vs eager representation, cache results, and update
      replacement pins from path tracking (§5.3.3, §5.4).

    The simulated elapsed time overlaps cache-side work with the remote
    request when [allow_parallel] is set (feature (e) of §5). *)

(** Which cache elements step 2 may use, and what step 3 caches. *)
type caching_mode =
  | No_cache  (** loose coupling: no covers, nothing cached *)
  | Exact_match
      (** BERMUDA-style result caching [IOAN88]: only the query's own
          cached result (a variant with equal constants) covers it, and
          only whole results are cached *)
  | Single_relation
      (** CERI86-style: each atom is covered only by the element defined
          as that atom's own selection, and fetched parts are cached as
          such selections, one request per atom with no shipped join and
          no semi-join filter *)
  | Subsumption  (** BrAID: any element that subsumes part of the query *)

type config = {
  caching : caching_mode;
  use_advice : bool;
  allow_lazy : bool;
  allow_generalization : bool;
  allow_prefetch : bool;
  allow_parallel : bool;
  advice_indexing : bool;
  allow_semijoin : bool;
      (** push IN-filters built from already-local join keys into remote
          requests when the modeled transfer saving beats shipping them *)
}

val braid_config : config
(** Everything on: BrAID as described in the paper. *)

val loose_coupling_config : config
(** No caching at all: every database goal becomes a remote request. *)

val bermuda_config : config
(** Exact-match result caching only, after BERMUDA [IOAN88]. *)

val ceri_config : config
(** Single-relation caching only, after [CERI86]: each atom's own
    selection, with its constants applied remotely, is fetched, cached and
    reused on its own. *)

val no_advice_config : config
(** Subsumption caching but no advice-driven features — isolates the
    contribution of subsumption itself. *)

type t

val create :
  ?rdi_policy:Braid_remote.Rdi.policy ->
  ?router:Braid_remote.Shard_router.t ->
  config ->
  cache:Braid_cache.Cache_manager.t ->
  server:Braid_remote.Server.t ->
  t
(** [rdi_policy] configures the resilient Remote DBMS Interface the planner
    routes every remote request through (retries, backoff, breaker);
    defaults to {!Braid_remote.Rdi.default_policy}.

    [router] shards the remote: when given (its coordinator should be
    [server]), every fetch routes through
    {!Braid_remote.Shard_router.exec} — partition-pruned to one shard or
    scatter-gathered — under per-shard RDI instances carrying [rdi_policy]
    (per-shard seed offsets), and {!remote_stats}/{!rdi_stats} aggregate
    over the fleet. Without it the planner talks to the single [server]
    exactly as before. *)

val config : t -> config
(** The configuration the planner was created with. *)

val cache : t -> Braid_cache.Cache_manager.t
(** The cache manager all step-2/step-3 decisions operate on. *)

val server : t -> Braid_remote.Server.t
(** The remote server behind {!rdi}. *)

val rdi : t -> Braid_remote.Rdi.t
(** The fault-tolerant remote interface all planner fetches go through
    when the remote is unsharded (see {!router}). *)

val router : t -> Braid_remote.Shard_router.t option
(** The shard router, when the remote is sharded. *)

val remote_stats : t -> Braid_remote.Server.stats
(** Remote-side accounting for this planner's fetch path: the single
    server's stats, or {!Braid_remote.Server.sum} over the shard fleet. *)

val rdi_stats : t -> Braid_remote.Rdi.stats
(** The RDI accounting on the fetch path (summed over shards when
    sharded). *)

val exec_remote : t -> Braid_remote.Sql.select -> Braid_remote.Rdi.outcome
(** One resilient remote request on this planner's fetch path (router or
    single RDI), bypassing any installed fetcher hook — the serving
    layer's coalescer uses this as its miss fallback. *)

val set_advice :
  ?nfa:Braid_advice.Tracker.nfa ->
  ?forms:Braid_subsume.Form.inst list ->
  t ->
  Braid_advice.Ast.t ->
  unit
(** Starts a new advice epoch on the {e default} session (a session's
    advice set, §3). [nfa] is the path's compiled tracker and [forms] the
    specs' forms, when the caller already has them (see
    {!Braid_advice.Advisor.create}). The previous
    epoch's element→spec links end here: every element they linked is
    unpinned (each flip journaled) and the links are dropped. *)

(** {1 Sessions}

    The planner's per-client state — the Advice Manager's path tracker,
    the element→spec association used for pinning, and the prefetched-spec
    set — lives in a [session], so that N concurrent IE streams can share
    one planner (and its cache, journal, and RDI breaker) without their
    advice tracking bleeding into one another. Every planner has a default
    session named ["main"]; single-client callers never need to mention
    sessions. *)

type session

val new_session : t -> ?sid:string -> Braid_advice.Ast.t -> session
(** A fresh session with its own advice epoch. [sid] defaults to ["s<n>"]
    with a per-planner counter. *)

val session_id : session -> string

val session_advisor : session -> Braid_advice.Advisor.t
(** The session's own advice manager (path tracking is per-session). *)

val set_fetcher :
  t -> (Braid_caql.Ast.conj -> Braid_remote.Sql.select -> Braid_remote.Rdi.outcome) option ->
  unit
(** Installs (or clears) a remote-fetch interceptor: when set, every
    planner fetch goes through it instead of calling {!Braid_remote.Rdi.exec}
    directly. The serving layer's coalescer uses this to deduplicate
    identical in-flight remote queries across sessions; the
    interceptor receives the definition being fetched alongside the SQL it
    compiles to, and must return the fetch outcome (typically by calling
    [Rdi.exec] itself on a miss). *)

type answer = {
  stream : Braid_stream.Tuple_stream.t;  (** results are always streamed to the IE (§3) *)
  plan : Plan.t;
  provenance : Plan.provenance;
      (** [Degraded] when any part of the answer came from a stale response,
          a stale cache element, or an unavailable remote *)
  spec_id : string option;  (** the view specification the query matched *)
}

exception Unknown_relation of string

val answer_conj :
  t -> ?session:session -> ?spec_id:string -> ?prefer_lazy:bool -> Braid_caql.Ast.conj -> answer
(** [prefer_lazy] is the interpretive IE's hint that it will consume the
    stream tuple-at-a-time; a lazy answer, a stream that computes each
    tuple on demand over the cached extensions, is used whenever the
    query is answerable from the cache alone (§5.1). A lazy answer is
    not itself cached. [session] selects whose advice
    tracking and pins the answer updates (default: the planner's default
    session). With a {!Braid_obs.Trace} tracer installed, every answer is
    recorded as a [qpo.answer] span whose [query], [plan] (the executed
    steps, ["; "]-separated) and [provenance] args are the observable
    record of the QPO's decisions. *)

type relation_answer = {
  relation : Braid_relalg.Relation.t;
      (** the caller's own row vector (the tuples are shared) *)
  rel_plan : Plan.t;
  index : (int list -> Braid_relalg.Index.t) option;
      (** set when [relation] is a cache element's extension, row for row
          and in order: the plan is a lone exact hit on an
          element and the evaluation returned that element's own tuples.
          [i cols] is the element's index on [cols], built through the
          cache manager on first use and kept, so it is charged to the
          cache's capacity. It indexes [relation]'s rows until the next
          write to the element. *)
}

val answer_relation :
  t -> ?session:session -> ?spec_id:string -> Braid_caql.Ast.conj -> relation_answer
(** {!answer_conj} for a caller that wants the whole answer at once: the
    same planning, caching and accounting, but an eager answer is handed
    over as the relation it was evaluated into, with no stream around it
    (a lazy one, chosen by advice, is forced). *)

val answer_query :
  t -> ?session:session -> Braid_caql.Ast.t -> Braid_relalg.Relation.t * Plan.t
(** Full CAQL: {!Braid_caql.Eval.walk}, CAQL's one operator interpreter,
    over planner-answered conjunctive leaves. A leaf that names a fixpoint
    in scope fetches its other atoms through the planner and is evaluated
    in the CMS. The plan lists the leaves' steps in evaluation order. *)

(** Per-planner counters since {!create}. Only this module writes them. *)
type metrics = private {
  mutable queries : int;
  mutable exact_hits : int;
  mutable full_hits : int;  (** answered without any remote interaction *)
  mutable partial_hits : int;  (** some cached data reused, some fetched *)
  mutable misses : int;
  mutable generalizations : int;
  mutable prefetches : int;
  mutable lazy_answers : int;
  mutable indexes_built : int;
  mutable degraded : int;  (** answers served with stale or incomplete data *)
  mutable semijoin_pushdowns : int;  (** remote requests shipped with IN-filters *)
  mutable semijoin_values : int;  (** total filter values shipped *)
  mutable local_ms : float;  (** simulated workstation time *)
  mutable elapsed_ms : float;  (** simulated wall-clock incl. overlap *)
}

val metrics : t -> metrics
(** A snapshot of the counters: later queries do not change it. The
    global [Braid_obs.Metrics] registry counts most of the same events
    under [qpo.<field>]; [semijoin_pushdowns] is registered as
    [qpo.semijoin_pushdown], [local_ms]/[elapsed_ms] are per-query
    histograms there, and [indexes_built] and [semijoin_values] have no
    registry counterpart. *)

val set_observer :
  t ->
  (Braid_caql.Ast.conj -> Plan.provenance -> Braid_relalg.Relation.t -> unit) option ->
  unit
(** Installs (or clears) an answer observer: called once per conjunctive
    query with the query, its provenance, and the materialized answer —
    the consistency oracle's hook. Materializing forces lazy answers
    (harmless for consumers — streams memoize — but it perturbs
    lazy-evaluation work counters, so benchmarked runs must leave the
    observer unset). *)

(**/**)

(* Exposed for tests: a new advice epoch on any session, the element→spec
   links replacement pinning reads, and the pinning step every answer runs
   twice. *)

val advise :
  ?nfa:Braid_advice.Tracker.nfa ->
  ?forms:Braid_subsume.Form.inst list ->
  t ->
  session ->
  Braid_advice.Ast.t ->
  unit
val associate : session -> string -> string -> unit
val update_pins : t -> session -> unit
