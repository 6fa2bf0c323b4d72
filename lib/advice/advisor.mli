(** The Advice Manager's decision logic (paper Figure 5; §4.2's list of
    "critical decisions": prefetching, result caching, replacement,
    attribute indexing, cache-vs-DBMS execution, lazy-vs-eager evaluation,
    generalization).

    Stateless recommendations are derived from binding annotations; the
    stateful ones come from path-expression tracking. The CMS "only
    receives advice ... nor is advice necessary for the CMS to function"
    (§3) — with no advice every recommendation degrades to a neutral
    default. *)

type t

val create : ?nfa:Tracker.nfa -> ?forms:Braid_subsume.Form.inst list -> Ast.t -> t
(** [nfa], when given, must be [Tracker.compile] of the advice's path (or
    of a path with the same shape and spec ids: the NFA reads only the
    ids), and saves compiling it again; trackers started on one [nfa]
    share its DFA. [forms], when given, must be {!spec_form} of each spec,
    in the advice's order, and saves computing them. *)

val no_advice : unit -> t

val specs : t -> Ast.view_spec list
val find_spec : t -> string -> Ast.view_spec option

val identify : t -> Braid_subsume.Form.inst -> Ast.view_spec option
(** Which view specification the query instantiates ("any given CAQL query
    will necessarily be a single view specification with zero or more query
    constants", §4.2.1): the first spec, in advice order, whose definition
    fully covers the query ({!Braid_subsume.Subsumption.subsumes}, through
    the match plan of the two forms). *)

val observe : t -> string -> unit
(** Advance path tracking: a query for this spec id has arrived. *)

val predicted_next : t -> Ast.view_spec list
(** Specs that may be asked for next — prefetch candidates. Computed once
    per tracker position: until the next {!observe}, every call returns
    the same list. *)

val keep : t -> string list
(** The ids of the {!predicted_next} specs that {!may_occur_later}: the
    specs whose elements replacement pins. Computed with
    {!predicted_next}, and likewise the same list until the next
    {!observe}. *)

val may_occur_later : t -> string -> bool
(** Whether queries for this spec may still arrive (replacement pinning
    keeps such elements; defaults to [true] without a path expression). *)

val expects_repetition : t -> string -> bool
(** After the current position, can the same spec recur? This is the signal
    for query generalization: fetch the whole parameterized family once
    instead of one instance per constant. *)

val index_recommendation : Ast.view_spec -> int list
(** Consumer-annotated head positions — "prime candidates for indexing". *)

val recommend_lazy : Ast.view_spec -> bool
(** Producer-only relations are "well advised to be produced lazily and
    without any indexing" (§4.2.1). *)

val should_cache_result : t -> Ast.view_spec -> bool
(** False for a producer-only relation with no predicted future request
    ("it may also choose not to cache the relation if there are no other
    predicted requests for it", §4.2.1). *)

val generalized : Ast.view_spec -> Braid_caql.Ast.conj
(** The spec's defining conjunction with all parameters free — the
    generalization target of QPO step 1. *)

val spec_form : t -> Ast.view_spec -> Braid_subsume.Form.inst
(** [Braid_subsume.Form.of_conj (generalized s)], as {!create} received
    it or computed once per spec record and advisor: identification,
    generalization and the QPO's exact-match probes for the spec all read
    it. *)
