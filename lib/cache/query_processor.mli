(** The Cache Manager's Query Processor (paper §5/Figure 5): performs the
    DBMS-like operations — joins, selections, projection, aggregation — on
    cache elements, using hash indexes when available.

    Queries given to this module are CAQL expressions whose relation
    occurrences name {e cache element ids} (the Query Planner/Optimizer
    rewrites user queries into this form); [extra] supplies scratch
    relations such as buffers just received from the remote DBMS.

    Evaluation is under bag semantics, like {!Braid_caql.Eval} — which is
    what makes single-tuple delta maintenance exact ({!Maintain}): an
    element patched by append/remove-once stays interchangeable with a
    from-scratch recomputation of its definition. Reading a {e stale}
    element is legal but reported ([stale_hook]); the planner downgrades
    any answer it contributed to [Degraded] (docs/CONSISTENCY.md). *)

exception Unknown_relation of string

val eval :
  Cache_model.t ->
  ?extra:(string * Braid_relalg.Relation.t) list ->
  ?stale_hook:(int -> unit) ->
  Braid_caql.Ast.t ->
  Braid_relalg.Relation.t * int
(** Eager evaluation; the second component counts tuples touched in the
    cache (for workstation-cost accounting). Elements used are touched for
    LRU/hit statistics. [stale_hook] fires with the touched-tuple count
    each time a {e stale} element contributes (degraded operation): the
    planner uses it to tag answers built from stale data. *)

val eval_conj_lazy :
  Cache_model.t ->
  ?stale_hook:(int -> unit) ->
  Braid_caql.Ast.conj ->
  Braid_stream.Tuple_stream.t
(** Lazy answer stream over cached data only (possible exactly when all
    required data is in the cache, §5.1). [stale_hook] fires at stream
    construction when a stale element is a source. *)
