(** Incremental view maintenance of PSJ cache elements from the remote's
    write stream.

    Every cache element is an {e extension}: a stored PSJ view whose
    content can be updated by delta propagation. On every single-tuple
    write to a base predicate this module classifies each dependent
    element and either

    - {b delta-maintains} it: the definition runs as a
      {!Braid_caql.Join_plan} led by the written atom, which reads the
      singleton delta — selections filter the delta, projections rewrite
      it, and joins probe each other atom's rows in place, in a Fresh
      element fully covering that predicate (through the
      element's own index where it has one) — and the resulting rows are
      journaled ({!Journal.log_delta_insert} / {!Journal.log_delta_delete})
      then applied to a private copy of the extension, keeping the element
      {e Fresh}; or
    - {b falls back} to the pre-IVM behavior: inserts [Mark_stale] the
      element (its content is still an honest subset), deletes {e drop} it
      (a stale element is only a sound subset under insert-only writes).

    The decision table (docs/CONSISTENCY.md):
    {ul
     {- already stale → fall back (content no longer exact);}
     {- the written predicate occurs more than once in the definition
        (self-join) → fall back (the delta has quadratic terms);}
     {- a join whose other side is not derivable from a Fresh element →
        fall back;}
     {- everything else (single-atom select/project views, and joins with
        cached other sides) → delta-maintained.}} *)

type write =
  | Insert of string * Braid_relalg.Tuple.t
  | Delete of string * Braid_relalg.Tuple.t
      (** a single-tuple write to a base predicate, post-application on the
          remote (the cache reacts after the source of truth changed) *)

type report = {
  maintained : int;  (** dependent elements kept Fresh by delta apply *)
  fallbacks : int;  (** dependent elements stale-marked or dropped *)
  dropped : int;  (** subset of [fallbacks] removed outright (deletes) *)
  rows_added : int;
  rows_removed : int;
}

val empty_report : report

val on_write :
  Cache_manager.t ->
  schema_of:(string -> Braid_relalg.Schema.t option) ->
  write ->
  report
(** Propagates one write into every dependent cache element, per the
    decision table above. Metrics: [cache.delta.applied],
    [cache.delta.rows_added], [cache.delta.rows_removed],
    [cache.delta.fallbacks]. *)

