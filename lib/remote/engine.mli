(** The remote DBMS's storage and query executor.

    Executes the SQL subset over stored relations through the cost-based
    plan enumerator ([Qplan]): per-source access paths (sequential,
    composite-index probe, covering index-only, bitmap), enumerated join
    order, and per-join strategy (hash, sort-merge, index-nested-loop).
    Reports how many tuples each chosen operator actually touched so the
    server can charge simulated cost for the work. *)

type t

val create : unit -> t

val catalog : t -> Catalog.t

val insert : t -> string -> Braid_relalg.Tuple.t -> unit

val delete : t -> string -> Braid_relalg.Tuple.t -> bool
(** Removes one occurrence of the tuple (bag semantics) and maintains the
    catalog ({!Catalog.note_delete}). [false] when the tuple is absent.
    Raises [Invalid_argument] on unknown tables. *)

val load : t -> Braid_relalg.Relation.t -> unit
(** Creates (or replaces) a table named after the relation and refreshes
    catalog statistics. *)

val table : t -> string -> Braid_relalg.Relation.t
(** Raises [Not_found]. *)

val execute : t -> Sql.select -> Braid_relalg.Relation.t * int
(** [execute t q] is [(result, tuples_scanned)]. The result schema names
    attributes [alias.attr]. Raises [Invalid_argument] on unknown tables or
    columns. *)

val execute_explained :
  t -> Sql.select -> Braid_relalg.Relation.t * int * Qplan.explain * Qplan.t
(** Like [execute], also returning the explain tree (actual cardinalities
    filled in) and the chosen plan. *)

val execute_naive : t -> Sql.select -> Braid_relalg.Relation.t * int
(** The pre-enumerator pipeline: FROM-order left-deep hash joins with
    index probes for [col = const] only. Baseline for experiments and
    plan-equivalence tests. *)

val explain : t -> Sql.select -> string
(** Plans and runs the query, returning the rendered plan tree (signature,
    modeled cost, estimated vs actual rows per operator). *)

val plan_counters : t -> Qplan.counters
(** Cumulative plan-choice counters across every execution on this engine
    (deterministic; used by experiment gating). *)

val last_explain : t -> Qplan.explain option
