(** Cost-based plan enumeration for the remote engine.

    Turns a [Sql.select] into an explicit operator tree — an access path
    per source (sequential, composite-index probe, covering index-only,
    bitmap, or one index probe per value of a semi-join IN-set) and a
    strategy per join (hash, sort-merge, index-nested-loop,
    product) — with the join order chosen by dynamic programming over the
    sources (greedy beyond 6), driven by [Catalog] cardinality and
    per-column distinct counts. Plan choice always weighs operators with
    [Cost_model.default], so the chosen plan is deterministic and
    independent of a server's accounting configuration. *)

type t
(** A chosen plan. *)

type counters = private {
  mutable hash_joins : int;
  mutable merge_joins : int;
  mutable inlj_joins : int;
  mutable products : int;
  mutable seq_scans : int;
  mutable index_probes : int;
  mutable index_only_scans : int;
  mutable bitmap_scans : int;
  mutable semijoin_filters : int;
}
(** Deterministic plan-choice counters, bumped at execution. Only this
    module writes them. *)

val fresh_counters : unit -> counters

type explain = {
  label : string;
  est_rows : int;
  mutable actual_rows : int;
  children : explain list;
}
(** One operator of the executed plan: what ran, what the planner expected,
    what actually came out. *)

val plan :
  Catalog.t -> lookup:(string -> Braid_relalg.Relation.t) -> Sql.select -> t
(** Enumerate and return the cheapest plan. [lookup] resolves a table name
    to its extension and raises [Invalid_argument] for unknown tables. *)

val plan_naive :
  Catalog.t -> lookup:(string -> Braid_relalg.Relation.t) -> Sql.select -> t
(** The pre-enumerator pipeline (FROM-order left-deep hash joins, index
    probes for [col = const] only) costed under the same model — the
    baseline experiments and tests compare against. *)

val modeled_cost : t -> float
(** Total modeled cost (simulated ms) of the plan under
    [Cost_model.default]. *)

val plan_signature : t -> string
(** Compact one-line shape, e.g. ["inlj(hash(o,c+probe),p)"]. *)

val run :
  Catalog.t ->
  lookup:(string -> Braid_relalg.Relation.t) ->
  ?counters:counters ->
  t ->
  Sql.select ->
  Braid_relalg.Relation.t * int * explain
(** Execute the plan: [(result, tuples_scanned, explain)]. Scanned charges
    the tuples each operator actually touched: base rows for scans, bucket
    rows for probes, directory keys for index-only scans, and both input
    sides for joins (outer side + probed bucket rows for index-nested-loop
    — never an intermediate's output cardinality). *)

val explain_to_string : explain -> string
(** Indented plan tree with estimated vs actual cardinalities. *)
