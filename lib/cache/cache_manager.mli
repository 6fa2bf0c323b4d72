(** The Cache Manager (paper §5.4): maintains the cache and the cache
    model, stores and replaces cache elements, executes queries on cached
    data, and tracks the statistics replacement and experiments need. *)

type t

val create : ?journal:Journal.t -> ?model:Cache_model.t -> capacity_bytes:int -> unit -> t
(** [journal] adopts an existing journal (recovery: the log survives the
    crash and keeps growing); a fresh one is created otherwise. [model]
    adopts a replayed cache model ({!Journal.replay}); an empty one is
    created otherwise. *)

val model : t -> Cache_model.t

val journal : t -> Journal.t
(** The write-ahead log of every cache state change. *)

val checkpoint : t -> int
(** Writes a checkpoint — the epoch marker followed by re-admissions of
    every live element with its current extension and flags — and
    returns the new epoch. The journal drops everything before it; replay
    starts from it.

    The cache manager also checkpoints itself, at the start of {!insert}
    and after a pin flip, once the journal holds {!Journal.compact_at}
    entries. *)

val insert :
  t -> ?id:string -> def:Braid_caql.Ast.conj -> Braid_relalg.Relation.t -> Element.t option
(** Stores a new element with the given extension, evicting by (advice-modified) LRU to make room.
    Returns [None] — and caches nothing — when the element alone exceeds
    capacity. A generated [id] is used when none is given. *)

val find : t -> string -> Element.t option

val find_exact : t -> Braid_caql.Ast.conj -> Element.t option
(** The oldest element whose definition is a variant of the query with
    equal constants (exact-match reuse): one lookup of
    {!Cache_model.find_variant}. *)

val relevant_covers :
  t -> Braid_subsume.Form.inst -> (Element.t * Braid_subsume.Subsumption.cover) list
(** Step 2 of §5.3.2: all (element, cover) pairs usable to derive part of
    the query, found through the form index ({!Cache_model.covers}). Pairs
    come in candidate order — the query's predicates sorted, each
    predicate's elements oldest first, an element counted once — and each
    element's covers in the order {!Braid_subsume.Subsumption.covers}
    finds them. The QPO's cover choice breaks ties by this order. *)

val eval : t -> ?extra:(string * Braid_relalg.Relation.t) list -> Braid_caql.Ast.t ->
  Braid_relalg.Relation.t
(** Evaluate over cache element ids; accumulates touched-tuple counts. *)

val eval_conj_lazy : t -> Braid_caql.Ast.conj -> Braid_stream.Tuple_stream.t

val ensure_index : t -> Element.t -> int list -> Braid_relalg.Index.t
(** {!Element.ensure_index}, counted in [indexes_built] when it builds.
    An element's indexes are charged to the cache's capacity with it
    ({!Element.bytes_estimate}) from the moment they are built; building
    one evicts nothing, so the next {!insert} makes room for it. *)

val pin : t -> string -> bool -> unit
(** Sets/clears the pinned flag of an element, if present. *)

val pin_epoch : t -> int
(** The number of pin transitions (calls to {!pin} that changed a flag)
    since {!create}. A client that remembers it after pinning knows, while
    it is unchanged, that nobody else has flipped a flag since. *)

val invalidate_pred : t -> string -> string list
(** Drops every element whose definition mentions the given base relation —
    the consistency action when the remote table changes. Returns the
    removed element ids. (The paper treats the DBMS as read-mostly during a
    session; this is the maintenance hook a production deployment needs.) *)

val mark_stale_pred : t -> string -> string list
(** Degraded-mode alternative to {!invalidate_pred}: keeps the dependent
    elements but marks them stale, so they stay servable while the remote
    is unreachable. Answers touching them are flagged degraded. Returns
    the ids newly marked. *)

val mark_stale_element : t -> Element.t -> pred:string -> unit
(** Per-element stale-mark (journaled), used by {!Maintain} when one
    dependent of a written predicate is not delta-maintainable but its
    siblings are. No-op when already stale. *)

val remove_element : t -> Element.t -> pred:string -> unit
(** Per-element drop (journaled), used by {!Maintain} on deletes: a stale
    element is only an honest {e subset} of ground truth under insert-only
    writes, so a non-maintainable dependent of a delete must be dropped
    rather than stale-marked (see docs/CONSISTENCY.md). *)

(** Cache accounting since {!create}. Only this module writes it. *)
type stats = private {
  mutable insertions : int;
  mutable evictions : int;
  mutable tuples_touched : int;  (** workstation tuples processed by the QP *)
  mutable indexes_built : int;
  mutable stale_touches : int;  (** tuples read from stale elements (degraded) *)
}

val stats : t -> stats
(** A snapshot: later cache work does not change it. *)
