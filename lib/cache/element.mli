(** Cache elements (paper §5: "a cache element is a relation defined by a
    CAQL expression").

    An element carries its view definition (for subsumption), its
    materialized {b extension}, hash indexes and the usage metadata the
    Cache Manager needs for replacement (§5.4). The paper also stores an
    element as a generator for lazy evaluation (§5.1); here a lazy answer
    is a stream over cached extensions and is not itself cached (see
    DESIGN.md §2).

    {b Size.} An element's {!bytes_estimate} always equals its
    extension's [Relation.bytes_estimate], plus [Index.bytes_estimate] of
    each of its indexes, plus the extension's bytes again for each sorted
    representation. The element keeps its extension's byte count in
    [ext_bytes], so reading the size costs O(indexes + sorted
    representations), not O(cached tuples). Only these functions set or
    change an extension, and each keeps [ext_bytes] with it: {!make} and
    the two delta functions {!insert_rows} and {!delete_rows}. No other
    code may assign [ext] or add rows to, or remove rows from, an
    element's extension. *)

type t = {
  id : string;
  def : Braid_caql.Ast.conj;  (** [def.head] describes the stored columns *)
  inst : Braid_subsume.Form.inst;
      (** [Braid_subsume.Form.of_conj def], computed once when the element
          is made: the cache model indexes the element by its form and
          atom constants, and the QPO's exact-hit test compares it *)
  mutable seq : int;
      (** the element's position in its cache model's insertion order, set
          by [Cache_model.add]: candidates of one predicate come oldest
          first *)
  mutable ext : Braid_relalg.Relation.t;
  mutable ext_bytes : int;
      (** [Relation.bytes_estimate] of the extension, kept current by the
          functions that change it (see {b Size} above) *)
  mutable indexes : (int list * Braid_relalg.Index.t) list;
      (** Invariant: an element's indexes always index its current
          extension, row for row. They are built on demand
          ({!ensure_index}, through [Cache_manager.ensure_index]) and
          kept across reads, so the Query Processor's probes and the
          set-oriented fixpoint's (through [Qpo.answer_relation]) reuse
          them from goal to goal; every write to the extension — an IVM
          delta ({!Maintain}) or its journal replay — drops them, and the
          next probe rebuilds them. Whoever asked for them, they count in
          {!bytes_estimate}, so they are charged to the cache's capacity
          while the element keeps them. *)
  mutable sorted : (int list * Braid_relalg.Relation.t) list;
      (** co-existing sorted representations (§5.2) *)
  mutable hits : int;
  mutable last_used : int;  (** logical clock of last use *)
  mutable pinned : bool;  (** advice predicts imminent reuse; spare it *)
  mutable stale : bool;
      (** the backing remote table changed (or could not be revalidated)
          since this extension was fetched; still servable, but answers
          built from it are flagged {e degraded} *)
  mutable delta_private : bool;
      (** [true] once this element's extension is a private copy that delta
          maintenance may mutate in place. The journal snapshots extensions
          {e by reference} (admit and checkpoint re-admit), so the
          first delta applied after any snapshot must copy-on-write; the flag
          is cleared by every journal snapshot event and set by
          {!Maintain}'s first subsequent apply. Replay follows the same
          rule, keeping recovery byte-identical. *)
  created_at : int;
}

val make : id:string -> def:Braid_caql.Ast.conj -> now:int -> Braid_relalg.Relation.t -> t
(** An element whose extension is the given relation, shared with whoever
    holds it ([delta_private] is [false]). *)

val schema : t -> Braid_relalg.Schema.t
val extension : t -> Braid_relalg.Relation.t

val insert_rows : t -> Braid_relalg.Tuple.t list -> unit
(** An IVM insert delta: appends the rows to the element's extension,
    after copying it if it is still shared with a journal snapshot, and
    drops the element's indexes and sorted representations. The one
    insert path of live maintenance ({!Maintain}) and of journal replay. *)

val delete_rows : t -> Braid_relalg.Tuple.t list -> bool
(** An IVM delete delta: removes one occurrence of each row
    ([Relation.remove_once]), on the same copy-on-write terms as
    {!insert_rows}, and drops indexes and sorted representations. The size
    shrinks only by the rows actually removed. [false] when some row was
    absent — the element diverged from its definition. *)

val stream : t -> Braid_stream.Tuple_stream.t
(** A stream over a snapshot of the extension's rows. *)

val ensure_index : t -> int list -> Braid_relalg.Index.t
(** Builds (and remembers) a hash index on the given columns. Returns the
    existing index when one is already present. The index is the
    element's: a caller may probe it but must not add to it or remove
    from it. *)

val index_on : t -> int list -> Braid_relalg.Index.t option

val sorted_on : t -> int list -> Braid_relalg.Relation.t
(** A representation of the element sorted ascending on the given columns —
    the paper's "co-existing, alternative representations of the same
    relation ... the case where alternative sortings are required" (§5.2).
    Built on first request, then remembered; the copies share the
    element's identity and are dropped with it. *)

val sorted_representations : t -> int list list

val bytes_estimate : t -> int
(** The element's size (see {b Size} above): extension, plus indexes,
    plus sorted representations. *)

val cardinality_estimate : t -> int
val pp : Format.formatter -> t -> unit
