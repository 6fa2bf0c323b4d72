(** Crash-consistent cache journal: a write-ahead log of every operation
    that changes the cache model — admissions, forced materializations,
    evictions, invalidations ([`Drop`]), stale-marks ([`Mark_stale`]) and
    pin changes — plus periodic checkpoints. A checkpoint drops the log
    before it, so the journal holds only what replay reads.

    The journal is the durable artifact of the simulated CMS process: when
    a {!Braid_remote.Fault.Crash} kills the CMS mid-run, {!replay} rebuilds
    the cache model from the last checkpoint so the recovered CMS resumes
    with byte-identical element ids, representations and stale flags.
    Extension snapshots share the admitted relation by reference; delta
    maintenance therefore copies-on-first-write before mutating an
    extension (see {!Element.t.delta_private}) and journals every applied
    delta ([Delta_insert]/[Delta_delete]) so replay reproduces the
    maintained state exactly. Generator content is volatile — only the
    definition is durable, and recovery re-binds it to a fresh stream over
    ground truth (see docs/CONSISTENCY.md and docs/ARCHITECTURE.md,
    "Consistency model & recovery"). *)

type snapshot =
  | Extension of Braid_relalg.Relation.t
      (** shared reference to the admitted extension *)
  | Generator_def  (** lazy element: only the definition is durable *)

type entry =
  | Admit of {
      seq : int;
      id : string;
      def : Braid_caql.Ast.conj;
      snap : snapshot;
      stale : bool;
      pinned : bool;
      at : int;  (** logical-clock admission time *)
      by : string;  (** session context at write time; [""] = unattributed *)
    }
  | Materialize of { seq : int; id : string; rel : Braid_relalg.Relation.t; by : string }
      (** a generator was forced into this extension *)
  | Evict of { seq : int; id : string; pinned_fallback : bool; by : string }
      (** replacement eviction; [pinned_fallback] marks the last-resort
          eviction of a pinned element *)
  | Remove of { seq : int; id : string; pred : string; by : string }
      (** [`Drop] invalidation triggered by a change to [pred] *)
  | Mark_stale of { seq : int; id : string; pred : string; by : string }
  | Pin of { seq : int; id : string; flag : bool; by : string }
  | Delta_insert of {
      seq : int;
      id : string;
      pred : string;  (** the written base predicate that produced the delta *)
      rows : Braid_relalg.Tuple.t list;
      by : string;
    }
      (** incremental maintenance appended these rows to the element's
          extension (see {!Maintain}); replay re-applies them against a
          private copy of the journaled snapshot *)
  | Delta_delete of {
      seq : int;
      id : string;
      pred : string;
      rows : Braid_relalg.Tuple.t list;
      by : string;
    }
      (** incremental maintenance removed one occurrence of each row from
          the element's extension (bag semantics) *)
  | Checkpoint of { seq : int; epoch : int }
      (** marker; immediately followed by re-admissions of every element
          live at the checkpoint, carrying current flags and
          representations *)

type t

val create : unit -> t

val set_context : t -> string -> unit
(** Sets the session id stamped (as [by]) on every subsequently written
    entry — the serving layer brackets each session's execution slot with
    this so admission/eviction/stale-mark interleavings across concurrent
    sessions stay attributable after a crash. [""] clears the context
    (entries revert to unattributed, the single-session default). *)

val context : t -> string
(** The current session context ([""] when none). *)

val log_admit :
  t ->
  id:string ->
  def:Braid_caql.Ast.conj ->
  snap:snapshot ->
  stale:bool ->
  pinned:bool ->
  at:int ->
  unit

val log_materialize : t -> id:string -> rel:Braid_relalg.Relation.t -> unit
val log_evict : t -> id:string -> pinned_fallback:bool -> unit
val log_remove : t -> id:string -> pred:string -> unit
val log_mark_stale : t -> id:string -> pred:string -> unit
val log_pin : t -> id:string -> flag:bool -> unit

val log_delta_insert :
  t -> id:string -> pred:string -> rows:Braid_relalg.Tuple.t list -> unit
(** Journals rows appended to an element's extension by incremental
    maintenance (the write to base predicate [pred] produced them). Written
    {e before} the in-memory apply, WAL-style. *)

val log_delta_delete :
  t -> id:string -> pred:string -> rows:Braid_relalg.Tuple.t list -> unit
(** Journals rows removed (one occurrence each) from an element's extension
    by incremental maintenance. *)

val log_checkpoint : t -> live:int -> int
(** Drops every entry, writes the checkpoint marker and returns the new
    epoch. The caller (the Cache Manager) must follow it with [log_admit]
    for each of the [live] elements — see {!Cache_manager.checkpoint}. The
    largest element id counter and admission clock of the dropped entries
    are kept, so {!replay} restores both as if nothing had been dropped. *)

val compact_at : t -> int
(** The length at which the Cache Manager checkpoints on its own:
    max(1,024, 2 × the entries the last checkpoint wrote). *)

val entries : t -> entry list
(** Oldest first: the entries since the last checkpoint, marker included. *)

val tail : t -> int -> entry list
(** The last [n] entries, oldest first. *)

val length : t -> int
(** The number of {!entries}. *)

val epoch : t -> int

val entry_by : entry -> string
(** The session id the entry was written under ([""] for unattributed
    entries and checkpoints). *)

val entry_to_string : entry -> string

val replay :
  capacity_bytes:int ->
  rebuild_generator:(Braid_caql.Ast.conj -> Braid_stream.Tuple_stream.t) ->
  t ->
  Cache_model.t
(** Rebuilds the cache model from the retained log — the latest
    checkpoint on, or everything when none was taken: admissions restore
    elements with their journaled representation, flags and admission
    time; materializations restore forced extensions by shared reference;
    evictions and removals delete; stale-marks and pins update flags.
    [rebuild_generator] supplies a fresh stream for elements journaled as
    generators (their memoized content is not durable). The model's id
    counter and logical clock are restored past every value ever
    journaled, dropped entries included, so post-recovery admissions
    cannot collide. *)
