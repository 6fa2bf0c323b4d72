(** The deterministic cooperative scheduler: multiplexes N independent IE
    sessions over one shared CMS without OS threads.

    Each session owns its planner-side state (advice epoch, path tracker,
    pins — see {!Braid_planner.Qpo.new_session}) and a bounded queue of
    submitted queries; the cache, its journal, and the RDI breaker are
    shared. Execution is step-driven: one {!step} runs one {e wave} —
    at most one queued job per session, visited round-robin from a seeded
    starting offset — so a run is a deterministic function of the seed
    and the submission sequence, and `--check`/soak byte-identity
    survives concurrency.

    Inside a wave the {!Coalescer} window is open: remote fetches issued
    by the wave's jobs are treated as concurrent and deduplicated. Every
    executed job is bracketed by {!Braid_cache.Journal.set_context}, so
    the shared journal records which session drove each cache state
    change — the per-session attribution the consistency oracle
    re-validates after a crash. A {!Braid_remote.Fault.Crash} escaping a
    job propagates to the caller (the CMS process died); the wave's
    finalizer still closes the coalescer window and clears the journal
    context, and undelivered jobs stay queued in the dead scheduler. *)

type outcome =
  | Answered of Braid_planner.Qpo.answer  (** executed by the planner *)
  | Goal_answered of Braid_relalg.Relation.t
      (** a {!submit_goal} job: the IE's fixpoint answer, forced *)
  | Shed of Braid_planner.Qpo.answer option
      (** load-shed at admission: [Some] = degraded-to-cache substitute
          ({!Admission.cached_only}), [None] = refused outright (always
          [None] for goal jobs — a fixpoint has no single cached
          substitute) *)

type session_view = {
  sid : string;
  submitted : int;
  answered : int;
  shed : int;
  queued : int;  (** jobs currently waiting *)
  p95_ms : float;  (** simulated per-query elapsed; 0 before any answer *)
}

type t

val create : ?policy:Admission.policy -> ?seed:int -> Braid.Cms.t -> t
(** Takes over [cms]'s fetch hook (the coalescer installs itself via
    {!Braid.Cms.set_fetcher}); [seed] (default 0) drives the wave
    rotation offsets. One scheduler per CMS. *)

val cms : t -> Braid.Cms.t
val coalescer : t -> Coalescer.t

val set_engine : t -> Braid_ie.Engine.t option -> unit
(** Installs the inference engine goal jobs resolve through. Build it over
    this scheduler's CMS ({!Braid_ie.Engine.create} on [Braid.Cms.qpo
    (cms t)]) so every set-oriented fetch flows through the shared cache,
    the coalescer window, and the journal's session context. Rebuild (and
    re-install) it when the CMS is rebuilt after a crash. *)

val engine : t -> Braid_ie.Engine.t option

val add_session : t -> ?sid:string -> ?hist:Braid_obs.Histogram.t -> Braid_advice.Ast.t -> string
(** Opens a session with its own advice epoch and returns its id ([sid]
    defaults to the planner's ["s<n>"] counter). [hist] adopts an
    external latency histogram — the serve soak passes the same one
    across a crash/recovery rebuild so p95 spans the whole run. Raises
    [Invalid_argument] on a duplicate id. *)

val sessions : t -> string list
(** Session ids in creation order. *)

val submit :
  t ->
  sid:string ->
  ?prefer_lazy:bool ->
  ?on_reply:(outcome -> unit) ->
  Braid_caql.Ast.conj ->
  [ `Queued | `Shed ]
(** Admission-checks and enqueues one query for [sid]. Over-pressure
    submissions are shed immediately: [on_reply] fires synchronously with
    [Shed] (and the shed substitute is reported to the observer).
    Queued jobs get their [on_reply] when a later {!step} executes them.
    Raises [Invalid_argument] for an unknown [sid]. *)

val submit_goal :
  t ->
  sid:string ->
  ?on_reply:(outcome -> unit) ->
  Braid_logic.Atom.t ->
  [ `Queued | `Shed ]
(** Like {!submit} but for an AI goal (a recursive query the CMS alone
    cannot answer): when executed, the installed engine solves it — one
    IE–CMS session whose CAQL fetches share the wave's coalescer window —
    and [on_reply] fires with [Goal_answered]. Admission treats goals
    exactly like CAQL jobs, but a shed goal gets no cached substitute.
    Raises [Invalid_argument] for an unknown [sid] or when no engine is
    installed ({!set_engine}). *)

val queued : t -> int
(** Jobs currently queued across all sessions. *)

val step : t -> int
(** Runs one wave; returns the number of jobs executed (0 when idle). *)

val drain : t -> int
(** Steps until every queue is empty; returns the total executed. *)

val session_view : t -> string -> session_view option
val session_views : t -> session_view list
(** In creation order. *)

val shed_total : t -> int

val current_session : t -> string option
(** The session whose job is executing right now ([None] between jobs) —
    how the observer attributes answers. *)

val set_observer :
  t ->
  (sid:string ->
  Braid_caql.Ast.conj ->
  Braid_planner.Plan.provenance ->
  Braid_relalg.Relation.t ->
  unit)
  option ->
  unit
(** Per-session answer observer: wraps {!Braid.Cms.set_observer} with the
    executing session's id, and is also invoked for shed substitutes
    (which bypass the planner). [sid] is [""] for answers produced
    outside any wave (direct CMS calls). *)
