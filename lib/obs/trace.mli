(** A causal span tracer for the IE → QPO → cache → RDI hot path.

    A {e span} is one timed region of work with a name, a category, a
    parent (the span that was open when it began — causality, not call
    syntax) and optional key/value arguments; an {e instant} is a
    zero-width event. Spans are recorded into an explicitly installed
    tracer; with no tracer installed every hook is a single [None] check.
    Call sites whose arguments must be formatted (queries, SQL, routes)
    build them only when {!enabled}, so untraced runs format nothing, pay
    one check per hook and stay deterministic.

    {b No wall clock.} Timestamps are logical ticks of a per-tracer
    counter: every span begin, span end and instant advances it by one.
    Durations therefore measure {e enclosed events}, not nanoseconds —
    simulated milliseconds are attached as span arguments (e.g.
    [remote.exec]'s [sim_ms]) where the cost model defines them. This is
    what makes traces byte-reproducible from a seed ([bench --seed 1
    --trace out.json] twice produces identical span counts) and safe to
    enable inside the consistency soak.

    Exports: one-object-per-line JSONL ({!to_jsonl}) and the Chrome
    [trace_event] format ({!to_chrome}) loadable by [chrome://tracing] or
    {{:https://ui.perfetto.dev}Perfetto}, each span printed by {!Json}.
    The span taxonomy and both file formats are documented in
    docs/OBSERVABILITY.md. *)

(** A span argument value. *)
type arg =
  | Str of string
  | Int of int
  | Float of float
  | Bool of bool

type span = {
  id : int;  (** unique per tracer, allocated in begin order from 1 *)
  parent : int option;  (** the span open when this one began *)
  name : string;  (** e.g. ["qpo.answer"] — see docs/OBSERVABILITY.md *)
  cat : string;  (** component: ["ie"], ["qpo"], ["cache"], ["rdi"], ["remote"] *)
  start_ts : int;  (** logical tick at begin *)
  mutable end_ts : int;  (** logical tick at end; equals [start_ts] for instants *)
  mutable args : (string * arg) list;
  instant : bool;
}

type t

val create : ?limit:int -> unit -> t
(** A fresh, empty tracer. At most [limit] (default [500_000]) spans are
    retained; further spans are counted in {!dropped} but not stored. *)

val install : t -> unit
(** Makes [t] the ambient tracer every instrumented component records
    into. Replaces any previously installed tracer. *)

val uninstall : unit -> unit
(** Stops recording; a span already begun still completes into the
    tracer that was installed when it began. *)

val installed : unit -> t option

val enabled : unit -> bool
(** [true] iff a tracer is installed. *)

val with_span : ?args:(string * arg) list -> cat:string -> string -> (unit -> 'a) -> 'a
(** [with_span ~cat name f] runs [f] inside a new span that is a child of
    the innermost open span. The span is completed even when [f] raises
    (the exception is re-raised). Without an installed tracer this is
    exactly [f ()]. *)

val instant : ?args:(string * arg) list -> cat:string -> string -> unit
(** Records a zero-width event under the innermost open span. *)

val add_arg : string -> arg -> unit
(** Attaches an argument to the innermost open span (later wins on
    duplicate keys at export time); a no-op when no span is open. *)

val spans : t -> span list
(** Completed spans in completion order: a span follows every span it
    encloses. Spans still open are not included. *)

val span_count : t -> int
(** Completed spans, including any dropped over the retention limit. *)

val dropped : t -> int

val to_jsonl : t -> string
(** One compact JSON object per line, in {!spans} order:
    [{"id":7,"parent":3,"name":"remote.exec","cat":"remote","start":12,
      "end":13,"instant":false,"args":{"sql":"..."}}]. *)

val to_chrome : t -> string
(** A Chrome [trace_event] JSON document
    ([{"traceEvents": [...], "displayTimeUnit": "ms"}]); complete spans
    as ["ph":"X"] events, instants as ["ph":"i"], timestamps in logical
    ticks. *)

val write : t -> string -> unit
(** Writes {!to_jsonl} when the path ends in [.jsonl], {!to_chrome}
    otherwise. *)
