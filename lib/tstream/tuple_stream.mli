(** Pull-based tuple streams (§3 and §5.1).

    A stream produces one tuple on demand. It is the IE–CMS
    result-transfer channel ("the CMS returns the result for the query
    using a stream", §3) and the form of a lazy answer: a query the cache
    covers whole is answered by a stream that computes each solution tuple
    over the cached extensions when the consumer pulls it (§5.1). Streams
    are not stored in the cache.

    Streams are memoizing: tuples already pulled are retained in a spine so
    that a second cursor over the same stream re-reads them without
    recomputation. This matters for the IE's chronological backtracking,
    which re-enumerates earlier DB subgoals. *)

type t
type cursor

val from : Braid_relalg.Schema.t -> (unit -> Braid_relalg.Tuple.t option) -> t
(** [from schema pull] wraps a producer function; [pull] returning [None]
    marks exhaustion (it is not called again afterwards). *)

val of_relation : Braid_relalg.Relation.t -> t
(** A snapshot of the relation's rows: the row vector is copied once (the
    tuples are shared), so later writes to the relation do not change what
    the stream yields. The stream is exhausted from the start and counts
    every row as produced. *)

val of_list : Braid_relalg.Schema.t -> Braid_relalg.Tuple.t list -> t
val empty : Braid_relalg.Schema.t -> t

val schema : t -> Braid_relalg.Schema.t

val cursor : t -> cursor
(** A fresh cursor positioned at the first tuple. Cursors over the same
    stream share the memoized spine and the underlying producer. *)

val next : cursor -> Braid_relalg.Tuple.t option

val produced : t -> int
(** How many tuples the underlying producer has been asked for so far —
    the "work actually performed" measure used by the lazy-evaluation
    experiments. *)

val exhausted : t -> bool
(** Whether the producer has reported end-of-stream. *)

val to_relation : ?name:string -> t -> Braid_relalg.Relation.t
(** Forces the stream (eager evaluation of a lazy answer) and returns its
    rows as a fresh relation: one copy of the spine, tuples shared. Writes
    to the result do not reach the stream. Raises [Invalid_argument] if a
    tuple's arity differs from the schema's. *)

val to_list : t -> Braid_relalg.Tuple.t list
