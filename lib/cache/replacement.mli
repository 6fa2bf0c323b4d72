(** Cache replacement: LRU modified by advice (paper §5.4: "using an LRU
    scheme which may be modified due to advice").

    Pinned elements (those the Advice Manager predicts will be needed for
    one of the next queries, cf. the path-expression tracking example in
    §4.2.2) are spared unless nothing else can free enough space.
    [protect]ed elements are exempt unconditionally: they never appear in
    the victim list, not even in the pinned fallback. *)

val victims :
  Cache_model.t ->
  needed_bytes:int ->
  ?protect:(Element.t -> bool) ->
  unit ->
  (Element.t * bool) list
(** Elements to evict, least-recently-used first, so that [needed_bytes]
    fits within capacity, each tagged [true] when it was taken from the
    pinned fallback (pinned elements evicted as a last resort — the Cache
    Manager journals these). [protect]ed elements are never returned. The
    list may still be insufficient when the cache cannot free enough
    (oversized requests, or only protected elements remain). *)

val evict :
  Cache_model.t ->
  needed_bytes:int ->
  ?protect:(Element.t -> bool) ->
  unit ->
  (string * bool) list * int
(** Applies [victims] and removes them; returns the evicted ids with their
    pinned-fallback tag, and {!Cache_model.used_bytes} after the removal,
    derived from the one sum [victims] takes rather than summed again. *)
