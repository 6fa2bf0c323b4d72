(** Hash indexes on relation columns.

    The CMS builds these on attributes the advice flags with a consumer
    annotation ([?]); the Query Processor uses them for join and selection
    probes (paper §5.4: "uses hash indices when available"). The remote
    catalog keeps one per column of every table, cache elements keep the
    ones asked of them, and the Datalog fixpoint and the join operators
    build their own.

    {b Layout.} An index is three flat arrays, with no per-row or per-key
    heap block:
    - the filed rows, one position each (the tuples themselves are
      shared with the relation);
    - one [int] per position linking it to the next-newer row of its key,
      the newest row linking back to the oldest, so each key's rows form
      a circular chain;
    - an open-addressed [int] table of key heads, one slot per distinct
      key, holding the key's newest row. A slot is hashed and compared
      through that row's indexed columns, so no key is stored apart from
      the rows and a probe allocates nothing.

    A removed row's position is reused by a later {!add}.

    {b Orders.} A key's rows (its {e bucket}) are visited oldest first, in
    the order {!build} or {!add} filed them. {!remove} takes the oldest
    row equal to its argument. The key an index-only scan reports for a
    bucket is its oldest row's.

    {b Cursor.} [first1], [first], [next] and [tuple_at] walk one bucket by
    row position, oldest first, with no allocation — the probe for inner
    join loops. A position is valid until the next {!add} or {!remove}. *)

type t

val build : Relation.t -> int list -> t
(** [build r cols] indexes [r] on the (non-empty) column list [cols]: the
    index {!add} would give, adding [r]'s rows in order to an empty one. *)

val columns : t -> int list

val add : t -> Tuple.t -> unit
(** Files one tuple as the newest row of its key's bucket — incremental
    maintenance for a single-row insert into the indexed relation. The
    caller is responsible for also adding the tuple to the relation
    itself. If the sorted key directory (see {!fold_sorted}) has been
    built, it is updated in place: a known key's size is bumped, a new key
    is inserted at its sorted position. *)

val remove : t -> Tuple.t -> unit
(** [remove ix t] takes the oldest tuple [Tuple.equal] to [t] out of its
    key's bucket — the same row {!Relation.remove_once} removes, so every
    bucket stays what {!build} over the relation would give. A key whose
    bucket empties leaves the index (lookups return [[]], index-only scans
    skip it). The sorted directory, if built, is updated in place; when
    the removed tuple was its bucket's oldest, the directory key becomes
    the new oldest tuple's if the two differ structurally (e.g.
    [Float 2.0] after [Int 2]). The caller removes the row from the
    relation itself. Raises [Invalid_argument] if the index holds no tuple
    equal to [t]. *)

val lookup : t -> Value.t list -> Tuple.t list
(** Tuples whose key columns equal the given values, oldest first. *)

val iter_probe : t -> Value.t list -> f:(Tuple.t -> unit) -> unit
(** [iter_probe ix key ~f] applies [f] to each tuple in [key]'s bucket, in
    the order [lookup] returns them, without materializing the list. *)

val first1 : t -> Value.t -> int
(** [first1 ix v] is the position of the oldest row of [v]'s bucket in a
    one-column index, or [-1] when there is none. Counts one probe. *)

val first : t -> Value.t array -> int
(** [first ix key] is {!first1} for a key given as one value per indexed
    column, in column order. The array is only read during the call, so a
    caller may refill one buffer for every probe. *)

val next : t -> int -> int
(** The position of the next-newer row of the same bucket, or [-1] after
    its newest row. *)

val tuple_at : t -> int -> Tuple.t
(** The row at a position a cursor returned. *)

val probes : t -> int
(** Number of lookups served so far (for experiment accounting). *)

val bytes_estimate : t -> int
(** The modelled footprint the cache charges for the index: 64 bytes plus
    24 per row. A capacity cost, not a heap measurement. *)

val fold_sorted : t -> init:'a -> f:('a -> Tuple.t -> int -> 'a) -> 'a
(** Folds over the key directory in ascending key order: [f acc key size]
    gets each distinct key as a tuple of the indexed columns and the
    number of tuples in its bucket, so covering-index scans are
    deterministic and emit key-sorted output. The sorted directory is built
    (sorted) on the first call only; from then on {!add} and {!remove} keep
    it current in place, so later calls never re-sort. Its key tuples are
    shared across calls and must not be mutated. *)
