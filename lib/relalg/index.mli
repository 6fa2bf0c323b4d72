(** Hash indexes on relation columns.

    The CMS builds these on attributes the advice flags with a consumer
    annotation ([?]); the Query Processor uses them for join and selection
    probes (paper §5.4: "uses hash indices when available"). *)

type t

val build : Relation.t -> int list -> t
(** [build r cols] indexes [r] on the (non-empty) column list [cols]. *)

val columns : t -> int list

val add : t -> Tuple.t -> unit
(** Appends one tuple to its key's bucket — incremental maintenance for a
    single-row insert into the indexed relation. The caller is responsible
    for also adding the tuple to the relation itself. If the sorted key
    directory (see {!fold_sorted}) has been built, it is updated in place:
    a known key's size is bumped, a new key is inserted at its sorted
    position. *)

val remove : t -> Tuple.t -> unit
(** [remove ix t] takes the oldest tuple [Tuple.equal] to [t] out of its
    key's bucket — the same row {!Relation.remove_once} removes, so every
    bucket stays what {!build} over the relation would give. A key whose
    bucket empties leaves the index (lookups return [[]], index-only scans
    skip it). When the removed tuple was its bucket's oldest, the key is
    re-stored as the new oldest tuple's key if the two differ structurally
    (e.g. [Float 2.0] after [Int 2]). The sorted directory, if built, is
    updated in place. The caller removes the row from the relation itself.
    Raises [Invalid_argument] if the index holds no tuple equal to [t]. *)

val lookup : t -> Value.t list -> Tuple.t list
(** Tuples whose key columns equal the given values. *)

val iter_probe : t -> Value.t list -> f:(Tuple.t -> unit) -> unit
(** [iter_probe ix key ~f] applies [f] to each tuple in [key]'s bucket, in
    the same insertion order [lookup] returns — but without materializing
    the bucket list. The allocation-free probe for inner join loops. *)

val iter_probe1 : t -> Value.t -> f:(Tuple.t -> unit) -> unit
(** [iter_probe1 ix v ~f] is [iter_probe ix [ v ] ~f] without building the
    one-element key list — the fast path for single-column join probes. *)

val bucket1_rev : t -> Value.t -> Tuple.t list
(** [bucket1_rev ix v] is [v]'s bucket in REVERSE insertion order (the
    internal storage order), shared, with zero allocation. For join inner
    loops that restore insertion order themselves; callers must not assume
    [lookup]'s ordering and must not mutate the list. *)

val probes : t -> int
(** Number of lookups served so far (for experiment accounting). *)

val bytes_estimate : t -> int

val fold_sorted : t -> init:'a -> f:('a -> Tuple.t -> int -> 'a) -> 'a
(** Folds over the key directory in ascending key order: [f acc key size]
    gets each distinct key as a tuple of the indexed columns and the
    number of tuples in its bucket, so covering-index scans are
    deterministic and emit key-sorted output. The sorted directory is built
    (sorted) on the first call only; from then on {!add} and {!remove} keep
    it current in place, so later calls never re-sort. Its key tuples are
    shared across calls and must not be mutated. *)
