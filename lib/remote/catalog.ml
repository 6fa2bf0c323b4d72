module R = Braid_relalg

type table_stats = {
  cardinality : int;
  distinct_per_column : int array;
  sorted_prefix : int;
}

type partitioning =
  | Hash of { column : int }
  | Range of { column : int; bounds : R.Value.t list }

module V_set = Set.Make (struct
  type t = R.Value.t

  let compare = R.Value.compare
end)

type entry = {
  schema : R.Schema.t;
  mutable partitioning : partitioning option;
  mutable stats : table_stats;
  mutable indexes : (int list * R.Index.t) list;
  mutable bitmaps : (int * R.Bitmap.t) list;
      (* per-column bitmap indexes, built lazily for low-cardinality
         columns and dropped (not maintained) on insert *)
  mutable value_sets : V_set.t array;
      (* per-column distinct-value sets backing [distinct_per_column], kept
         so single-tuple inserts can maintain the counts incrementally *)
}

type t = {
  entries : (string, entry) Hashtbl.t;
  mutable replication : int;
      (* copies of every shard slice, >= 1; declarative cluster metadata
         like [partitioning], consulted by the Shard_router *)
}

let create () = { entries = Hashtbl.create 16; replication = 1 }

let set_replication t r =
  if r < 1 then invalid_arg "Catalog.set_replication: factor must be >= 1";
  t.replication <- r

let replication t = t.replication

(* Chained replica placement: replica [r] of shard [s] lives on node
   [(s + r) mod shards], so each node hosts its own primary slice plus
   backups of its left neighbors. Pure arithmetic — no seed, no state —
   which is what makes placement identical on every run and machine. *)
let replica_node ~shards s r = (s + r) mod Int.max 1 shards

let register t name schema =
  let arity = R.Schema.arity schema in
  (* Re-registering a table (e.g. a reload) keeps its partitioning scheme:
     the scheme describes how the cluster stores the table, not one load. *)
  let partitioning =
    match Hashtbl.find_opt t.entries name with Some e -> e.partitioning | None -> None
  in
  Hashtbl.replace t.entries name
    {
      schema;
      partitioning;
      stats = { cardinality = 0; distinct_per_column = Array.make arity 0; sorted_prefix = arity };
      indexes = [];
      bitmaps = [];
      value_sets = Array.make arity V_set.empty;
    }

let set_partitioning t name p =
  match Hashtbl.find_opt t.entries name with
  | None -> invalid_arg ("Catalog.set_partitioning: unknown table " ^ name)
  | Some entry ->
    (match p with
     | Some (Hash { column } | Range { column; _ })
       when column < 0 || column >= R.Schema.arity entry.schema ->
       invalid_arg ("Catalog.set_partitioning: column out of range for " ^ name)
     | Some _ | None -> ());
    entry.partitioning <- p

let partitioning_of t name =
  match Hashtbl.find_opt t.entries name with
  | None -> None
  | Some entry -> entry.partitioning

let partition_column = function Hash { column } | Range { column; _ } -> column

(* Deterministic shard assignment — [Value.hash] is seed-free and
   version-stable, so the same value lands on the same shard on every
   machine (the property the CI counter gates rely on). *)
let shard_of_value p ~shards v =
  if shards <= 1 then 0
  else
    match p with
    | Hash _ -> R.Value.hash v mod shards
    | Range { bounds; _ } ->
      let rec find i = function
        | [] -> i
        | b :: rest -> if R.Value.compare v b < 0 then i else find (i + 1) rest
      in
      Int.min (shards - 1) (find 0 bounds)

(* Length of the longest column prefix on which the stored row order is
   lexicographically non-decreasing. The enumerator uses this to give
   merge joins on pre-sorted base tables a free ride (no modeled sort). *)
let sorted_prefix_of rel arity =
  let n = R.Relation.cardinality rel in
  let limit = ref arity in
  for i = 0 to n - 2 do
    if !limit > 0 then begin
      let a = R.Relation.get rel i and b = R.Relation.get rel (i + 1) in
      let rec first_diff j =
        if j >= !limit then !limit
        else
          let c = R.Value.compare (R.Tuple.get a j) (R.Tuple.get b j) in
          if c = 0 then first_diff (j + 1) else if c < 0 then !limit else j
      in
      limit := first_diff 0
    end
  done;
  !limit

let refresh_stats t name rel =
  match Hashtbl.find_opt t.entries name with
  | None -> ()
  | Some entry ->
    let arity = R.Schema.arity entry.schema in
    (* One sort per column; adding row by row copies a tree path for
       every new value. *)
    let sets =
      Array.init arity (fun i ->
          V_set.of_list (R.Relation.fold (fun acc tup -> R.Tuple.get tup i :: acc) [] rel))
    in
    entry.stats <-
      { cardinality = R.Relation.cardinality rel;
        distinct_per_column = Array.map V_set.cardinal sets;
        sorted_prefix = sorted_prefix_of rel arity };
    entry.value_sets <- sets;
    (* The bulk load already scanned every column; build the per-column
       secondary indexes in the same breath so later equality probes never
       pay a full scan. *)
    entry.indexes <-
      List.init arity (fun i -> ([ i ], R.Index.build rel [ i ]));
    entry.bitmaps <- []

(* A single-row insert touches exactly one bucket per index and one value
   per column: maintain them in place instead of rescanning (or worse,
   dropping the indexes and repaying a full rebuild on the next probe).
   The scan-cost accounting stays honest because both the cardinality and
   the per-column distinct counts advance with the row. Bitmaps are
   fixed-width snapshots, so they are dropped rather than grown; the
   sorted prefix is conservatively cleared (an appended row can break it,
   and we no longer hold the previous last row to check). *)
let note_insert t name tup =
  match Hashtbl.find_opt t.entries name with
  | None -> ()
  | Some entry ->
    let arity = R.Schema.arity entry.schema in
    (* A column's distinct count moves only when the value is new to its
       set — O(log n) per column instead of recounting every set. *)
    let distinct = Array.copy entry.stats.distinct_per_column in
    for i = 0 to arity - 1 do
      let v = R.Tuple.get tup i in
      if not (V_set.mem v entry.value_sets.(i)) then begin
        entry.value_sets.(i) <- V_set.add v entry.value_sets.(i);
        distinct.(i) <- distinct.(i) + 1
      end
    done;
    entry.stats <-
      { cardinality = entry.stats.cardinality + 1;
        distinct_per_column = distinct;
        sorted_prefix = (if entry.stats.cardinality = 0 then entry.stats.sorted_prefix else 0) };
    List.iter (fun (_, ix) -> R.Index.add ix tup) entry.indexes;
    entry.bitmaps <- []

(* A single-row delete takes the row out of one bucket per index, in
   place, mirroring [Relation.remove_once]; bitmaps are fixed-width
   snapshots and are dropped as on insert. Value sets are kept: distinct
   counts are estimates, and removing a value would require per-value
   reference counts for little planning benefit. *)
let note_delete t name tup =
  match Hashtbl.find_opt t.entries name with
  | None -> ()
  | Some entry ->
    entry.stats <-
      { entry.stats with cardinality = Int.max 0 (entry.stats.cardinality - 1) };
    List.iter (fun (_, ix) -> R.Index.remove ix tup) entry.indexes;
    entry.bitmaps <- []

let index_on t name cols =
  match Hashtbl.find_opt t.entries name with
  | None -> None
  | Some entry -> List.assoc_opt cols entry.indexes

let ensure_index t name rel cols =
  match Hashtbl.find_opt t.entries name with
  | None -> R.Index.build rel cols
  | Some entry ->
    (match List.assoc_opt cols entry.indexes with
     | Some ix -> ix
     | None ->
       let ix = R.Index.build rel cols in
       entry.indexes <- (cols, ix) :: entry.indexes;
       ix)

let ensure_bitmap t name rel col =
  let fresh () = R.Bitmap.build rel col in
  match Hashtbl.find_opt t.entries name with
  | None -> fresh ()
  | Some entry ->
    (match List.assoc_opt col entry.bitmaps with
     | Some bm when R.Bitmap.nrows bm = R.Relation.cardinality rel -> bm
     | Some _ | None ->
       let bm = fresh () in
       entry.bitmaps <- (col, bm) :: List.remove_assoc col entry.bitmaps;
       bm)

let schema_of t name = Option.map (fun e -> e.schema) (Hashtbl.find_opt t.entries name)
let stats_of t name = Option.map (fun e -> e.stats) (Hashtbl.find_opt t.entries name)
let tables t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.entries [] |> List.sort String.compare

let cardinality t name =
  match stats_of t name with Some s -> s.cardinality | None -> 0

let sorted_prefix t name =
  match stats_of t name with Some s -> s.sorted_prefix | None -> 0

let eq_selectivity t name col =
  match stats_of t name with
  | Some s when col >= 0 && col < Array.length s.distinct_per_column && s.distinct_per_column.(col) > 0 ->
    1.0 /. float_of_int s.distinct_per_column.(col)
  | Some _ | None -> 0.1

let range_selectivity = 1.0 /. 3.0
