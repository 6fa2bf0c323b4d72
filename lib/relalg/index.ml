module Key = struct
  type t = Value.t list

  (* single structural walk — the length guard + [for_all2] pair traverses
     both lists twice and boxes the lengths; key comparison sits on every
     hash-table probe, so this is hot *)
  let rec equal a b =
    match a, b with
    | [], [] -> true
    | x :: xs, y :: ys -> Value.equal x y && equal xs ys
    | _ -> false

  let hash k = List.fold_left (fun acc v -> (acc * 31) + Value.hash v) 7 k
end

module Key_tbl = Hashtbl.Make (Key)
module Value_tbl = Hashtbl.Make (Value)

(* Open-addressing directory for immediate-int keys: linear probing over an
   unboxed key array. A probe is a hash, a mask, and int compares against a
   flat array — no functor indirection, no boxed-key dereference, no
   allocation. Buckets are the same newest-first ref-cells the generic
   stores use; the [dummy] sentinel marks an empty slot (its contents are
   never mutated, so an absent key reads as the empty bucket). A key whose
   last tuple is removed keeps its slot, holding [ref []]: slots are never
   freed, so plain linear probing stays sound, and every reader treats an
   empty bucket as an absent key. *)
module Idir = struct
  let dummy : Tuple.t list ref = ref []

  type t = {
    mutable keys : int array;
    mutable cells : Tuple.t list ref array;
    mutable occupied : int;
    mutable mask : int;
  }

  let create n =
    let rec pow2 c = if c >= n * 2 then c else pow2 (c * 2) in
    let cap = pow2 16 in
    { keys = Array.make cap 0; cells = Array.make cap dummy; occupied = 0; mask = cap - 1 }

  (* First slot that is empty or already holds [x]. *)
  let rec slot_of d x i =
    if d.cells.(i) == dummy || d.keys.(i) = x then i
    else slot_of d x ((i + 1) land d.mask)

  (* [x]'s bucket cell, or [dummy] (the empty bucket) when absent. *)
  let find_cell d x = d.cells.(slot_of d x (Value.hash_int x land d.mask))

  let resize d =
    let old_keys = d.keys and old_cells = d.cells in
    let cap = (d.mask + 1) * 2 in
    d.keys <- Array.make cap 0;
    d.cells <- Array.make cap dummy;
    d.mask <- cap - 1;
    Array.iteri
      (fun i cell ->
        if cell != dummy then begin
          let x = old_keys.(i) in
          let j = slot_of d x (Value.hash_int x land d.mask) in
          d.keys.(j) <- x;
          d.cells.(j) <- cell
        end)
      old_cells

  (* Returns [x]'s bucket cell. *)
  let insert d x t =
    let i = slot_of d x (Value.hash_int x land d.mask) in
    let cell = d.cells.(i) in
    if cell != dummy then begin
      cell := t :: !cell;
      cell
    end
    else begin
      let cell = ref [ t ] in
      d.keys.(i) <- x;
      d.cells.(i) <- cell;
      d.occupied <- d.occupied + 1;
      (* keep load factor under 1/2 *)
      if d.occupied * 2 > d.mask + 1 then resize d;
      cell
    end

  (* Folds over the non-empty buckets. *)
  let fold f d init =
    let acc = ref init in
    Array.iteri
      (fun i cell -> match !cell with [] -> () | _ -> acc := f d.keys.(i) cell !acc)
      d.cells;
    !acc

  let length d = d.occupied
end

(* Single-column indexes — every join probe the engine plans and most
   catalog indexes — key the table on the bare value, skipping the
   one-element key list (one allocation per probe) and the list-walking
   hash/equality of the composite directory. When every key seen so far is
   an integer (the overwhelmingly common join-key shape), the directory is
   further specialized to immediate-int keys, so a probe compares unboxed
   ints instead of dereferencing boxed values; the first non-int key
   demotes the store to the generic form, rehoming the shared bucket
   cells. A bucket's stored key is always its oldest tuple's key, as
   [build] over the relation would store it. *)
type store =
  | Ints of Idir.t
  | Single of Tuple.t list ref Value_tbl.t
  | Multi of Tuple.t list ref Key_tbl.t

(* The key directory in ascending key order, as index-only scans visit it:
   each key's tuple and its bucket's size. The first [len] slots are live;
   the rest is spare capacity, so a write that adds or drops a key shifts
   the tail in place instead of reallocating both arrays. *)
type directory = { mutable keys : Tuple.t array; mutable sizes : int array; mutable len : int }

type t = {
  columns : int list;
  mutable store : store;
  mutable probes : int;
  mutable entries : int;
  mutable sorted : directory option; (* built on first use, then kept current by writes *)
}

(* The int a value hashes and compares like, if any: [Int x] itself, and
   integral floats, which [Value.equal]/[Value.hash] treat as the equal
   integer. *)
let int_key = function
  | Value.Int x -> Some x
  | Value.Float f when Float.is_integer f && Float.abs f < 1e18 ->
    Some (int_of_float f)
  | _ -> None

(* Returns [v]'s bucket cell. *)
let insert_value table v t =
  match Value_tbl.find_opt table v with
  | Some cell ->
    cell := t :: !cell;
    cell
  | None ->
    let cell = ref [ t ] in
    Value_tbl.add table v cell;
    cell

let insert_key table k t =
  match Key_tbl.find_opt table k with
  | Some cell ->
    cell := t :: !cell;
    cell
  | None ->
    let cell = ref [ t ] in
    Key_tbl.add table k cell;
    cell

(* Demotion keeps the bucket ref-cells themselves, so bucket contents and
   their order are untouched. Integral-float keys cannot appear in an
   [Ints] table (they demote it), so re-keying by [Value.Int] is exact. *)
let demote d =
  let table = Value_tbl.create (max 16 (2 * Idir.length d)) in
  Idir.fold (fun x cell () -> Value_tbl.add table (Value.Int x) cell) d ();
  table

(* Files [t] in its key's bucket, demoting an [Ints] store at the first
   non-int key. Returns the bucket cell. *)
let insert ix t =
  match ix.store, ix.columns with
  | Ints d, [ c ] ->
    (match Tuple.get t c with
     | Value.Int x -> Idir.insert d x t
     | v ->
       let table = demote d in
       ix.store <- Single table;
       insert_value table v t)
  | Single table, [ c ] -> insert_value table (Tuple.get t c) t
  | (Ints _ | Single _), _ -> assert false
  | Multi table, cols -> insert_key table (Tuple.key t cols) t

(* [build] is [add] row by row from the empty index, except that a
   one-column store is chosen from the first key's kind: a first key that
   is not an int starts in the generic table, sized as [demote] would size
   it, so no int directory is built only to be thrown away. *)
let build r cols =
  if cols = [] then invalid_arg "Index.build: empty column list";
  let n = max 16 (Relation.cardinality r) in
  let store =
    match cols with
    | [ c ]
      when Relation.cardinality r > 0
           && (match Tuple.get (Relation.get r 0) c with Value.Int _ -> false | _ -> true) ->
      Single (Value_tbl.create 16)
    | [ _ ] -> Ints (Idir.create n)
    | _ -> Multi (Key_tbl.create n)
  in
  let ix = { columns = cols; store; probes = 0; entries = Relation.cardinality r; sorted = None } in
  Relation.iter (fun t -> ignore (insert ix t)) r;
  ix

let columns ix = ix.columns

(* [Tuple.compare kt (Tuple.project t cols)] without building the
   projection: directory keys share the index's arity. *)
let compare_key kt t cols =
  let rec go j = function
    | [] -> 0
    | c :: cs ->
      let d = Value.compare kt.(j) (Tuple.get t c) in
      if d <> 0 then d else go (j + 1) cs
  in
  go 0 cols

(* The first directory slot whose key is not below [t]'s key. *)
let lower_bound dir t cols =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) lsr 1 in
      if compare_key dir.keys.(mid) t cols < 0 then go (mid + 1) hi else go lo mid
  in
  go 0 dir.len

(* The slot holding [t]'s key, which the directory must list. *)
let slot_of_key dir t cols =
  let i = lower_bound dir t cols in
  assert (i < dir.len && compare_key dir.keys.(i) t cols = 0);
  i

let insert_key_slot dir i kt =
  let cap = Array.length dir.keys in
  if dir.len = cap then begin
    let cap' = max 8 (2 * cap) in
    let keys = Array.make cap' [||] and sizes = Array.make cap' 0 in
    Array.blit dir.keys 0 keys 0 dir.len;
    Array.blit dir.sizes 0 sizes 0 dir.len;
    dir.keys <- keys;
    dir.sizes <- sizes
  end;
  Array.blit dir.keys i dir.keys (i + 1) (dir.len - i);
  Array.blit dir.sizes i dir.sizes (i + 1) (dir.len - i);
  dir.keys.(i) <- kt;
  dir.sizes.(i) <- 1;
  dir.len <- dir.len + 1

let delete_key_slot dir i =
  let last = dir.len - 1 in
  Array.blit dir.keys (i + 1) dir.keys i (last - i);
  Array.blit dir.sizes (i + 1) dir.sizes i (last - i);
  dir.keys.(last) <- [||];
  dir.len <- last

let add ix t =
  let cell = insert ix t in
  ix.entries <- ix.entries + 1;
  match ix.sorted with
  | None -> ()
  | Some dir ->
    (match !cell with
     | [ _ ] -> insert_key_slot dir (lower_bound dir t ix.columns) (Tuple.project t ix.columns)
     | _ ->
       let i = slot_of_key dir t ix.columns in
       dir.sizes.(i) <- dir.sizes.(i) + 1)

let bucket_of ix key =
  match ix.store, key with
  | Ints d, [ v ] ->
    (match int_key v with
     | Some x ->
       let cell = Idir.find_cell d x in
       if cell == Idir.dummy then None else Some cell
     | None -> None)
  | Single table, [ v ] -> Value_tbl.find_opt table v
  | (Ints _ | Single _), _ -> None
  | Multi table, _ -> Key_tbl.find_opt table key

(* Buckets are stored newest-first, so the oldest tuple equal to [t] — the
   row [Relation.remove_once] takes out — is the last match. Returns its
   position and the bucket's length. *)
let last_match t bucket =
  let rec go i found = function
    | [] -> (found, i)
    | x :: rest -> go (i + 1) (if Tuple.equal x t then i else found) rest
  in
  go 0 (-1) bucket

(* [bucket]'s [n]th tuple, and the bucket without it. *)
let take_nth n bucket =
  let rec go n acc = function
    | [] -> assert false
    | x :: rest -> if n = 0 then (x, List.rev_append acc rest) else go (n - 1) (x :: acc) rest
  in
  go n [] bucket

let rec last = function [ x ] -> x | _ :: rest -> last rest | [] -> assert false

let same_key cols a b = List.for_all (fun c -> Tuple.get a c = Tuple.get b c) cols

let remove ix t =
  let cell =
    match bucket_of ix (Tuple.key t ix.columns) with
    | Some cell -> cell
    | None -> invalid_arg "Index.remove: tuple not in the index"
  in
  let i, n = last_match t !cell in
  if i < 0 then invalid_arg "Index.remove: tuple not in the index";
  let gone, rest = take_nth i !cell in
  cell := rest;
  ix.entries <- ix.entries - 1;
  (* The directory slot is found by the departing tuple's key, which still
     compares equal to the stored one. *)
  let slot = Option.map (fun dir -> (dir, slot_of_key dir gone ix.columns)) ix.sorted in
  match !cell with
  | [] ->
    (match ix.store, ix.columns with
     | Ints _, _ -> () (* the slot stays, holding the empty bucket *)
     | Single table, [ c ] -> Value_tbl.remove table (Tuple.get gone c)
     | Single _, _ -> assert false
     | Multi table, cols -> Key_tbl.remove table (Tuple.key gone cols));
    Option.iter (fun (dir, s) -> delete_key_slot dir s) slot
  | bucket ->
    Option.iter (fun (dir, s) -> dir.sizes.(s) <- dir.sizes.(s) - 1) slot;
    (* The stored key was [gone]'s; when [gone] was the oldest tuple, the
       new oldest one's key takes over if it differs structurally (say
       [Float 2.0] after [Int 2]). [Ints] keys are exact, never re-keyed. *)
    if i = n - 1 then begin
      let oldest = last bucket in
      if not (same_key ix.columns gone oldest) then begin
        (match ix.store, ix.columns with
         | Ints _, _ -> ()
         | Single table, [ c ] ->
           Value_tbl.remove table (Tuple.get gone c);
           Value_tbl.add table (Tuple.get oldest c) cell
         | Single _, _ -> assert false
         | Multi table, cols ->
           Key_tbl.remove table (Tuple.key gone cols);
           Key_tbl.add table (Tuple.key oldest cols) cell);
        Option.iter (fun (dir, s) -> dir.keys.(s) <- Tuple.project oldest ix.columns) slot
      end
    end

let lookup ix key =
  ix.probes <- ix.probes + 1;
  match bucket_of ix key with Some cell -> List.rev !cell | None -> []

(* Buckets are stored newest-first; recurse to the tail so callers see
   insertion order (as [lookup] does) without allocating the reversed copy.
   Bucket depth is bounded by key multiplicity, so the non-tail recursion
   is safe. *)
let rec from_tail f = function
  | [] -> ()
  | t :: tl ->
    from_tail f tl;
    f t

let iter_probe ix key ~f =
  ix.probes <- ix.probes + 1;
  match bucket_of ix key with Some cell -> from_tail f !cell | None -> ()

let bucket1_rev ix v =
  ix.probes <- ix.probes + 1;
  match ix.store with
  | Ints d ->
    (match v with
     | Value.Int x -> !(Idir.find_cell d x)
     | _ -> (match int_key v with Some x -> !(Idir.find_cell d x) | None -> []))
  | Single table ->
    (match Value_tbl.find table v with cell -> !cell | exception Not_found -> [])
  | Multi table ->
    (match Key_tbl.find table [ v ] with cell -> !cell | exception Not_found -> [])

let iter_probe1 ix v ~f = from_tail f (bucket1_rev ix v)

let probes ix = ix.probes
let bytes_estimate ix = 64 + (ix.entries * 24)

(* Hashtbl iteration order is unspecified; sort the key directory so every
   index-only scan visits buckets in the same (lexicographic) order. Keys of
   one index share an arity, so [Tuple.compare] is column-wise
   [Value.compare]. *)
let sort_directory ix =
  let entry kt cell acc = (kt, List.length !cell) :: acc in
  let entries =
    match ix.store with
    | Ints d -> Idir.fold (fun x -> entry [| Value.Int x |]) d []
    | Single table -> Value_tbl.fold (fun v -> entry [| v |]) table []
    | Multi table -> Key_tbl.fold (fun k -> entry (Tuple.make k)) table []
  in
  let entries = Array.of_list entries in
  Array.stable_sort (fun (a, _) (b, _) -> Tuple.compare a b) entries;
  { keys = Array.map fst entries; sizes = Array.map snd entries; len = Array.length entries }

let fold_sorted ix ~init ~f =
  let dir =
    match ix.sorted with
    | Some dir -> dir
    | None ->
      let dir = sort_directory ix in
      ix.sorted <- Some dir;
      dir
  in
  let acc = ref init in
  for i = 0 to dir.len - 1 do
    acc := f !acc dir.keys.(i) dir.sizes.(i)
  done;
  !acc
