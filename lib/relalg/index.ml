(* Flat-array hash index. Rows are filed at positions of [rows]; the rows
   of one key form a circular chain through [next], oldest first, and an
   open-addressed table [heads] maps each key to its newest row:

   - [next.(p) >= 0]: the next-newer row of [p]'s key;
   - [next.(p) < 0]: [p] is its key's newest row, and [lnot next.(p)] is
     the key's oldest row.

   A key is never stored apart from its rows: a slot is hashed and
   compared through its newest row's indexed columns. Every row of a key
   is [Value.equal] to every other on those columns, so any one of them
   stands for the key; the directory key is the oldest row's. A removed
   row's position goes on a free list threaded through [next] and is
   reused by the next [add]. *)

(* The key directory in ascending key order, as index-only scans visit it:
   each key's tuple and its bucket's size. The first [len] slots are live;
   the rest is spare capacity, so a write that adds or drops a key shifts
   the tail in place instead of reallocating both arrays. *)
type directory = { mutable keys : Tuple.t array; mutable sizes : int array; mutable len : int }

type t = {
  columns : int list;
  cols : int array;
  mutable rows : Tuple.t array;
  mutable next : int array;
  mutable filled : int;  (* positions handed out so far; the rest of [rows] is spare *)
  mutable free : int;  (* first free position below [filled], or -1 *)
  mutable heads : int array;  (* slot -> its key's newest row, or -1 when empty *)
  mutable mask : int;
  mutable occupied : int;  (* slots in use: the distinct keys *)
  mutable probes : int;
  mutable entries : int;
  mutable sorted : directory option; (* built on first use, then kept current by writes *)
}

let no_row : Tuple.t = [||]

(* --- hashing and comparing keys --- *)

(* [Value.hash] folded over the key's values in column order; a one-column
   key hashes as its value. *)
let hash_row ix t =
  let cols = ix.cols in
  if Array.length cols = 1 then Value.hash (Tuple.get t cols.(0))
  else begin
    let h = ref 7 in
    for k = 0 to Array.length cols - 1 do
      h := (!h * 31) + Value.hash (Tuple.get t cols.(k))
    done;
    !h
  end

let hash_values (key : Value.t array) =
  if Array.length key = 1 then Value.hash key.(0)
  else begin
    let h = ref 7 in
    for k = 0 to Array.length key - 1 do
      h := (!h * 31) + Value.hash key.(k)
    done;
    !h
  end

(* [Value.equal v (Int x)] without boxing [x]: an int probe compares
   unboxed ints against [Int] rows. *)
let equal_int x v =
  match v with
  | Value.Int y -> x = y
  | Value.Float f -> Float.compare (float_of_int x) f = 0
  | Value.Str _ | Value.Bool _ | Value.Null -> false

let rec row_matches_values t cols key k =
  k = Array.length cols
  || (Value.equal (Tuple.get t cols.(k)) key.(k) && row_matches_values t cols key (k + 1))

let rec rows_match a b cols k =
  k = Array.length cols
  || (Value.equal (Tuple.get a cols.(k)) (Tuple.get b cols.(k)) && rows_match a b cols (k + 1))

(* --- the slot table --- *)

(* Linear probing: each returns the slot holding the probed key, or the
   empty slot where it would go. The key is compared against each slot's
   newest row. *)
let rec slot_of_int ix c x i =
  let h = ix.heads.(i) in
  if h < 0 || equal_int x (Tuple.get ix.rows.(h) c) then i
  else slot_of_int ix c x ((i + 1) land ix.mask)

let rec slot_of_value ix c v i =
  let h = ix.heads.(i) in
  if h < 0 || Value.equal (Tuple.get ix.rows.(h) c) v then i
  else slot_of_value ix c v ((i + 1) land ix.mask)

let rec slot_of_values ix key i =
  let h = ix.heads.(i) in
  if h < 0 || row_matches_values ix.rows.(h) ix.cols key 0 then i
  else slot_of_values ix key ((i + 1) land ix.mask)

let rec slot_of_row_key ix t i =
  let h = ix.heads.(i) in
  if h < 0 || rows_match ix.rows.(h) t ix.cols 0 then i
  else slot_of_row_key ix t ((i + 1) land ix.mask)

let slot_of_value1 ix v =
  let c = ix.cols.(0) in
  let i = Value.hash v land ix.mask in
  match v with Value.Int x -> slot_of_int ix c x i | v -> slot_of_value ix c v i

(* The slot of the key of row [t]. *)
let slot_of_row ix t =
  if Array.length ix.cols = 1 then slot_of_value1 ix (Tuple.get t ix.cols.(0))
  else slot_of_row_key ix t (hash_row ix t land ix.mask)

(* The next empty slot from [i] on; for re-filing heads, whose keys are
   all distinct. *)
let rec empty_slot heads mask i = if heads.(i) < 0 then i else empty_slot heads mask ((i + 1) land mask)

let grow_heads ix =
  let old = ix.heads in
  let cap = 2 * Array.length old in
  let heads = Array.make cap (-1) in
  let mask = cap - 1 in
  Array.iter
    (fun h -> if h >= 0 then heads.(empty_slot heads mask (hash_row ix ix.rows.(h) land mask)) <- h)
    old;
  ix.heads <- heads;
  ix.mask <- mask

(* Empties slot [i] by backward-shift deletion: every later head of the
   same probe run whose home slot does not lie cyclically in (hole, j] moves
   back into the hole, so linear probing needs no tombstones. *)
let delete_slot ix i =
  let heads = ix.heads and mask = ix.mask in
  let rec shift hole j =
    let h = heads.(j) in
    if h < 0 then heads.(hole) <- -1
    else begin
      let home = hash_row ix ix.rows.(h) land mask in
      if (j - home) land mask >= (j - hole) land mask then begin
        heads.(hole) <- h;
        shift j ((j + 1) land mask)
      end
      else shift hole ((j + 1) land mask)
    end
  in
  shift i ((i + 1) land mask);
  ix.occupied <- ix.occupied - 1

(* --- filing rows --- *)

let new_position ix t =
  let p =
    if ix.free >= 0 then begin
      let p = ix.free in
      ix.free <- ix.next.(p);
      p
    end
    else begin
      if ix.filled = Array.length ix.rows then begin
        let cap = max 8 (2 * ix.filled) in
        let rows = Array.make cap no_row and next = Array.make cap (-1) in
        Array.blit ix.rows 0 rows 0 ix.filled;
        Array.blit ix.next 0 next 0 ix.filled;
        ix.rows <- rows;
        ix.next <- next
      end;
      let p = ix.filled in
      ix.filled <- p + 1;
      p
    end
  in
  ix.rows.(p) <- t;
  p

(* Files [t] as its key's newest row. Returns whether the key is new. *)
let insert ix t =
  let p = new_position ix t in
  let i = slot_of_row ix t in
  let h = ix.heads.(i) in
  if h >= 0 then begin
    ix.next.(p) <- ix.next.(h);
    ix.next.(h) <- p;
    ix.heads.(i) <- p;
    false
  end
  else begin
    ix.next.(p) <- lnot p;
    ix.heads.(i) <- p;
    ix.occupied <- ix.occupied + 1;
    (* keep the load factor at or under 1/2 *)
    if ix.occupied * 2 > Array.length ix.heads then grow_heads ix;
    true
  end

let build r cols =
  if cols = [] then invalid_arg "Index.build: empty column list";
  let n = Relation.cardinality r in
  let ix =
    {
      columns = cols;
      cols = Array.of_list cols;
      rows = Array.make n no_row;
      next = Array.make n (-1);
      filled = 0;
      free = -1;
      heads = Array.make 16 (-1);
      mask = 15;
      occupied = 0;
      probes = 0;
      entries = n;
      sorted = None;
    }
  in
  Relation.iter (fun t -> ignore (insert ix t)) r;
  ix

let columns ix = ix.columns

(* --- the cursor --- *)

let oldest ix h = lnot ix.next.(h)

(* The oldest row of slot [i]'s key, or -1 for an empty slot; one probe. *)
let first_in ix i =
  ix.probes <- ix.probes + 1;
  let h = ix.heads.(i) in
  if h < 0 then -1 else oldest ix h

let first1 ix v =
  if Array.length ix.cols <> 1 then begin
    ix.probes <- ix.probes + 1;
    -1
  end
  else first_in ix (slot_of_value1 ix v)

let first ix key =
  if Array.length key <> Array.length ix.cols then begin
    ix.probes <- ix.probes + 1;
    -1
  end
  else first_in ix (slot_of_values ix key (hash_values key land ix.mask))

let next ix p =
  let q = ix.next.(p) in
  if q < 0 then -1 else q

let tuple_at ix p = ix.rows.(p)

let[@tail_mod_cons] rec collect ix p = if p < 0 then [] else ix.rows.(p) :: collect ix (next ix p)

let first_of_list ix = function [ v ] -> first1 ix v | key -> first ix (Array.of_list key)
let lookup ix key = collect ix (first_of_list ix key)

let rec walk ix f p =
  if p >= 0 then begin
    f ix.rows.(p);
    walk ix f (next ix p)
  end

let iter_probe ix key ~f = walk ix f (first_of_list ix key)

let probes ix = ix.probes
let bytes_estimate ix = 64 + (ix.entries * 24)

(* --- the sorted directory --- *)

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
  let fresh = insert ix t in
  ix.entries <- ix.entries + 1;
  match ix.sorted with
  | None -> ()
  | Some dir ->
    if fresh then insert_key_slot dir (lower_bound dir t ix.columns) (Tuple.project t ix.columns)
    else begin
      let i = slot_of_key dir t ix.columns in
      dir.sizes.(i) <- dir.sizes.(i) + 1
    end

let same_key cols a b = List.for_all (fun c -> Tuple.get a c = Tuple.get b c) cols

let free_position ix p =
  ix.rows.(p) <- no_row;
  ix.next.(p) <- ix.free;
  ix.free <- p

let remove ix t =
  let not_found () = invalid_arg "Index.remove: tuple not in the index" in
  let i = slot_of_row ix t in
  let newest = ix.heads.(i) in
  if newest < 0 then not_found ();
  (* The oldest row equal to [t] and the row before it in the chain (-1
     when it is the oldest). *)
  let rec find prev p =
    if Tuple.equal ix.rows.(p) t then (prev, p)
    else if p = newest then not_found ()
    else find p ix.next.(p)
  in
  let prev, p = find (-1) (oldest ix newest) in
  let gone = ix.rows.(p) in
  (* The directory slot is found by the departing tuple's key, which still
     compares equal to the stored one. *)
  let slot = Option.map (fun dir -> (dir, slot_of_key dir gone ix.columns)) ix.sorted in
  if p = newest then begin
    if prev < 0 then delete_slot ix i
    else begin
      ix.next.(prev) <- ix.next.(p);
      ix.heads.(i) <- prev
    end
  end
  else if prev < 0 then ix.next.(newest) <- lnot ix.next.(p)
  else ix.next.(prev) <- ix.next.(p);
  free_position ix p;
  ix.entries <- ix.entries - 1;
  match slot with
  | None -> ()
  | Some (dir, s) ->
    if p = newest && prev < 0 then delete_key_slot dir s
    else begin
      dir.sizes.(s) <- dir.sizes.(s) - 1;
      (* The directory key is the oldest row's; when [gone] was the oldest,
         the new oldest row's key takes over if the two differ
         structurally (say [Float 2.0] after [Int 2]). *)
      if prev < 0 then begin
        let now_oldest = ix.rows.(oldest ix ix.heads.(i)) in
        if not (same_key ix.columns gone now_oldest) then
          dir.keys.(s) <- Tuple.project now_oldest ix.columns
      end
    end

(* Slot order is hash order; sort the key directory so every index-only
   scan visits buckets in the same (lexicographic) order. Keys of one index
   share an arity, so [Tuple.compare] is column-wise [Value.compare]. *)
let sort_directory ix =
  let entries = Array.make ix.occupied ([||], 0) in
  let k = ref 0 in
  Array.iter
    (fun h ->
      if h >= 0 then begin
        let rec size p n = if p = h then n else size ix.next.(p) (n + 1) in
        let o = oldest ix h in
        entries.(!k) <- (Tuple.project ix.rows.(o) ix.columns, size o 1);
        incr k
      end)
    ix.heads;
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
