module R = Braid_relalg
module TS = Braid_stream.Tuple_stream

type representation =
  | Extension of R.Relation.t
  | Generator of TS.t

type t = {
  id : string;
  def : Braid_caql.Ast.conj;
  inst : Braid_subsume.Form.inst;
  mutable seq : int;
  mutable repr : representation;
  mutable ext_bytes : int;
  mutable indexes : (int list * R.Index.t) list;
  mutable sorted : (int list * R.Relation.t) list;
  mutable hits : int;
  mutable last_used : int;
  mutable pinned : bool;
  mutable stale : bool;
  mutable delta_private : bool;
  created_at : int;
  mutable on_materialize : string -> R.Relation.t -> unit;
}

let make ~id ~def ~now repr =
  {
    id;
    def;
    inst = Braid_subsume.Form.of_conj def;
    seq = 0;
    repr;
    ext_bytes = (match repr with Extension r -> R.Relation.bytes_estimate r | Generator _ -> 0);
    indexes = [];
    sorted = [];
    hits = 0;
    last_used = now;
    pinned = false;
    stale = false;
    delta_private = false;
    created_at = now;
    on_materialize = (fun _ _ -> ());
  }

let schema e =
  match e.repr with
  | Extension r -> R.Relation.schema r
  | Generator s -> TS.schema s

let is_materialized e = match e.repr with Extension _ -> true | Generator _ -> false

(* The journal holds this relation by reference (a forced generator's
   [Materialize] entry, or the entry replay reads it from), so the first
   delta must copy it. *)
let set_extension e r =
  e.repr <- Extension r;
  e.ext_bytes <- R.Relation.bytes_estimate r;
  e.delta_private <- false

let extension e =
  match e.repr with
  | Extension r -> r
  | Generator s ->
    let r = TS.to_relation ~name:e.id s in
    set_extension e r;
    e.on_materialize e.id r;
    r

(* The extension, as a private copy a delta may change in place: the
   journal shares every snapshot it holds by reference, so the first delta
   after one copies the rows (same rows, same size) and later ones edit
   them. *)
let writable e =
  let r = extension e in
  if e.delta_private then r
  else begin
    let r = R.Relation.copy r in
    e.repr <- Extension r;
    e.delta_private <- true;
    r
  end

(* A write leaves no index or sorted representation of the old rows. *)
let written e =
  e.indexes <- [];
  e.sorted <- []

let insert_rows e rows =
  let r = writable e in
  List.iter
    (fun row ->
      R.Relation.add r row;
      e.ext_bytes <- e.ext_bytes + R.Relation.row_bytes row)
    rows;
  written e

let delete_rows e rows =
  let r = writable e in
  let all_present =
    List.fold_left
      (fun ok row ->
        if R.Relation.remove_once r row then begin
          e.ext_bytes <- e.ext_bytes - R.Relation.row_bytes row;
          ok
        end
        else false)
      true rows
  in
  written e;
  all_present

let stream e =
  match e.repr with
  | Extension r -> TS.of_relation r
  | Generator s -> s

let index_on e cols = List.assoc_opt cols e.indexes

let ensure_index e cols =
  match index_on e cols with
  | Some ix -> ix
  | None ->
    let ix = R.Index.build (extension e) cols in
    e.indexes <- (cols, ix) :: e.indexes;
    ix

let sorted_on e cols =
  match List.assoc_opt cols e.sorted with
  | Some r -> r
  | None ->
    let r = R.Ops.order_by cols (extension e) in
    e.sorted <- (cols, r) :: e.sorted;
    r

let sorted_representations e = List.map fst e.sorted

let bytes_estimate e =
  let data =
    match e.repr with
    | Extension _ -> e.ext_bytes
    | Generator s ->
      (* Only the memoized prefix occupies memory so far. *)
      64 + (TS.produced s * 48)
  in
  (* A sorted representation is a permutation of the current extension
     (writes drop it), so it costs exactly the extension's bytes. *)
  data
  + List.fold_left (fun acc (_, ix) -> acc + R.Index.bytes_estimate ix) 0 e.indexes
  + (List.length e.sorted * e.ext_bytes)

let cardinality_estimate e =
  match e.repr with
  | Extension r -> R.Relation.cardinality r
  | Generator s -> TS.produced s

let pp ppf e =
  Format.fprintf ppf "%s := %a [%s, %d tuples, hits=%d%s]" e.id Braid_caql.Ast.pp_conj e.def
    (if is_materialized e then "extension" else "generator")
    (cardinality_estimate e) e.hits
    ((if e.pinned then ", pinned" else "") ^ if e.stale then ", stale" else "")
