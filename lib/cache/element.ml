module R = Braid_relalg
module TS = Braid_stream.Tuple_stream

type t = {
  id : string;
  def : Braid_caql.Ast.conj;
  inst : Braid_subsume.Form.inst;
  mutable seq : int;
  mutable ext : R.Relation.t;
  mutable ext_bytes : int;
  mutable indexes : (int list * R.Index.t) list;
  mutable sorted : (int list * R.Relation.t) list;
  mutable hits : int;
  mutable last_used : int;
  mutable pinned : bool;
  mutable stale : bool;
  mutable delta_private : bool;
  created_at : int;
}

let make ~id ~def ~now ext =
  {
    id;
    def;
    inst = Braid_subsume.Form.of_conj def;
    seq = 0;
    ext;
    ext_bytes = R.Relation.bytes_estimate ext;
    indexes = [];
    sorted = [];
    hits = 0;
    last_used = now;
    pinned = false;
    stale = false;
    delta_private = false;
    created_at = now;
  }

let schema e = R.Relation.schema e.ext
let extension e = e.ext

(* The extension, as a private copy a delta may change in place: the
   journal shares every snapshot it holds by reference, so the first delta
   after one copies the rows (same rows, same size) and later ones edit
   them. *)
let writable e =
  if e.delta_private then e.ext
  else begin
    let r = R.Relation.copy e.ext in
    e.ext <- r;
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

let stream e = TS.of_relation e.ext

let index_on e cols = List.assoc_opt cols e.indexes

let ensure_index e cols =
  match index_on e cols with
  | Some ix -> ix
  | None ->
    let ix = R.Index.build e.ext cols in
    e.indexes <- (cols, ix) :: e.indexes;
    ix

let sorted_on e cols =
  match List.assoc_opt cols e.sorted with
  | Some r -> r
  | None ->
    let r = R.Ops.order_by cols e.ext in
    e.sorted <- (cols, r) :: e.sorted;
    r

let sorted_representations e = List.map fst e.sorted

(* A sorted representation is a permutation of the current extension
   (writes drop it), so it costs exactly the extension's bytes. *)
let bytes_estimate e =
  e.ext_bytes
  + List.fold_left (fun acc (_, ix) -> acc + R.Index.bytes_estimate ix) 0 e.indexes
  + (List.length e.sorted * e.ext_bytes)

let cardinality_estimate e = R.Relation.cardinality e.ext

let pp ppf e =
  Format.fprintf ppf "%s := %a [%d tuples, hits=%d%s]" e.id Braid_caql.Ast.pp_conj e.def
    (cardinality_estimate e) e.hits
    ((if e.pinned then ", pinned" else "") ^ if e.stale then ", stale" else "")
