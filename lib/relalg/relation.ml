type t = { name : string; schema : Schema.t; rows : Tuple.t Vec.t }

let create ?(name = "") schema = { name; schema; rows = Vec.create () }

let name r = r.name
let schema r = r.schema
let cardinality r = Vec.length r.rows

let add r t =
  if Tuple.arity t <> Schema.arity r.schema then
    invalid_arg
      (Printf.sprintf "Relation.add %s: arity %d, expected %d" r.name (Tuple.arity t)
         (Schema.arity r.schema));
  Vec.push r.rows t

let of_tuples ?name schema tuples =
  let r = create ?name schema in
  List.iter (add r) tuples;
  r

let unsafe_of_rows ?(name = "") schema rows = { name; schema; rows }

let remove_once r t =
  let n = Vec.length r.rows in
  let rec find i =
    if i >= n then None
    else if Tuple.equal t (Vec.get r.rows i) then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> false
  | Some i ->
    for j = i to n - 2 do
      Vec.set r.rows j (Vec.get r.rows (j + 1))
    done;
    ignore (Vec.pop r.rows);
    true

let get r i = Vec.get r.rows i
let rows_copy r = Vec.copy r.rows
let iter f r = Vec.iter f r.rows
let fold f acc r = Vec.fold f acc r.rows
let to_list r = Vec.to_list r.rows
let mem r t = Vec.exists (Tuple.equal t) r.rows

module Tuple_tbl = Hashtbl.Make (struct
  type t = Tuple.t

  let equal = Tuple.equal
  let hash = Tuple.hash
end)

let distinct r =
  let seen = Tuple_tbl.create (cardinality r) in
  let out = create ~name:r.name r.schema in
  iter
    (fun t ->
      if not (Tuple_tbl.mem seen t) then begin
        Tuple_tbl.add seen t ();
        add out t
      end)
    r;
  out

let copy ?name r =
  let name = match name with Some n -> n | None -> r.name in
  { name; schema = r.schema; rows = Vec.copy r.rows }

let with_name name r = { r with name }

let with_schema schema r =
  if Schema.arity schema <> Schema.arity r.schema then
    invalid_arg
      (Printf.sprintf "Relation.with_schema %s: arity %d, expected %d" r.name
         (Schema.arity schema) (Schema.arity r.schema));
  { r with schema }

let qualify alias r = { r with name = alias; schema = Schema.qualify alias r.schema }

let of_selection ?name r sel =
  let name = match name with Some n -> n | None -> r.name in
  let rows = Vec.create () in
  Array.iter (fun i -> Vec.push rows (Vec.get r.rows i)) sel;
  { name; schema = r.schema; rows }

let sort_by cmp r =
  let r' = copy r in
  Vec.sort cmp r'.rows;
  r'

let value_bytes = function
  | Value.Str s -> 16 + String.length s
  | Value.Int _ | Value.Float _ | Value.Bool _ | Value.Null -> 16

let row_bytes t = 16 + Array.fold_left (fun a v -> a + value_bytes v) 0 t
let bytes_estimate r = fold (fun acc t -> acc + row_bytes t) 64 r

let pp ppf r =
  let header = Schema.names r.schema in
  Format.fprintf ppf "@[<v>%s%a@," r.name Schema.pp r.schema;
  ignore header;
  iter (fun t -> Format.fprintf ppf "%a@," Tuple.pp t) r;
  Format.fprintf ppf "(%d rows)@]" (cardinality r)
