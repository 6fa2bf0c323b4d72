(* One bitset per distinct value of a low-cardinality column. Rows are
   recovered in ascending index order, so bitmap scans preserve whatever
   sort order the base relation has. *)

type t = {
  nrows : int;
  groups : (Value.t * Bytes.t) list; (* ascending by Value.compare *)
}

let bit_set b i = Bytes.set b (i lsr 3) (Char.chr (Char.code (Bytes.get b (i lsr 3)) lor (1 lsl (i land 7))))
let bit_get b i = Char.code (Bytes.get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

module V_map = Map.Make (Value)

let build r col =
  let n = Relation.cardinality r in
  let nbytes = (n + 7) / 8 in
  let groups = ref V_map.empty in
  for i = 0 to n - 1 do
    let v = Tuple.get (Relation.get r i) col in
    let b =
      match V_map.find_opt v !groups with
      | Some b -> b
      | None ->
        let b = Bytes.make nbytes '\000' in
        groups := V_map.add v b !groups;
        b
    in
    bit_set b i
  done;
  { nrows = n; groups = V_map.bindings !groups }

let nrows t = t.nrows
let distinct t = List.length t.groups

let rows_of_bits t bits =
  let out = Vec.create () in
  for i = 0 to t.nrows - 1 do
    if bit_get bits i then Vec.push out i
  done;
  Vec.to_array out

let or_into acc b =
  for i = 0 to Bytes.length acc - 1 do
    Bytes.set acc i (Char.chr (Char.code (Bytes.get acc i) lor Char.code (Bytes.get b i)))
  done

let matching_any t values =
  let nbytes = (t.nrows + 7) / 8 in
  let acc = Bytes.make nbytes '\000' in
  let wanted = Row_pred.value_set values in
  List.iter (fun (w, b) -> if Row_pred.mem wanted w then or_into acc b) t.groups;
  rows_of_bits t acc

let matching t cmp v =
  let nbytes = (t.nrows + 7) / 8 in
  let acc = Bytes.make nbytes '\000' in
  List.iter
    (fun (w, b) -> if Row_pred.cmp_holds cmp w v then or_into acc b)
    t.groups;
  rows_of_bits t acc
