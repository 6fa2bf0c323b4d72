module R = Braid_relalg

type t = {
  schema : R.Schema.t;
  spine : R.Tuple.t R.Vec.t; (* memoized prefix *)
  mutable pull : (unit -> R.Tuple.t option) option; (* None once exhausted *)
  mutable produced : int;
}

type cursor = { stream : t; mutable pos : int }

let from schema pull =
  { schema; spine = R.Vec.create (); pull = Some pull; produced = 0 }

let of_list schema tuples =
  let rest = ref tuples in
  from schema (fun () ->
      match !rest with
      | [] -> None
      | t :: tl ->
        rest := tl;
        Some t)

(* A snapshot: one copy of the row vector becomes the whole spine, so the
   stream starts exhausted and later writes to [r] do not reach it. *)
let of_relation r =
  let spine = R.Relation.rows_copy r in
  { schema = R.Relation.schema r; spine; pull = None; produced = R.Vec.length spine }

let empty schema = of_list schema []
let schema s = s.schema
let cursor s = { stream = s; pos = 0 }

(* Pump the producer until the spine holds at least [n] tuples or the
   producer is exhausted. *)
let rec fill s n =
  if R.Vec.length s.spine >= n then true
  else
    match s.pull with
    | None -> false
    | Some pull ->
      (match pull () with
       | Some t ->
         s.produced <- s.produced + 1;
         R.Vec.push s.spine t;
         fill s n
       | None ->
         s.pull <- None;
         false)

let next c =
  if fill c.stream (c.pos + 1) then begin
    let t = R.Vec.get c.stream.spine c.pos in
    c.pos <- c.pos + 1;
    Some t
  end
  else if c.pos < R.Vec.length c.stream.spine then begin
    let t = R.Vec.get c.stream.spine c.pos in
    c.pos <- c.pos + 1;
    Some t
  end
  else None

let produced s = s.produced
let exhausted s = s.pull = None

(* Forces the producer, then copies the spine in one step. Tuples from an
   arbitrary producer still get the arity check [Relation.add] would make. *)
let to_relation ?name s =
  ignore (fill s max_int);
  let arity = R.Schema.arity s.schema in
  R.Vec.iter
    (fun t ->
      if R.Tuple.arity t <> arity then
        invalid_arg
          (Printf.sprintf "Tuple_stream.to_relation: arity %d, expected %d" (R.Tuple.arity t)
             arity))
    s.spine;
  R.Relation.unsafe_of_rows ?name s.schema (R.Vec.copy s.spine)

let to_list s = R.Relation.to_list (to_relation s)
