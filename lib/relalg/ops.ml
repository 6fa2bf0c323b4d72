let select pred r =
  let out = Relation.create ~name:(Relation.name r) (Relation.schema r) in
  Relation.iter (fun t -> if Row_pred.eval pred t then Relation.add out t) r;
  out

let select_indexed_count ix key ?(residual = Row_pred.True) r =
  let out = Relation.create ~name:(Relation.name r) (Relation.schema r) in
  let matched = ref 0 in
  Index.iter_probe ix key ~f:(fun t ->
      incr matched;
      if Row_pred.eval residual t then Relation.add out t);
  (out, !matched)

let select_indexed_in_count ix values ?(residual = Row_pred.True) r =
  let out = Relation.create ~name:(Relation.name r) (Relation.schema r) in
  let matched = ref 0 in
  let rec walk p =
    if p >= 0 then begin
      let t = Index.tuple_at ix p in
      incr matched;
      if Row_pred.eval residual t then Relation.add out t;
      walk (Index.next ix p)
    end
  in
  List.iter (fun v -> walk (Index.first1 ix v)) values;
  (out, !matched)

let select_indexed ix key ?residual r = fst (select_indexed_count ix key ?residual r)

(* Selection vectors: a selection is represented as the array of qualifying
   row indices and materialized only on demand ([Relation.of_selection] /
   [project_sv]), so select→project chains never build the intermediate. *)

let select_sv pred r =
  let sel = Vec.create () in
  let n = Relation.cardinality r in
  for i = 0 to n - 1 do
    if Row_pred.eval pred (Relation.get r i) then Vec.push sel i
  done;
  Vec.to_array sel

let materialize_sv ?name r sel = Relation.of_selection ?name r sel

let project_sv cols r sel =
  let schema = Schema.project (Relation.schema r) cols in
  let out = Relation.create ~name:(Relation.name r) schema in
  Array.iter (fun i -> Relation.add out (Tuple.project (Relation.get r i) cols)) sel;
  out

let project cols r =
  let schema = Schema.project (Relation.schema r) cols in
  let out = Relation.create ~name:(Relation.name r) schema in
  Relation.iter (fun t -> Relation.add out (Tuple.project t cols)) r;
  out

let product a b =
  let schema = Schema.concat (Relation.schema a) (Relation.schema b) in
  let out = Relation.create schema in
  Relation.iter
    (fun ta -> Relation.iter (fun tb -> Relation.add out (Tuple.concat ta tb)) b)
    a;
  out

(* A probe of [ix] by [ta]'s [left_cols], through [key] (one slot per
   column, refilled per probe): a cursor position, as {!Index.first}. *)
let probe_first ix left_cols key ta =
  match left_cols with
  | [| c |] -> Index.first1 ix (Tuple.get ta c)
  | _ ->
    Array.iteri (fun k c -> key.(k) <- Tuple.get ta c) left_cols;
    Index.first ix key

(* Emits [ta] joined with each row from cursor position [p] on. Top-level
   on purpose: an inner closure here would capture the outer tuple and be
   re-allocated per probe. *)
let rec emit_bucket rows ix ta p =
  if p >= 0 then begin
    Vec.push rows (Tuple.concat ta (Index.tuple_at ix p));
    emit_bucket rows ix ta (Index.next ix p)
  end

let rec emit_bucket_where rows residual ix ta p matched =
  if p < 0 then matched
  else begin
    let t = Tuple.concat ta (Index.tuple_at ix p) in
    if Row_pred.eval residual t then Vec.push rows t;
    emit_bucket_where rows residual ix ta (Index.next ix p) (matched + 1)
  end

let index_nl_join_count ~left_cols ix ?(residual = Row_pred.True) a b =
  let schema = Schema.concat (Relation.schema a) (Relation.schema b) in
  let rows = Vec.create () in
  let left_cols = Array.of_list left_cols in
  let key = Array.make (Array.length left_cols) Value.Null in
  (* The probe loop is the enumerator's chosen inner loop for selective
     joins: a cursor walk with no bucket copy, key list or closure per
     probe, no per-row arity re-check on output (tuples are schema-correct
     by construction), and no residual dispatch when there is none — in
     which case matched = emitted, so the counter is read off the output
     instead of bumped per tuple. *)
  let probed =
    match residual with
    | Row_pred.True ->
      Relation.iter (fun ta -> emit_bucket rows ix ta (probe_first ix left_cols key ta)) a;
      Vec.length rows
    | _ ->
      Relation.fold
        (fun matched ta ->
          emit_bucket_where rows residual ix ta (probe_first ix left_cols key ta) matched)
        0 a
  in
  (Relation.unsafe_of_rows schema rows, probed)

let hash_join ~left_cols ~right_cols ?residual a b =
  fst (index_nl_join_count ~left_cols (Index.build b right_cols) ?residual a b)

let index_only_scan ix schema ?(residual = Row_pred.True) ?(distinct = false) () =
  let out = Relation.create schema in
  let touched =
    Index.fold_sorted ix ~init:0 ~f:(fun touched kt size ->
        if Row_pred.eval residual kt then
          if distinct then Relation.add out kt
          else
            for _ = 1 to size do
              Relation.add out kt
            done;
        touched + 1)
  in
  (out, touched)

let nested_join pred a b =
  let schema = Schema.concat (Relation.schema a) (Relation.schema b) in
  let out = Relation.create schema in
  Relation.iter
    (fun ta ->
      Relation.iter
        (fun tb ->
          let t = Tuple.concat ta tb in
          if Row_pred.eval pred t then Relation.add out t)
        b)
    a;
  out

let merge_join ~left_cols ~right_cols ?(residual = Row_pred.True) a b =
  let schema = Schema.concat (Relation.schema a) (Relation.schema b) in
  let out = Relation.create schema in
  let key_cmp ta tb =
    let rec loop ls rs =
      match ls, rs with
      | [], [] -> 0
      | l :: ls, r :: rs ->
        let c = Value.compare (Tuple.get ta l) (Tuple.get tb r) in
        if c <> 0 then c else loop ls rs
      | _, _ -> invalid_arg "Ops.merge_join: join column lists differ in length"
    in
    loop left_cols right_cols
  in
  let na = Relation.cardinality a and nb = Relation.cardinality b in
  let i = ref 0 and j = ref 0 in
  while !i < na && !j < nb do
    let ta = Relation.get a !i and tb = Relation.get b !j in
    let c = key_cmp ta tb in
    if c < 0 then incr i
    else if c > 0 then incr j
    else begin
      (* find the extent of the equal-key group on each side *)
      let i_end = ref (!i + 1) in
      while !i_end < na && key_cmp (Relation.get a !i_end) tb = 0 do
        incr i_end
      done;
      let j_end = ref (!j + 1) in
      while !j_end < nb && key_cmp ta (Relation.get b !j_end) = 0 do
        incr j_end
      done;
      for x = !i to !i_end - 1 do
        for y = !j to !j_end - 1 do
          let t = Tuple.concat (Relation.get a x) (Relation.get b y) in
          if Row_pred.eval residual t then Relation.add out t
        done
      done;
      i := !i_end;
      j := !j_end
    end
  done;
  out

let check_compatible a b =
  if Schema.arity (Relation.schema a) <> Schema.arity (Relation.schema b) then
    invalid_arg "Ops: arity mismatch in set operation"

let union_all a b =
  check_compatible a b;
  let out = Relation.create ~name:(Relation.name a) (Relation.schema a) in
  Relation.iter (Relation.add out) a;
  Relation.iter (Relation.add out) b;
  out

let union a b = Relation.distinct (union_all a b)

(* Hash-set membership of [b] shared by [inter]/[diff]; the former
   [Relation.mem] scans made both operators O(|a|·|b|). *)
let tuple_set b =
  let set = Relation.Tuple_tbl.create (max 16 (Relation.cardinality b)) in
  Relation.iter (fun t -> Relation.Tuple_tbl.replace set t ()) b;
  set

let inter a b =
  check_compatible a b;
  let bs = tuple_set b in
  let out = Relation.create ~name:(Relation.name a) (Relation.schema a) in
  Relation.iter
    (fun t -> if Relation.Tuple_tbl.mem bs t then Relation.add out t)
    (Relation.distinct a);
  out

let diff a b =
  check_compatible a b;
  let bs = tuple_set b in
  let out = Relation.create ~name:(Relation.name a) (Relation.schema a) in
  Relation.iter
    (fun t -> if not (Relation.Tuple_tbl.mem bs t) then Relation.add out t)
    (Relation.distinct a);
  out

let rename name r = Relation.with_name name r

let order_by cols r =
  let cmp a b =
    let rec loop = function
      | [] -> 0
      | c :: rest ->
        let k = Value.compare (Tuple.get a c) (Tuple.get b c) in
        if k <> 0 then k else loop rest
    in
    loop cols
  in
  Relation.sort_by cmp r

let limit n r =
  let out = Relation.create ~name:(Relation.name r) (Relation.schema r) in
  (try
     Relation.fold
       (fun k t ->
         if k >= n then raise Exit;
         Relation.add out t;
         k + 1)
       0 r
     |> ignore
   with Exit -> ());
  out
