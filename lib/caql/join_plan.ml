module L = Braid_logic
module R = Braid_relalg

exception Unsafe of string

(* --- plans --- *)

(* Where a plan reads a value: a slot of the run's binding array, or a
   constant. A compiler's parameters occupy the first slots. *)
type term =
  | Slot of int
  | Lit of R.Value.t

(* One atom of a plan. A range read, or an atom with no bound column, is
   scanned and its bound columns tested; any other atom is probed through
   the index on exactly its bound columns. *)
type step = {
  input : int;
  range : bool;  (* reads the input's rows [lo, hi) rather than all of them *)
  index : int;  (* the probed index, or -1 for a scan *)
  key : term array;  (* the probe key, one term per indexed column *)
  tests : (int * term) array;  (* a scan's bound columns *)
  repeats : (int * int) array;  (* a column equal to an earlier column of the atom *)
  binds : (int * int) array;  (* column -> slot of a variable the atom binds *)
  filter : R.Row_pred.t;  (* the comparisons bound by this step, over the slots *)
}

type t = {
  ground : R.Row_pred.t;  (* the comparisons without variables *)
  steps : step array;
  head : term array;
  target : int;
  whole : bool;  (* one step whose row, as it stands, is the head tuple *)
}

type compiler = {
  params : R.Value.t array;
  mutable indexes : (int * int list) list;  (* each index's input and columns, newest first *)
  mutable slots : int;
}

let compiler ?(params = [||]) () = { params; indexes = []; slots = Array.length params }

let index_of c input cols =
  let rec find id = function
    | [] ->
      c.indexes <- (input, cols) :: c.indexes;
      List.length c.indexes - 1
    | (i, cs) :: rest -> if i = input && cs = cols then id else find (id - 1) rest
  in
  find (List.length c.indexes - 1) c.indexes

let const c v =
  let rec find i =
    if i = Array.length c.params then Lit v
    else if R.Value.equal c.params.(i) v then Slot i
    else find (i + 1)
  in
  find 0

let cmp_vars (_, a, b) = L.Literal.expr_vars a @ L.Literal.expr_vars b

(* The join order starts from [lead] or the first atom, then takes the
   first remaining atom that shares a bound variable, or else the first
   remaining one. *)
let compile c ?lead ?(range = false) ~target ~head ~atoms ~cmps () =
  let atoms = Array.of_list atoms in
  let n = Array.length atoms in
  let slot = ref [] in
  let next = ref (Array.length c.params) in
  let rec operand = function
    | L.Literal.Term (L.Term.Var x) -> R.Row_pred.Col (List.assoc x !slot)
    | L.Literal.Term (L.Term.Const v) ->
      (match const c v with Slot i -> R.Row_pred.Col i | Lit v -> R.Row_pred.Lit v)
    | L.Literal.Add (a, b) -> R.Row_pred.Add (operand a, operand b)
    | L.Literal.Sub (a, b) -> R.Row_pred.Sub (operand a, operand b)
    | L.Literal.Mul (a, b) -> R.Row_pred.Mul (operand a, operand b)
    | L.Literal.Div (a, b) -> R.Row_pred.Div (operand a, operand b)
  in
  let pending = ref cmps in
  let ready () =
    let now, later =
      List.partition
        (fun cmp -> List.for_all (fun x -> List.mem_assoc x !slot) (cmp_vars cmp))
        !pending
    in
    pending := later;
    R.Row_pred.conj (List.map (fun (op, a, b) -> R.Row_pred.Cmp (op, operand a, operand b)) now)
  in
  let ground = ready () in
  let used = Array.make n false in
  let step k =
    used.(k) <- true;
    let input, (a : L.Atom.t) = atoms.(k) in
    let is_lead = lead = Some k in
    let bound = ref [] and repeats = ref [] and binds = ref [] and here = ref [] in
    List.iteri
      (fun col t ->
        match t with
        | L.Term.Const v -> bound := (col, const c v) :: !bound
        | L.Term.Var x ->
          (match List.assoc_opt x !here, List.assoc_opt x !slot with
           | Some c0, _ -> repeats := (col, c0) :: !repeats
           | None, Some s -> bound := (col, Slot s) :: !bound
           | None, None ->
             let s = !next in
             incr next;
             slot := (x, s) :: !slot;
             here := (x, col) :: !here;
             binds := (col, s) :: !binds))
      a.L.Atom.args;
    let bound = List.rev !bound in
    let index, key, tests =
      if is_lead || bound = [] then (-1, [||], Array.of_list bound)
      else (index_of c input (List.map fst bound), Array.of_list (List.map snd bound), [||])
    in
    let repeats = Array.of_list (List.rev !repeats) and binds = Array.of_list (List.rev !binds) in
    { input; range = is_lead && range; index; key; tests; repeats; binds; filter = ready () }
  in
  let connected k =
    List.exists
      (function L.Term.Var x -> List.mem_assoc x !slot | L.Term.Const _ -> false)
      (snd atoms.(k)).L.Atom.args
  in
  let rec pick k fallback =
    if k = n then fallback
    else if used.(k) then pick (k + 1) fallback
    else if connected k then k
    else pick (k + 1) (if fallback < 0 then k else fallback)
  in
  let rec order acc = match pick 0 (-1) with -1 -> List.rev acc | k -> order (step k :: acc) in
  let steps = Array.of_list (order (match lead with Some k -> [ step k ] | None -> [])) in
  (match !pending with
   | [] -> ()
   | (op, a, b) :: _ ->
     raise
       (Unsafe
          (Format.asprintf "comparison with unbound variable: %a" L.Literal.pp
             (L.Literal.Cmp (op, a, b)))));
  let head =
    Array.of_list
      (List.map
         (function
           | L.Term.Var x ->
             (match List.assoc_opt x !slot with
              | Some s -> Slot s
              | None -> raise (Unsafe ("unbound head variable: " ^ x)))
           | L.Term.Const v -> const c v)
         head)
  in
  c.slots <- max c.slots !next;
  (* When a row has as many columns as the head, every column is a bind,
     in column order; the runner checks the row's arity. *)
  let whole =
    match steps with
    | [| st |] ->
      Array.length st.binds = Array.length head
      && Array.for_all2 (fun h (_, s) -> h = Slot s) head st.binds
    | _ -> false
  in
  { ground; steps; head; target; whole }

(* --- running plans --- *)

type run = {
  bindings : R.Value.t array;
  rels : R.Relation.t array;
  lo : int array;  (* a range step reads the rows [lo, hi) of its input *)
  hi : int array;
  indexes : (int * int list) array;
  on_input : int list array;  (* per input, the indexes over it *)
  providers : (int list -> R.Index.t option) array;
  built : R.Index.t option array;  (* got on first probe *)
  keys : R.Value.t array array;  (* per index, the buffer a multi-column probe fills *)
  emit : int -> R.Tuple.t -> unit;
}

let start c ~rels ?providers ?(ranges = ([||], [||])) ?(args = [||]) ~emit () =
  if Array.length args <> Array.length c.params then
    invalid_arg "Join_plan.start: one argument per parameter";
  let bindings = Array.make (max 1 c.slots) R.Value.Null in
  Array.blit args 0 bindings 0 (Array.length args);
  let indexes = Array.of_list (List.rev c.indexes) in
  let on_input = Array.make (Array.length rels) [] in
  Array.iteri (fun id (input, _) -> on_input.(input) <- id :: on_input.(input)) indexes;
  {
    bindings;
    rels;
    lo = fst ranges;
    hi = snd ranges;
    indexes;
    on_input;
    providers =
      (match providers with Some p -> p | None -> Array.make (Array.length rels) (fun _ -> None));
    built = Array.make (Array.length indexes) None;
    keys = Array.map (fun (_, cols) -> Array.make (List.length cols) R.Value.Null) indexes;
    emit;
  }

let add run input t =
  R.Relation.add run.rels.(input) t;
  List.iter
    (fun id -> match run.built.(id) with Some ix -> R.Index.add ix t | None -> ())
    run.on_input.(input)

let value run = function Slot s -> run.bindings.(s) | Lit v -> v

(* An input probes the index its provider keeps on those columns, if
   any; other indexes are built here. *)
let index run id =
  match run.built.(id) with
  | Some ix -> ix
  | None ->
    let input, cols = run.indexes.(id) in
    let ix =
      match run.providers.(input) cols with
      | Some ix -> ix
      | None -> R.Index.build run.rels.(input) cols
    in
    run.built.(id) <- Some ix;
    ix

let rec tests_hold run t tests k =
  k = Array.length tests
  ||
  let c, tm = tests.(k) in
  R.Value.equal (R.Tuple.get t c) (value run tm) && tests_hold run t tests (k + 1)

let rec repeats_hold t repeats k =
  k = Array.length repeats
  ||
  let c, c0 = repeats.(k) in
  R.Value.equal (R.Tuple.get t c) (R.Tuple.get t c0) && repeats_hold t repeats (k + 1)

let rec visit run plan i =
  if i = Array.length plan.steps then emit run plan
  else begin
    let st = plan.steps.(i) in
    let rel = run.rels.(st.input) in
    if st.range then
      for r = run.lo.(st.input) to run.hi.(st.input) - 1 do
        row run plan i st (R.Relation.get rel r)
      done
    else if st.index < 0 then
      for r = 0 to R.Relation.cardinality rel - 1 do
        row run plan i st (R.Relation.get rel r)
      done
    else begin
      let ix = index run st.index in
      let key = st.key in
      let p =
        if Array.length key = 1 then R.Index.first1 ix (value run key.(0))
        else begin
          let buf = run.keys.(st.index) in
          for k = 0 to Array.length key - 1 do
            buf.(k) <- value run key.(k)
          done;
          R.Index.first ix buf
        end
      in
      bucket run plan i st ix p
    end
  end

(* The probed bucket from cursor position [p] on, oldest first. *)
and bucket run plan i st ix p =
  if p >= 0 then begin
    row run plan i st (R.Index.tuple_at ix p);
    bucket run plan i st ix (R.Index.next ix p)
  end

and row run plan i st t =
  if tests_hold run t st.tests 0 && repeats_hold t st.repeats 0 then begin
    let binds = st.binds in
    for k = 0 to Array.length binds - 1 do
      let c, s = binds.(k) in
      run.bindings.(s) <- R.Tuple.get t c
    done;
    if match st.filter with R.Row_pred.True -> true | f -> R.Row_pred.eval f run.bindings then
      if plan.whole && R.Tuple.arity t = Array.length plan.head then run.emit plan.target t
      else visit run plan (i + 1)
  end

and emit run plan =
  let head = plan.head in
  let t = Array.make (Array.length head) R.Value.Null in
  for k = 0 to Array.length head - 1 do
    t.(k) <- value run head.(k)
  done;
  run.emit plan.target t

let execute run plan =
  match plan.ground with
  | R.Row_pred.True -> visit run plan 0
  | g -> if R.Row_pred.eval g run.bindings then visit run plan 0
