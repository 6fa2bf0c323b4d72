module L = Braid_logic
module R = Braid_relalg
module A = Braid_caql.Ast

type outcome = {
  result : R.Relation.t;
  iterations : int;
  tuples_produced : int;
  fetches : int;
  fetched_tuples : int;
  derived_sizes : (string * int) list;
}

type source =
  | Extensions of (string -> R.Relation.t option)
  | Conj_fetch of {
      fetch : A.conj -> R.Relation.t;
      schema : string -> R.Schema.t option;
    }

exception Unknown_base_relation of string

let body_atoms (r : L.Rule.t) =
  List.filter_map
    (function L.Literal.Rel a -> Some a | L.Literal.Cmp _ -> None)
    r.L.Rule.body

let body_cmps (r : L.Rule.t) =
  List.filter_map
    (function L.Literal.Cmp (op, a, b) -> Some (op, a, b) | L.Literal.Rel _ -> None)
    r.L.Rule.body

(* Derived predicates reachable from the query through rules. *)
let reachable kb query =
  let visited = Hashtbl.create 16 in
  let rec go p =
    if (not (Hashtbl.mem visited p)) && L.Kb.is_derived kb p then begin
      Hashtbl.add visited p ();
      List.iter
        (fun r -> List.iter (fun a -> go a.L.Atom.pred) (body_atoms r))
        (L.Kb.rules_for kb p)
    end
  in
  go query.L.Atom.pred;
  Hashtbl.fold (fun p () acc -> p :: acc) visited [] |> List.sort String.compare

let rule_query (r : L.Rule.t) =
  A.conj ~cmps:(body_cmps r) r.L.Rule.head.L.Atom.args (body_atoms r)

(* A predicate that is neither derived nor declared base fails (empty), as
   in Prolog. The placeholder schema is never joined against a tuple — the
   relation is empty by construction — so its types are immaterial. *)
let prolog_fail (a : L.Atom.t) =
  let attrs =
    List.mapi (fun i _ -> (Printf.sprintf "a%d" i, R.Value.Tstr)) a.L.Atom.args
  in
  R.Relation.create ~name:a.L.Atom.pred (R.Schema.make attrs)

(* --- set-oriented base access: one conjunctive fetch per component --- *)

(* φ$<rule>$<k> — pseudo-relations standing for a fetched base component.
   The prefix cannot collide with user predicates or the Δ marker. *)
let fetch_marker = "\xcf\x86$"

let cmp_vars (_, a, b) = L.Literal.expr_vars a @ L.Literal.expr_vars b

(* Split a rule body into maximal variable-connected groups of base atoms
   (each becomes one conjunctive fetch, carrying the comparisons it covers
   as shipped selections) and a local residue: derived atoms, unshippable
   comparisons, and one pseudo-atom per group over the group's variables.
   Ground base atoms stay local and resolve through a whole-extension
   fetch, as do base atoms reached outside any prepared rule. *)
let componentize kb (r : L.Rule.t) =
  let indexed = List.mapi (fun i l -> (i, l)) r.L.Rule.body in
  let base_atoms =
    List.filter_map
      (fun (i, l) ->
        match l with
        | L.Literal.Rel a when L.Kb.is_base kb a.L.Atom.pred && L.Atom.vars a <> [] ->
          Some (i, a)
        | _ -> None)
      indexed
  in
  let groups =
    List.fold_left
      (fun groups (i, a) ->
        let avars = L.Atom.vars a in
        let touches group =
          List.exists
            (fun (_, b) -> List.exists (fun v -> List.mem v avars) (L.Atom.vars b))
            group
        in
        let touching, rest = List.partition touches groups in
        (List.concat touching @ [ (i, a) ]) :: rest)
      [] base_atoms
  in
  let groups =
    List.map (List.sort (fun (i, _) (j, _) -> compare i j)) groups
    |> List.sort (fun g1 g2 -> compare (fst (List.hd g1)) (fst (List.hd g2)))
  in
  let group_vars group =
    let seen = Hashtbl.create 8 in
    List.concat_map (fun (_, a) -> L.Atom.vars a) group
    |> List.filter (fun v ->
           if Hashtbl.mem seen v then false
           else begin
             Hashtbl.add seen v ();
             true
           end)
  in
  let cmps =
    List.filter_map
      (fun (i, l) ->
        match l with
        | L.Literal.Cmp (op, a, b) -> Some (i, (op, a, b))
        | L.Literal.Rel _ -> None)
      indexed
  in
  let shipped = Hashtbl.create 8 in
  let built =
    List.mapi
      (fun k group ->
        let vars = group_vars group in
        let covered =
          List.filter
            (fun (i, c) ->
              let cv = cmp_vars c in
              cv <> []
              && (not (Hashtbl.mem shipped i))
              && List.for_all (fun v -> List.mem v vars) cv)
            cmps
        in
        List.iter (fun (i, _) -> Hashtbl.replace shipped i ()) covered;
        let pseudo = fetch_marker ^ r.L.Rule.id ^ "$" ^ string_of_int k in
        let head = List.map (fun v -> L.Term.Var v) vars in
        let conj = A.conj ~cmps:(List.map snd covered) head (List.map snd group) in
        (group, pseudo, vars, conj))
      groups
  in
  let replacement = Hashtbl.create 8 in
  List.iter
    (fun (group, pseudo, vars, _) ->
      List.iteri
        (fun pos (i, _) ->
          if pos = 0 then
            Hashtbl.replace replacement i
              (`First (L.Atom.make pseudo (List.map (fun v -> L.Term.Var v) vars)))
          else Hashtbl.replace replacement i `Drop)
        group)
    built;
  let body' =
    List.filter_map
      (fun (i, l) ->
        match Hashtbl.find_opt replacement i with
        | Some (`First pa) -> Some (L.Literal.Rel pa)
        | Some `Drop -> None
        | None -> if Hashtbl.mem shipped i then None else Some l)
      indexed
  in
  ({ r with L.Rule.body = body' }, List.map (fun (_, p, _, c) -> (p, c)) built)

(* --- rule plans, compiled once per program --- *)

(* Where a plan reads a value: a slot of the run's binding array, or a
   constant. A program's parameters occupy its first slots. *)
type term =
  | Slot of int
  | Lit of R.Value.t

(* Where a step's rows come from: a derived predicate's total, the rows
   that total gained in the previous round (its delta), or a static
   relation (a fetched component, a supplied extension, an empty
   failure). *)
type input =
  | Total of int
  | Delta of int
  | Static of int

(* One atom of a plan. A delta, or an atom with no bound column, is
   scanned and its bound columns tested; any other atom is probed through
   the index on exactly its bound columns. *)
type step = {
  input : input;
  index : int;  (* the probed index, or -1 for a scan *)
  key : term array;  (* the probe key, one term per indexed column *)
  tests : (int * term) array;  (* a scan's bound columns *)
  repeats : (int * int) array;  (* a column equal to an earlier column of the atom *)
  binds : (int * int) array;  (* column -> slot of a variable the atom binds *)
  filter : R.Row_pred.t;  (* the comparisons bound by this step, over the slots *)
}

type plan = {
  ground : R.Row_pred.t;  (* the comparisons without variables *)
  steps : step array;
  head : term array;
  target : int;  (* the derived predicate it derives into; -1 for the answer *)
}

type static =
  | Fetch of A.conj
  | Extension of L.Atom.t * bool  (* a supplied extension; whether declared base *)
  | Fail of L.Atom.t

type program = {
  params : int;
  slots : int;
  derived : string array;  (* in evaluation order *)
  schemas : R.Schema.t array;  (* each total's schema *)
  statics : static array;  (* in the order round 0 first reads them *)
  indexes : (input * int list) array;
  total_indexes : int list array;  (* per derived predicate, the indexes on its total *)
  round0 : plan list array;  (* per derived predicate, one plan per rule *)
  deltas : (int * plan) list array;
      (* per derived predicate, one plan per derived body occurrence,
         led by that occurrence's delta: (its predicate, the plan) *)
  answer : plan;
  answer_schema : R.Schema.t;
}

let compile_program kb ~skip_rules ~params ~fetched ~base_schema (query : L.Atom.t) =
  let params = Array.of_list params in
  let skip = Hashtbl.create (max 4 (List.length skip_rules)) in
  List.iter (fun id -> Hashtbl.replace skip id ()) skip_rules;
  let derived = Array.of_list (reachable kb query) in
  let derived_ix = Hashtbl.create 16 in
  Array.iteri (fun i p -> Hashtbl.replace derived_ix p i) derived;
  (* Rules are prepared once per predicate: skip-filtered, and in fetch
     mode componentized so each base group is one pseudo-atom. *)
  let pseudo_defs : (string, A.conj) Hashtbl.t = Hashtbl.create 16 in
  let rules =
    Array.map
      (fun p ->
        let rs =
          List.filter
            (fun (r : L.Rule.t) -> not (Hashtbl.mem skip r.L.Rule.id))
            (L.Kb.rules_for kb p)
        in
        if not fetched then rs
        else
          List.map
            (fun r ->
              let r', comps = componentize kb r in
              List.iter (fun (pseudo, c) -> Hashtbl.replace pseudo_defs pseudo c) comps;
              r')
            rs)
      derived
  in
  (* Fail loudly up front when a componentized base relation has no catalog
     schema: fetching it could only silently type-mismatch. A component is
     fetched as compiled, so it cannot carry a parameter. *)
  Hashtbl.iter
    (fun _ (c : A.conj) ->
      List.iter
        (fun (a : L.Atom.t) ->
          if base_schema a.L.Atom.pred = None then raise (Unknown_base_relation a.L.Atom.pred))
        c.A.atoms;
      if List.exists (fun v -> Array.exists (R.Value.equal v) params) (A.constants c) then
        invalid_arg "Datalog.compile: a parameter in a fetched component")
    pseudo_defs;
  (* Pseudo-relation schemas follow from the base schemas. A total's schema
     is inferred from its first rule twice, in evaluation order: first
     before round 0, when later totals are not there yet, then as round 0
     derives it, over the earlier totals' final schemas. *)
  let pseudo_schema = Hashtbl.create 16 in
  Hashtbl.iter
    (fun pseudo c ->
      Hashtbl.replace pseudo_schema pseudo (Braid_caql.Analyze.schema_of_conj base_schema c))
    pseudo_defs;
  let schemas = Array.make (Array.length derived) None in
  let schema_of name =
    match Hashtbl.find_opt derived_ix name with
    | Some i when Option.is_some schemas.(i) -> schemas.(i)
    | Some _ | None ->
      (match Hashtbl.find_opt pseudo_schema name with
       | Some s -> Some s
       | None -> base_schema name)
  in
  let infer i =
    match rules.(i) with
    | [] -> Some (R.Schema.make [])
    | r :: _ -> Some (Braid_caql.Analyze.schema_of_conj schema_of (rule_query r))
  in
  Array.iteri (fun i _ -> schemas.(i) <- infer i) derived;
  Array.iteri (fun i _ -> schemas.(i) <- infer i) derived;
  (* Static relations, one per distinct fetch (components that are
     variants share one), supplied extension or failing predicate. *)
  let statics = ref [] and static_ids = Hashtbl.create 16 in
  let intern key s =
    match Hashtbl.find_opt static_ids key with
    | Some k -> k
    | None ->
      let k = Hashtbl.length static_ids in
      Hashtbl.add static_ids key k;
      statics := s :: !statics;
      k
  in
  let fetch_static c = intern ("F" ^ A.variant_key c) (Fetch c) in
  let input_of (a : L.Atom.t) =
    let p = a.L.Atom.pred in
    match Hashtbl.find_opt derived_ix p with
    | Some i -> Total i
    | None when not fetched -> Static (intern ("E" ^ p) (Extension (a, L.Kb.is_base kb p)))
    | None ->
      (match Hashtbl.find_opt pseudo_defs p with
       | Some c -> Static (fetch_static c)
       | None ->
         if L.Kb.is_base kb p then begin
           (* a ground base atom: a whole-extension fetch *)
           match base_schema p, L.Kb.base_arity kb p with
           | Some _, Some arity ->
             let vars = List.init arity (fun i -> L.Term.Var (Printf.sprintf "V%d" i)) in
             Static (fetch_static (A.conj vars [ L.Atom.make p vars ]))
           | _ -> raise (Unknown_base_relation p)
         end
         else Static (intern ("0" ^ p) (Fail a)))
  in
  (* Statics are numbered in the order round 0 reads them, so a run
     fetches in rule order. *)
  Array.iter (List.iter (fun r -> List.iter (fun a -> ignore (input_of a)) (body_atoms r))) rules;
  ignore (input_of query);
  let indexes = ref [] and index_ids = Hashtbl.create 16 in
  let index_of input cols =
    match Hashtbl.find_opt index_ids (input, cols) with
    | Some id -> id
    | None ->
      let id = Hashtbl.length index_ids in
      Hashtbl.add index_ids (input, cols) id;
      indexes := (input, cols) :: !indexes;
      id
  in
  let const v =
    let rec find i =
      if i = Array.length params then Lit v
      else if R.Value.equal params.(i) v then Slot i
      else find (i + 1)
    in
    find 0
  in
  let slots = ref (Array.length params) in
  (* The join order starts from [lead] (a delta occurrence) or the first
     atom, then takes the first remaining atom that shares a bound
     variable, or else the first remaining one. *)
  let plan_of ~target ~lead ~head ~atoms ~cmps =
    let atoms = Array.of_list atoms in
    let n = Array.length atoms in
    let slot = Hashtbl.create 8 in
    let next = ref (Array.length params) in
    let rec operand = function
      | L.Literal.Term (L.Term.Var x) -> R.Row_pred.Col (Hashtbl.find slot x)
      | L.Literal.Term (L.Term.Const v) ->
        (match const v with Slot i -> R.Row_pred.Col i | Lit v -> R.Row_pred.Lit v)
      | L.Literal.Add (a, b) -> R.Row_pred.Add (operand a, operand b)
      | L.Literal.Sub (a, b) -> R.Row_pred.Sub (operand a, operand b)
      | L.Literal.Mul (a, b) -> R.Row_pred.Mul (operand a, operand b)
      | L.Literal.Div (a, b) -> R.Row_pred.Div (operand a, operand b)
    in
    let pending = ref cmps in
    let ready () =
      let now, later =
        List.partition (fun c -> List.for_all (Hashtbl.mem slot) (cmp_vars c)) !pending
      in
      pending := later;
      R.Row_pred.conj (List.map (fun (op, a, b) -> R.Row_pred.Cmp (op, operand a, operand b)) now)
    in
    let ground = ready () in
    let used = Array.make n false in
    let step k =
      used.(k) <- true;
      let a = atoms.(k) in
      let input =
        match input_of a with
        | Total i when lead = Some k -> Delta i
        | input -> input
      in
      let bound = ref [] and repeats = ref [] and binds = ref [] and here = ref [] in
      List.iteri
        (fun c t ->
          match t with
          | L.Term.Const v -> bound := (c, const v) :: !bound
          | L.Term.Var x ->
            (match List.assoc_opt x !here, Hashtbl.find_opt slot x with
             | Some c0, _ -> repeats := (c, c0) :: !repeats
             | None, Some s -> bound := (c, Slot s) :: !bound
             | None, None ->
               let s = !next in
               incr next;
               Hashtbl.add slot x s;
               here := (x, c) :: !here;
               binds := (c, s) :: !binds))
        a.L.Atom.args;
      let bound = List.rev !bound in
      let index, key, tests =
        match input, bound with
        | Delta _, _ | _, [] -> (-1, [||], Array.of_list bound)
        | (Total _ | Static _), _ ->
          (index_of input (List.map fst bound), Array.of_list (List.map snd bound), [||])
      in
      let repeats = Array.of_list (List.rev !repeats) and binds = Array.of_list (List.rev !binds) in
      { input; index; key; tests; repeats; binds; filter = ready () }
    in
    let connected k =
      List.exists
        (function L.Term.Var x -> Hashtbl.mem slot x | L.Term.Const _ -> false)
        atoms.(k).L.Atom.args
    in
    let rec pick k fallback =
      if k = n then fallback
      else if used.(k) then pick (k + 1) fallback
      else if connected k then k
      else pick (k + 1) (if fallback < 0 then k else fallback)
    in
    let rec order acc =
      match pick 0 (-1) with
      | -1 -> List.rev acc
      | k ->
        let s = step k in
        order (s :: acc)
    in
    let steps = order (match lead with Some k -> [ step k ] | None -> []) in
    (match !pending with
     | [] -> ()
     | (op, a, b) :: _ ->
       raise
         (Braid_caql.Eval.Unsafe
            (Format.asprintf "comparison with unbound variable: %a" L.Literal.pp
               (L.Literal.Cmp (op, a, b)))));
    let head =
      List.map
        (function
          | L.Term.Var x ->
            (match Hashtbl.find_opt slot x with
             | Some s -> Slot s
             | None -> raise (Braid_caql.Eval.Unsafe ("unbound head variable: " ^ x)))
          | L.Term.Const v -> const v)
        head
    in
    slots := max !slots !next;
    { ground; steps = Array.of_list steps; head = Array.of_list head; target }
  in
  let rule_plan target lead (r : L.Rule.t) =
    plan_of ~target ~lead ~head:r.L.Rule.head.L.Atom.args ~atoms:(body_atoms r)
      ~cmps:(body_cmps r)
  in
  let round0 = Array.mapi (fun i -> List.map (rule_plan i None)) rules in
  let deltas =
    Array.mapi
      (fun i ->
        List.concat_map (fun r ->
            List.concat
              (List.mapi
                 (fun j (a : L.Atom.t) ->
                   match Hashtbl.find_opt derived_ix a.L.Atom.pred with
                   | Some q -> [ (q, rule_plan i (Some j) r) ]
                   | None -> [])
                 (body_atoms r))))
      rules
  in
  let answer_head = List.map (fun v -> L.Term.Var v) (L.Atom.vars query) in
  let answer = plan_of ~target:(-1) ~lead:None ~head:answer_head ~atoms:[ query ] ~cmps:[] in
  let indexes = Array.of_list (List.rev !indexes) in
  let total_indexes = Array.make (Array.length derived) [] in
  Array.iteri
    (fun id (input, _) ->
      match input with
      | Total p -> total_indexes.(p) <- id :: total_indexes.(p)
      | Delta _ | Static _ -> ())
    indexes;
  {
    params = Array.length params;
    slots = !slots;
    derived;
    schemas = Array.map Option.get schemas;
    statics = Array.of_list (List.rev !statics);
    indexes;
    total_indexes;
    round0;
    deltas;
    answer;
    answer_schema = Braid_caql.Analyze.schema_of_conj schema_of (A.conj answer_head [ query ]);
  }

(* --- running a program --- *)

(* The state of one run; nothing outlives it. Each derived predicate's
   total only grows, in first-derivation order, and its delta is a range
   of its rows. A plan's head tuples go straight into [pending] when its
   predicate's seen-set has not met them; the total takes them once all
   of that predicate's plans for the round have run. *)
type run = {
  prog : program;
  bindings : R.Value.t array;
  totals : R.Relation.t array;
  lo : int array;  (* the delta each predicate is read through this round: *)
  hi : int array;  (* the rows [lo, hi) of its total *)
  static_rels : R.Relation.t array;
  providers : (int list -> R.Index.t) option array;
      (* per static, where its indexes come from when not built here *)
  built : R.Index.t option array;  (* got on first probe *)
  keys : R.Value.t array array;  (* per index, the buffer a multi-column probe fills *)
  seen : unit R.Relation.Tuple_tbl.t array;
  pending : R.Tuple.t R.Vec.t;
  answer_rel : R.Relation.t;
  mutable produced : int;
}

let value run = function Slot s -> run.bindings.(s) | Lit v -> v

(* The whole relation of a non-delta input. *)
let relation run = function
  | Total p -> run.totals.(p)
  | Static k -> run.static_rels.(k)
  | Delta _ -> invalid_arg "Datalog: a delta is a range of its total"

(* A static relation that is exactly a cache element's extension probes
   the element's own indexes; any other input's are built here. *)
let index run id =
  match run.built.(id) with
  | Some ix -> ix
  | None ->
    let input, cols = run.prog.indexes.(id) in
    let provided = match input with Static k -> run.providers.(k) | Total _ | Delta _ -> None in
    let ix =
      match provided with Some ix -> ix cols | None -> R.Index.build (relation run input) cols
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
    match st.input with
    | Delta p ->
      let tot = run.totals.(p) in
      for r = run.lo.(p) to run.hi.(p) - 1 do
        row run plan i st (R.Relation.get tot r)
      done
    | (Total _ | Static _) as input when st.index < 0 ->
      let rel = relation run input in
      for r = 0 to R.Relation.cardinality rel - 1 do
        row run plan i st (R.Relation.get rel r)
      done
    | Total _ | Static _ ->
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
    match st.filter with
    | R.Row_pred.True -> visit run plan (i + 1)
    | f -> if R.Row_pred.eval f run.bindings then visit run plan (i + 1)
  end

and emit run plan =
  let head = plan.head in
  let t = Array.make (Array.length head) R.Value.Null in
  for k = 0 to Array.length head - 1 do
    t.(k) <- value run head.(k)
  done;
  if plan.target < 0 then R.Relation.add run.answer_rel t
  else begin
    run.produced <- run.produced + 1;
    let seen = run.seen.(plan.target) in
    if not (R.Relation.Tuple_tbl.mem seen t) then begin
      R.Relation.Tuple_tbl.add seen t ();
      R.Vec.push run.pending t
    end
  end

let execute run plan =
  match plan.ground with
  | R.Row_pred.True -> visit run plan 0
  | g -> if R.Row_pred.eval g run.bindings then visit run plan 0

let exec_program prog ~resolve ~args =
  let args = Array.of_list args in
  if Array.length args <> prog.params then
    invalid_arg "Datalog.exec: one argument per parameter";
  let bindings = Array.make (max 1 prog.slots) R.Value.Null in
  Array.blit args 0 bindings 0 prog.params;
  let n = Array.length prog.derived in
  let statics = Array.map resolve prog.statics in
  let run =
    {
      prog;
      bindings;
      totals = Array.mapi (fun i s -> R.Relation.create ~name:prog.derived.(i) s) prog.schemas;
      lo = Array.make n 0;
      hi = Array.make n 0;
      static_rels = Array.map fst statics;
      providers = Array.map snd statics;
      built = Array.make (Array.length prog.indexes) None;
      keys = Array.map (fun (_, cols) -> Array.make (List.length cols) R.Value.Null) prog.indexes;
      seen = Array.init n (fun _ -> R.Relation.Tuple_tbl.create 64);
      pending = R.Vec.create ();
      answer_rel = R.Relation.create prog.answer_schema;
      produced = 0;
    }
  in
  let next_lo = Array.make n 0 and next_hi = Array.make n 0 in
  (* The predicate's fresh tuples join its total and the indexes built on
     it, and become its delta for the next round. *)
  let flush p =
    let tot = run.totals.(p) in
    next_lo.(p) <- R.Relation.cardinality tot;
    R.Vec.iter
      (fun t ->
        R.Relation.add tot t;
        List.iter
          (fun id -> match run.built.(id) with Some ix -> R.Index.add ix t | None -> ())
          prog.total_indexes.(p))
      run.pending;
    next_hi.(p) <- R.Relation.cardinality tot;
    R.Vec.clear run.pending
  in
  let advance () =
    Array.blit next_lo 0 run.lo 0 n;
    Array.blit next_hi 0 run.hi 0 n;
    Array.fill next_lo 0 n 0;
    Array.fill next_hi 0 n 0
  in
  (* round 0: every rule in full; a predicate's rules see the totals of
     the predicates before it, and empty ones for itself and those after *)
  Array.iteri
    (fun p plans ->
      List.iter (execute run) plans;
      flush p)
    prog.round0;
  advance ();
  let iterations = ref 1 in
  (* then each rule once per derived body occurrence with a live delta,
     until no predicate gains a tuple. A predicate reads the totals as the
     predicates before it left them this round. *)
  let live () =
    let rec go p = p < n && (run.lo.(p) < run.hi.(p) || go (p + 1)) in
    go 0
  in
  while live () do
    incr iterations;
    Array.iteri
      (fun p plans ->
        List.iter (fun (q, plan) -> if run.lo.(q) < run.hi.(q) then execute run plan) plans;
        flush p)
      prog.deltas;
    advance ()
  done;
  execute run prog.answer;
  {
    result = run.answer_rel;
    iterations = !iterations;
    tuples_produced = run.produced;
    fetches = 0;
    fetched_tuples = 0;
    derived_sizes =
      Array.to_list
        (Array.mapi (fun i p -> (p, R.Relation.cardinality run.totals.(i))) prog.derived);
  }

let compile kb ?(skip_rules = []) ?(params = []) ~schema query =
  compile_program kb ~skip_rules ~params ~fetched:true ~base_schema:schema query

let exec prog ~args ~fetch =
  let fetches = ref 0 and fetched_tuples = ref 0 in
  let resolve = function
    | Fetch c ->
      incr fetches;
      let ((r, _) as fetched) = fetch c in
      fetched_tuples := !fetched_tuples + R.Relation.cardinality r;
      fetched
    | Fail a -> (prolog_fail a, None)
    | Extension _ -> invalid_arg "Datalog.exec: not a fetching program"
  in
  let outcome = exec_program prog ~resolve ~args in
  { outcome with fetches = !fetches; fetched_tuples = !fetched_tuples }

let run kb ?(skip_rules = []) ~source query =
  match source with
  | Conj_fetch { fetch; schema } ->
    exec (compile kb ~skip_rules ~schema query) ~args:[] ~fetch:(fun c -> (fetch c, None))
  | Extensions base ->
    let prog =
      compile_program kb ~skip_rules ~params:[] ~fetched:false
        ~base_schema:(fun p -> Option.map R.Relation.schema (base p))
        query
    in
    let resolve = function
      | Extension (a, declared) ->
        (match base a.L.Atom.pred with
         | Some r -> (r, None)
         | None ->
           if declared then raise (Unknown_base_relation a.L.Atom.pred)
           else (prolog_fail a, None))
      | Fail a -> (prolog_fail a, None)
      | Fetch _ -> invalid_arg "Datalog.run: a fetch without a fetching source"
    in
    exec_program prog ~resolve ~args:[]

let solve kb ?skip_rules ~base query = run kb ?skip_rules ~source:(Extensions base) query
