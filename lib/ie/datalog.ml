module L = Braid_logic
module R = Braid_relalg
module A = Braid_caql.Ast
module JP = Braid_caql.Join_plan

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

(* A program's plans read numbered inputs: each derived predicate's total
   first, in evaluation order, then the static relations (a fetched
   component, a supplied extension, an empty failure). A delta plan's lead
   reads its total's range: the rows that total gained in the previous
   round. *)
type static =
  | Fetch of A.conj
  | Extension of L.Atom.t * bool  (* a supplied extension; whether declared base *)
  | Fail of L.Atom.t

type program = {
  params : int;
  plans : JP.compiler;
  derived : string array;  (* in evaluation order *)
  schemas : R.Schema.t array;  (* each total's schema *)
  statics : static array;  (* in the order round 0 first reads them *)
  round0 : JP.t list array;  (* per derived predicate, one plan per rule *)
  deltas : (int * JP.t) list array;
      (* per derived predicate, one plan per derived body occurrence,
         led by that occurrence's delta: (its predicate, the plan) *)
  answer : JP.t;
  answer_schema : R.Schema.t;
}

let compile_program kb ~skip_rules ~params ~fetched ~base_schema (query : L.Atom.t) =
  let params = Array.of_list params in
  let skip = Hashtbl.create (max 4 (List.length skip_rules)) in
  List.iter (fun id -> Hashtbl.replace skip id ()) skip_rules;
  let derived = Array.of_list (reachable kb query) in
  let n = Array.length derived in
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
  let schemas = Array.make n None in
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
    | Some k -> n + k
    | None ->
      let k = Hashtbl.length static_ids in
      Hashtbl.add static_ids key k;
      statics := s :: !statics;
      n + k
  in
  let fetch_static c = intern ("F" ^ A.variant_key c) (Fetch c) in
  let input_of (a : L.Atom.t) =
    let p = a.L.Atom.pred in
    match Hashtbl.find_opt derived_ix p with
    | Some i -> i
    | None when not fetched -> intern ("E" ^ p) (Extension (a, L.Kb.is_base kb p))
    | None ->
      (match Hashtbl.find_opt pseudo_defs p with
       | Some c -> fetch_static c
       | None ->
         if L.Kb.is_base kb p then begin
           (* a ground base atom: a whole-extension fetch *)
           match base_schema p, L.Kb.base_arity kb p with
           | Some _, Some arity ->
             let vars = List.init arity (fun i -> L.Term.Var (Printf.sprintf "V%d" i)) in
             fetch_static (A.conj vars [ L.Atom.make p vars ])
           | _ -> raise (Unknown_base_relation p)
         end
         else intern ("0" ^ p) (Fail a))
  in
  (* Statics are numbered in the order round 0 reads them, so a run
     fetches in rule order. *)
  Array.iter (List.iter (fun r -> List.iter (fun a -> ignore (input_of a)) (body_atoms r))) rules;
  ignore (input_of query);
  let plans = JP.compiler ~params () in
  let rule_plan target lead (r : L.Rule.t) =
    JP.compile plans ?lead ~range:true ~target ~head:r.L.Rule.head.L.Atom.args
      ~atoms:(List.map (fun a -> (input_of a, a)) (body_atoms r))
      ~cmps:(body_cmps r) ()
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
  let answer =
    JP.compile plans ~target:(-1) ~head:answer_head ~atoms:[ (input_of query, query) ] ~cmps:[] ()
  in
  {
    params = Array.length params;
    plans;
    derived;
    schemas = Array.map Option.get schemas;
    statics = Array.of_list (List.rev !statics);
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
let exec_program prog ~resolve ~args =
  if List.length args <> prog.params then invalid_arg "Datalog.exec: one argument per parameter";
  let n = Array.length prog.derived in
  let totals = Array.mapi (fun i s -> R.Relation.create ~name:prog.derived.(i) s) prog.schemas in
  let statics = Array.map resolve prog.statics in
  let lo = Array.make n 0 and hi = Array.make n 0 in
  let seen = Array.init n (fun _ -> R.Relation.Tuple_tbl.create 64) in
  let pending = R.Vec.create () in
  let answer_rel = R.Relation.create prog.answer_schema in
  let produced = ref 0 in
  let emit target t =
    if target < 0 then R.Relation.add answer_rel t
    else begin
      incr produced;
      let seen = seen.(target) in
      if not (R.Relation.Tuple_tbl.mem seen t) then begin
        R.Relation.Tuple_tbl.add seen t ();
        R.Vec.push pending t
      end
    end
  in
  let run =
    JP.start prog.plans
      ~rels:(Array.append totals (Array.map fst statics))
      ~providers:
        (Array.append
           (Array.make n (fun _ -> None))
           (Array.map
              (function _, Some ix -> fun cols -> Some (ix cols) | _, None -> fun _ -> None)
              statics))
      ~ranges:(lo, hi) ~args:(Array.of_list args) ~emit ()
  in
  let next_lo = Array.make n 0 and next_hi = Array.make n 0 in
  (* The predicate's fresh tuples join its total and the indexes built on
     it, and become its delta for the next round. *)
  let flush p =
    next_lo.(p) <- R.Relation.cardinality totals.(p);
    R.Vec.iter (JP.add run p) pending;
    next_hi.(p) <- R.Relation.cardinality totals.(p);
    R.Vec.clear pending
  in
  let advance () =
    Array.blit next_lo 0 lo 0 n;
    Array.blit next_hi 0 hi 0 n;
    Array.fill next_lo 0 n 0;
    Array.fill next_hi 0 n 0
  in
  (* round 0: every rule in full; a predicate's rules see the totals of
     the predicates before it, and empty ones for itself and those after *)
  Array.iteri
    (fun p plans ->
      List.iter (JP.execute run) plans;
      flush p)
    prog.round0;
  advance ();
  let iterations = ref 1 in
  (* then each rule once per derived body occurrence with a live delta,
     until no predicate gains a tuple. A predicate reads the totals as the
     predicates before it left them this round. *)
  let live () =
    let rec go p = p < n && (lo.(p) < hi.(p) || go (p + 1)) in
    go 0
  in
  while live () do
    incr iterations;
    Array.iteri
      (fun p plans ->
        List.iter (fun (q, plan) -> if lo.(q) < hi.(q) then JP.execute run plan) plans;
        flush p)
      prog.deltas;
    advance ()
  done;
  JP.execute run prog.answer;
  {
    result = answer_rel;
    iterations = !iterations;
    tuples_produced = !produced;
    fetches = 0;
    fetched_tuples = 0;
    derived_sizes =
      Array.to_list (Array.mapi (fun i p -> (p, R.Relation.cardinality totals.(i))) prog.derived);
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
