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

(* [rule_query] with the [j]-th relation occurrence renamed to the delta
   marker, for semi-naive occurrence-restricted joins. *)
let delta_marker p = "\xce\x94" ^ p (* Δp *)

let rule_query_with_delta (r : L.Rule.t) j =
  let q = rule_query r in
  let atoms =
    List.mapi
      (fun i (a : L.Atom.t) ->
        if i = j then { a with L.Atom.pred = delta_marker a.L.Atom.pred } else a)
      q.A.atoms
  in
  { q with A.atoms }

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

let run kb ?(skip_rules = []) ~source:src query =
  let skip = Hashtbl.create (max 4 (List.length skip_rules)) in
  List.iter (fun id -> Hashtbl.replace skip id ()) skip_rules;
  let derived = reachable kb query in
  let derived_set = Hashtbl.create 16 in
  List.iter (fun p -> Hashtbl.replace derived_set p ()) derived;
  let is_derived p = Hashtbl.mem derived_set p in
  let fetches = ref 0 in
  let fetched_tuples = ref 0 in
  (* Rules are prepared once per predicate: skip-filtered, and in fetch
     mode componentized so each base group is one pseudo-atom. *)
  let pseudo_defs : (string, A.conj) Hashtbl.t = Hashtbl.create 16 in
  let prepared : (string, L.Rule.t list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun p ->
      let rs =
        List.filter
          (fun (r : L.Rule.t) -> not (Hashtbl.mem skip r.L.Rule.id))
          (L.Kb.rules_for kb p)
      in
      let rs =
        match src with
        | Extensions _ -> rs
        | Conj_fetch _ ->
          List.map
            (fun r ->
              let r', comps = componentize kb r in
              List.iter (fun (pseudo, c) -> Hashtbl.replace pseudo_defs pseudo c) comps;
              r')
            rs
      in
      Hashtbl.replace prepared p rs)
    derived;
  let rules_for p = Option.value ~default:[] (Hashtbl.find_opt prepared p) in
  (* Fail loudly up front when a componentized base relation has no catalog
     schema — fetching it could only silently type-mismatch. *)
  (match src with
   | Extensions _ -> ()
   | Conj_fetch { schema; _ } ->
     Hashtbl.iter
       (fun _ (c : A.conj) ->
         List.iter
           (fun (a : L.Atom.t) ->
             if schema a.L.Atom.pred = None then
               raise (Unknown_base_relation a.L.Atom.pred))
           c.A.atoms)
       pseudo_defs);
  let base_schema p =
    match src with
    | Extensions base -> Option.map R.Relation.schema (base p)
    | Conj_fetch { schema; _ } -> schema p
  in
  (* Pseudo-relation schemas are static: derivable from the base schemas
     before anything is fetched. *)
  let pseudo_schema = Hashtbl.create 16 in
  Hashtbl.iter
    (fun pseudo c ->
      Hashtbl.replace pseudo_schema pseudo (Braid_caql.Analyze.schema_of_conj base_schema c))
    pseudo_defs;
  let total : (string, R.Relation.t) Hashtbl.t = Hashtbl.create 16 in
  let delta : (string, R.Relation.t) Hashtbl.t = Hashtbl.create 16 in
  let schema_of name =
    match Hashtbl.find_opt total name with
    | Some r -> Some (R.Relation.schema r)
    | None ->
      (match Hashtbl.find_opt pseudo_schema name with
       | Some s -> Some s
       | None -> base_schema name)
  in
  (* Fetches are memoized on the canonical conjunct: base extensions are
     immutable during a fixpoint, so each distinct body fetch is issued
     once and reused across rounds (rounds after the first would be exact
     cache hits anyway). *)
  let fetch_memo : (string, R.Relation.t) Hashtbl.t = Hashtbl.create 16 in
  let do_fetch name (c : A.conj) =
    let key = A.variant_key c in
    match Hashtbl.find_opt fetch_memo key with
    | Some r -> R.Relation.with_name name r
    | None ->
      (match src with
       | Extensions _ -> assert false
       | Conj_fetch { fetch; _ } ->
         incr fetches;
         let r = fetch c in
         fetched_tuples := !fetched_tuples + R.Relation.cardinality r;
         Hashtbl.replace fetch_memo key r;
         R.Relation.with_name name r)
  in
  let whole_base p =
    match L.Kb.base_arity kb p with
    | None -> None
    | Some arity ->
      let vars = List.init arity (fun i -> L.Term.Var (Printf.sprintf "V%d" i)) in
      Some (do_fetch p (A.conj vars [ L.Atom.make p vars ]))
  in
  (* sources: [source] resolves derived predicates to their running totals;
     delta markers to the previous round's delta; pseudo-atoms to their
     (memoized) fetched components. A predicate declared base but absent
     from the supplied extensions fails loudly — an empty all-[Tstr]
     placeholder would silently type-mismatch an int-keyed join. *)
  let source (a : L.Atom.t) =
    let p = a.L.Atom.pred in
    match Hashtbl.find_opt total p with
    | Some r -> r
    | None ->
      (match Hashtbl.find_opt delta p with
       | Some r -> r
       | None ->
         (match src with
          | Extensions base ->
            (match base p with
             | Some r -> r
             | None ->
               if L.Kb.is_base kb p then raise (Unknown_base_relation p)
               else prolog_fail a)
          | Conj_fetch { schema; _ } ->
            (match Hashtbl.find_opt pseudo_defs p with
             | Some c -> do_fetch p c
             | None ->
               if L.Kb.is_base kb p then begin
                 if schema p = None then raise (Unknown_base_relation p);
                 match whole_base p with
                 | Some r -> r
                 | None -> raise (Unknown_base_relation p)
               end
               else prolog_fail a)))
  in
  (* Pre-create empty extensions so recursive references resolve in round
     one; schema inferred from the first defining rule. *)
  List.iter
    (fun p ->
      match rules_for p with
      | [] -> Hashtbl.replace total p (R.Relation.create ~name:p (R.Schema.make []))
      | r :: _ ->
        let schema = Braid_caql.Analyze.schema_of_conj schema_of (rule_query r) in
        Hashtbl.replace total p (R.Relation.create ~name:p schema))
    derived;
  let tuples_produced = ref 0 in
  let iterations = ref 0 in
  (* Run-scoped state, so a round costs its delta rather than the totals:
     one tuple set per derived predicate holding everything derived so
     far, and join indexes keyed by predicate and probe columns, built on
     first use. A static relation (fetched component, supplied
     extension) is indexed once per run; a derived total's indexes
     follow its in-place appends; a delta is indexed per join, by
     [Eval.conj] itself. *)
  let seen = Hashtbl.create 16 in
  List.iter (fun p -> Hashtbl.replace seen p (R.Relation.Tuple_tbl.create 64)) derived;
  let indexes : (string, (int list * R.Index.t) list) Hashtbl.t = Hashtbl.create 16 in
  let index (a : L.Atom.t) cols =
    let p = a.L.Atom.pred in
    let built = Option.value ~default:[] (Hashtbl.find_opt indexes p) in
    match List.assoc_opt cols built with
    | Some ix -> Some ix
    | None ->
      let ix = R.Index.build (source a) cols in
      Hashtbl.replace indexes p ((cols, ix) :: built);
      Some ix
  in
  let eval q =
    let rel = Braid_caql.Eval.conj ~index ~source ~schema_of q in
    tuples_produced := !tuples_produced + R.Relation.cardinality rel;
    rel
  in
  (* The contributed tuples not derived before, in first-occurrence
     order: the next delta, and what the total appends. *)
  let absorb p contributions =
    match contributions with
    | [] -> None
    | first :: _ ->
      let set = Hashtbl.find seen p in
      let fresh = R.Relation.create ~name:(R.Relation.name first) (R.Relation.schema first) in
      List.iter
        (R.Relation.iter (fun t ->
             if not (R.Relation.Tuple_tbl.mem set t) then begin
               R.Relation.Tuple_tbl.add set t ();
               R.Relation.add fresh t
             end))
        contributions;
      Some fresh
  in
  (* round 0: full evaluation (recursive occurrences see empty totals).
     The total replaces the empty placeholder, whose indexes go with it,
     and gets its own rows: round 1 appends to it in place while later
     predicates still read this round's delta. *)
  incr iterations;
  List.iter
    (fun p ->
      match absorb p (List.map (fun r -> eval (rule_query r)) (rules_for p)) with
      | None -> ()
      | Some fresh ->
        Hashtbl.replace total p (R.Relation.copy ~name:p fresh);
        Hashtbl.remove indexes p;
        Hashtbl.replace delta p fresh)
    derived;
  (* Each rule once per derived body occurrence, that occurrence read
     through the previous round's delta. The marker is resolved here,
     once per delta query, not on every atom lookup. *)
  let delta_queries =
    List.map
      (fun p ->
        ( p,
          List.concat_map
            (fun (r : L.Rule.t) ->
              List.concat
                (List.mapi
                   (fun j (a : L.Atom.t) ->
                     let q = a.L.Atom.pred in
                     if is_derived q then [ (q, delta_marker q, rule_query_with_delta r j) ]
                     else [])
                   (body_atoms r)))
            (rules_for p) ))
      derived
  in
  let live_delta q =
    match Hashtbl.find_opt delta q with
    | Some d when R.Relation.cardinality d > 0 -> Some d
    | _ -> None
  in
  while List.exists (fun p -> live_delta p <> None) derived do
    incr iterations;
    let next_delta = Hashtbl.create 16 in
    List.iter
      (fun (p, queries) ->
        let contributions =
          List.filter_map
            (fun (q, marker, dq) ->
              Option.map
                (fun d ->
                  let source' (at : L.Atom.t) =
                    if String.equal at.L.Atom.pred marker then d else source at
                  in
                  let schema_of' n =
                    if String.equal n marker then Some (R.Relation.schema d) else schema_of n
                  in
                  let index' (at : L.Atom.t) cols =
                    if String.equal at.L.Atom.pred marker then None else index at cols
                  in
                  let rel =
                    Braid_caql.Eval.conj ~index:index' ~source:source' ~schema_of:schema_of' dq
                  in
                  tuples_produced := !tuples_produced + R.Relation.cardinality rel;
                  rel)
                (live_delta q))
            queries
        in
        match absorb p contributions with
        | Some fresh when R.Relation.cardinality fresh > 0 ->
          let tot = Hashtbl.find total p in
          let ixs = Option.value ~default:[] (Hashtbl.find_opt indexes p) in
          R.Relation.iter
            (fun t ->
              R.Relation.add tot t;
              List.iter (fun (_, ix) -> R.Index.add ix t) ixs)
            fresh;
          Hashtbl.replace next_delta p fresh
        | Some _ | None -> ())
      delta_queries;
    Hashtbl.reset delta;
    Hashtbl.iter (fun p d -> Hashtbl.replace delta p d) next_delta
  done;
  let answer =
    Braid_caql.Eval.conj ~source ~schema_of
      (A.conj (List.map (fun v -> L.Term.Var v) (L.Atom.vars query)) [ query ])
  in
  let derived_sizes =
    List.map
      (fun p ->
        ( p,
          match Hashtbl.find_opt total p with
          | Some r -> R.Relation.cardinality r
          | None -> 0 ))
      derived
  in
  {
    result = answer;
    iterations = !iterations;
    tuples_produced = !tuples_produced;
    fetches = !fetches;
    fetched_tuples = !fetched_tuples;
    derived_sizes;
  }

let solve kb ?skip_rules ~base query = run kb ?skip_rules ~source:(Extensions base) query
