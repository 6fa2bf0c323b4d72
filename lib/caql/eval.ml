module L = Braid_logic
module R = Braid_relalg
module TS = Braid_stream.Tuple_stream

exception Unsafe = Join_plan.Unsafe

(* --- eager evaluation --- *)

(* Every source is resolved first, in written order, so a caller's
   per-atom effects (touch counts, LRU ticks) do not depend on the data.
   The result shares tuples with the sources but owns its row vector; a
   head naming one atom's distinct variables in order, with no comparison,
   is that atom's rows as they stand. *)
let conj ~source ~schema_of (c : Ast.conj) =
  let rels = Array.map source (Array.of_list c.Ast.atoms) in
  match c.Ast.atoms, c.Ast.cmps with
  | [ a ], []
    when List.equal L.Term.equal c.Ast.head a.L.Atom.args
         && List.length (L.Atom.vars a) = List.length a.L.Atom.args
         && List.length a.L.Atom.args = R.Schema.arity (R.Relation.schema rels.(0)) ->
    R.Relation.with_schema (Analyze.schema_of_conj schema_of c) (R.Relation.copy ~name:"" rels.(0))
  | atoms, cmps ->
    let jp = Join_plan.compiler () in
    let plan =
      Join_plan.compile jp
        ?lead:(if atoms = [] then None else Some 0)
        ~target:0 ~head:c.Ast.head
        ~atoms:(List.mapi (fun i a -> (i, a)) atoms)
        ~cmps ()
    in
    let rows = R.Vec.create () in
    Join_plan.execute (Join_plan.start jp ~rels ~emit:(fun _ t -> R.Vec.push rows t) ()) plan;
    R.Relation.unsafe_of_rows (Analyze.schema_of_conj schema_of c) rows

(* The operator tree walk, over a caller-supplied conjunctive leaf; [bound]
   holds the fixpoint names in scope, innermost first. Operands are
   evaluated left to right. *)
let walk ~conj q =
  let rec go bound = function
    | Ast.Conj c -> conj ~bound c
    | Ast.Union [] -> invalid_arg "Eval.walk: empty union"
    | Ast.Union (q :: qs) ->
      let first = go bound q in
      R.Relation.distinct
        (List.fold_left (fun acc q' -> R.Ops.union_all acc (go bound q')) first qs)
    | Ast.Diff (a, b) ->
      let a = go bound a in
      let b = go bound b in
      R.Ops.diff a b
    | Ast.Distinct q -> R.Relation.distinct (go bound q)
    | Ast.Division (dividend, divisor) ->
      (* k s.t. (k, v) ∈ dividend for every v ∈ divisor: both sides being
         distinct, the k whose rows meet the divisor |divisor| times *)
      let d = R.Relation.distinct (go bound dividend) in
      let s = R.Relation.distinct (go bound divisor) in
      let v_arity = R.Schema.arity (R.Relation.schema s) in
      let k_arity = R.Schema.arity (R.Relation.schema d) - v_arity in
      if k_arity < 0 then invalid_arg "Eval.walk: division dividend narrower than divisor";
      let key_cols = List.init k_arity Fun.id and v_cols = List.init v_arity (( + ) k_arity) in
      let module Tbl = R.Relation.Tuple_tbl in
      let wanted = Tbl.create 16 and met = Tbl.create 16 in
      R.Relation.iter (fun v -> Tbl.replace wanted v ()) s;
      R.Relation.iter
        (fun t ->
          let k = R.Tuple.project t key_cols in
          let n = Option.value (Tbl.find_opt met k) ~default:0 in
          Tbl.replace met k (if Tbl.mem wanted (R.Tuple.project t v_cols) then n + 1 else n))
        d;
      let candidates = R.Relation.distinct (R.Ops.project key_cols d) in
      R.Relation.of_tuples ~name:(R.Relation.name candidates) (R.Relation.schema candidates)
        (List.filter
           (fun k -> Tbl.find met k = R.Relation.cardinality s)
           (R.Relation.to_list candidates))
    | Ast.Fixpoint f ->
      (* iterate base ∪ step(current) to a fixpoint, set semantics *)
      let current = ref (R.Relation.distinct (go bound f.Ast.base)) in
      let rec iterate guard =
        if guard > 10_000 then
          invalid_arg "Eval.walk: fixpoint did not converge within 10000 rounds";
        let stepped = go ((f.Ast.name, !current) :: bound) f.Ast.step in
        let next = R.Relation.distinct (R.Ops.union_all !current stepped) in
        if R.Relation.cardinality next > R.Relation.cardinality !current then begin
          current := next;
          iterate (guard + 1)
        end
      in
      iterate 0;
      R.Relation.with_name f.Ast.name !current
    | Ast.Agg a -> R.Aggregate.group_by a.Ast.keys a.Ast.specs (go bound a.Ast.source)
  in
  go [] q

let query ~source ~schema_of = function
  (* the hot path: a bare conjunct needs no leaf closure *)
  | Ast.Conj c -> conj ~source ~schema_of c
  | q ->
    walk q ~conj:(fun ~bound c ->
        match bound with
        | [] -> conj ~source ~schema_of c
        | _ ->
          let source (a : L.Atom.t) =
            match List.assoc_opt a.L.Atom.pred bound with Some r -> r | None -> source a
          in
          let schema_of n =
            match List.assoc_opt n bound with
            | Some r -> Some (R.Relation.schema r)
            | None -> schema_of n
          in
          conj ~source ~schema_of c)

(* --- lazy evaluation --- *)

(* Try to extend [env] so that the atom's arguments match the tuple. *)
let match_tuple env (a : L.Atom.t) tup =
  let rec loop env i = function
    | [] -> Some env
    | t :: rest ->
      let v = R.Tuple.get tup i in
      (match L.Subst.resolve env t with
       | L.Term.Const c -> if R.Value.equal c v then loop env (i + 1) rest else None
       | L.Term.Var x -> loop (L.Subst.bind x (L.Term.Const v) env) (i + 1) rest)
  in
  loop env 0 a.L.Atom.args

(* Comparisons that are ground under [env] must hold; non-ground ones are
   deferred (they become ground by the final atom thanks to safety). *)
let cmps_hold env cmps =
  List.for_all
    (fun (op, a, b) ->
      match L.Literal.eval_cmp (L.Literal.apply env (L.Literal.Cmp (op, a, b))) with
      | Some ok -> ok
      | None -> true)
    cmps

let lazy_conj ~source ~schema_of (c : Ast.conj) =
  let atoms = Array.of_list c.Ast.atoms in
  let n = Array.length atoms in
  let streams = Array.map source atoms in
  let out_schema = Analyze.schema_of_conj schema_of c in
  let emit env =
    Array.of_list
      (List.map
         (fun t ->
           match L.Subst.resolve env t with
           | L.Term.Const v -> v
           | L.Term.Var x -> raise (Unsafe ("unbound head variable: " ^ x)))
         c.Ast.head)
  in
  (* Stack of frames: (depth, cursor, env-before-this-depth). *)
  let stack = ref [] in
  let started = ref false in
  let done_ = ref false in
  let push depth env = stack := (depth, TS.cursor streams.(depth), env) :: !stack in
  let rec pull () =
    if !done_ then None
    else if not !started then begin
      started := true;
      if n = 0 then begin
        done_ := true;
        if cmps_hold L.Subst.empty c.Ast.cmps then Some (emit L.Subst.empty) else None
      end
      else begin
        push 0 L.Subst.empty;
        pull ()
      end
    end
    else
      match !stack with
      | [] ->
        done_ := true;
        None
      | (depth, cur, env) :: rest ->
        (match TS.next cur with
         | None ->
           stack := rest;
           pull ()
         | Some tup ->
           (match match_tuple env atoms.(depth) tup with
            | None -> pull ()
            | Some env' ->
              if not (cmps_hold env' c.Ast.cmps) then pull ()
              else if depth = n - 1 then Some (emit env')
              else begin
                push (depth + 1) env';
                pull ()
              end))
  in
  TS.from out_schema pull
