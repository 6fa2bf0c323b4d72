module L = Braid_logic
module R = Braid_relalg
module TS = Braid_stream.Tuple_stream

exception Unsafe of string

(* --- eager evaluation --- *)

(* Variable environment: variable name -> column in the accumulator. *)
type env = (string * int) list

let unit_relation () =
  let r = R.Relation.create (R.Schema.make []) in
  R.Relation.add r [||];
  r

(* Selection local to one relation occurrence: constants and repeated
   variables within the atom. *)
let local_pred (a : L.Atom.t) =
  let preds = ref [] in
  let seen = Hashtbl.create 8 in
  List.iteri
    (fun i t ->
      match t with
      | L.Term.Const v -> preds := R.Row_pred.Cmp (R.Row_pred.Eq, Col i, Lit v) :: !preds
      | L.Term.Var x ->
        (match Hashtbl.find_opt seen x with
         | Some j -> preds := R.Row_pred.Cmp (R.Row_pred.Eq, Col i, Col j) :: !preds
         | None -> Hashtbl.add seen x i))
    a.L.Atom.args;
  R.Row_pred.conj (List.rev !preds)

(* Join columns between the accumulator and the atom's extension, plus the
   new variable bindings the atom contributes. *)
let atom_joins (env : env) (a : L.Atom.t) =
  let joins = ref [] in
  let fresh = ref [] in
  List.iteri
    (fun i t ->
      match t with
      | L.Term.Const _ -> ()
      | L.Term.Var x ->
        (match List.assoc_opt x env with
         | Some col -> joins := (col, i) :: !joins
         | None -> if not (List.mem_assoc x !fresh) then fresh := (x, i) :: !fresh))
    a.L.Atom.args;
  (List.rev !joins, List.rev !fresh)

let operand_of_expr env e =
  let rec go = function
    | L.Literal.Term (L.Term.Const v) -> R.Row_pred.Lit v
    | L.Literal.Term (L.Term.Var x) ->
      (match List.assoc_opt x env with
       | Some col -> R.Row_pred.Col col
       | None -> raise (Unsafe ("unbound variable in comparison: " ^ x)))
    | L.Literal.Add (a, b) -> R.Row_pred.Add (go a, go b)
    | L.Literal.Sub (a, b) -> R.Row_pred.Sub (go a, go b)
    | L.Literal.Mul (a, b) -> R.Row_pred.Mul (go a, go b)
    | L.Literal.Div (a, b) -> R.Row_pred.Div (go a, go b)
  in
  go e

let cmp_vars (_, a, b) = L.Literal.expr_vars a @ L.Literal.expr_vars b

let conj ~source ~schema_of (c : Ast.conj) =
  (* Join pipeline; comparisons are applied as soon as their variables are
     all bound. *)
  let apply_ready env pending rel =
    let ready, pending =
      List.partition
        (fun cmp -> List.for_all (fun x -> List.mem_assoc x env) (cmp_vars cmp))
        pending
    in
    let preds =
      List.map
        (fun (op, a, b) -> R.Row_pred.Cmp (op, operand_of_expr env a, operand_of_expr env b))
        ready
    in
    let rel = if preds = [] then rel else R.Ops.select (R.Row_pred.conj preds) rel in
    (rel, pending)
  in
  let step (acc, env, pending) (a : L.Atom.t) =
    let ext = source a in
    let ext = match local_pred a with R.Row_pred.True -> ext | p -> R.Ops.select p ext in
    let joins, fresh = atom_joins env a in
    let acc_arity = R.Schema.arity (R.Relation.schema acc) in
    let joined =
      match joins with
      (* the unit relation times [ext] is [ext]: share its rows *)
      | [] when acc_arity = 0 && R.Relation.cardinality acc = 1 -> ext
      | [] -> R.Ops.product acc ext
      | _ ->
        let left_cols = List.map fst joins and right_cols = List.map snd joins in
        R.Ops.hash_join ~left_cols ~right_cols acc ext
    in
    let env = env @ List.map (fun (x, i) -> (x, acc_arity + i)) fresh in
    let joined, pending = apply_ready env pending joined in
    (joined, env, pending)
  in
  (* Ground comparisons (no variables) are applied straight away so that a
     body of pure ground comparisons evaluates without any atom. *)
  let acc0, pending0 = apply_ready [] c.Ast.cmps (unit_relation ()) in
  let acc, env, pending = List.fold_left step (acc0, [], pending0) c.Ast.atoms in
  (match pending with
   | [] -> ()
   | cmp :: _ ->
     raise
       (Unsafe
          (Format.asprintf "comparison with unbound variable: %a" L.Literal.pp
             (let op, a, b = cmp in
              L.Literal.Cmp (op, a, b)))));
  (* Project the head. [acc] may share an element's row vector, so the
     result always owns a fresh one; an identity head keeps the tuples. *)
  let out_schema = Analyze.schema_of_conj schema_of c in
  let cols =
    Array.of_list
      (List.map
         (function
           | L.Term.Var x ->
             (match List.assoc_opt x env with
              | Some col -> `Col col
              | None -> raise (Unsafe ("unbound head variable: " ^ x)))
           | L.Term.Const v -> `Const v)
         c.Ast.head)
  in
  let n = Array.length cols in
  let rec identity i =
    i = n || (match cols.(i) with `Col j when j = i -> identity (i + 1) | _ -> false)
  in
  if n = R.Schema.arity (R.Relation.schema acc) && identity 0 then
    R.Relation.with_schema out_schema (R.Relation.copy ~name:"" acc)
  else begin
    let rows = R.Vec.create () in
    R.Relation.iter
      (fun t ->
        R.Vec.push rows
          (Array.map (function `Col i -> R.Tuple.get t i | `Const v -> v) cols))
      acc;
    R.Relation.unsafe_of_rows out_schema rows
  end

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
      (* k s.t. (k, v) ∈ dividend for every v ∈ divisor:
         candidates − π_k((candidates × divisor) − dividend) *)
      let d = R.Relation.distinct (go bound dividend) in
      let s = R.Relation.distinct (go bound divisor) in
      let total = R.Schema.arity (R.Relation.schema d) in
      let v_arity = R.Schema.arity (R.Relation.schema s) in
      let k_arity = total - v_arity in
      if k_arity < 0 then invalid_arg "Eval.walk: division dividend narrower than divisor";
      let key_cols = List.init k_arity (fun i -> i) in
      let candidates = R.Relation.distinct (R.Ops.project key_cols d) in
      let pairs = R.Ops.product candidates s in
      let missing = R.Ops.diff pairs d in
      let bad = R.Relation.distinct (R.Ops.project key_cols missing) in
      R.Ops.diff candidates bad
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
