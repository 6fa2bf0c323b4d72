module L = Braid_logic
module A = Braid_caql.Ast
module RP = Braid_relalg.Row_pred
module V = Braid_relalg.Value

type element = { id : string; def : A.conj }

type cover = {
  element_id : string;
  replacement : L.Atom.t;
  covered : int list;
}

let flip : RP.cmp -> RP.cmp = function
  | RP.Eq -> RP.Eq
  | RP.Ne -> RP.Ne
  | RP.Lt -> RP.Gt
  | RP.Le -> RP.Ge
  | RP.Gt -> RP.Lt
  | RP.Ge -> RP.Le

(* Does the query's comparison set imply [op a b] (a translated element
   comparison)? Ground comparisons are evaluated; variable-vs-constant ones
   use interval reasoning over the query's constraints; variable-variable
   ones require syntactic presence (either orientation). *)
let query_implies_cmp (q : A.conj) (op, a, b) =
  match L.Literal.eval_cmp (L.Literal.Cmp (op, a, b)) with
  | Some ok -> ok
  | None ->
    (match a, b with
     | L.Literal.Term (L.Term.Var x), L.Literal.Term (L.Term.Const c) ->
       Range.implies (Range.of_cmps x q.A.cmps) op c
     | L.Literal.Term (L.Term.Const c), L.Literal.Term (L.Term.Var x) ->
       Range.implies (Range.of_cmps x q.A.cmps) (flip op) c
     | L.Literal.Term (L.Term.Var x), L.Literal.Term (L.Term.Var y) when String.equal x y ->
       (match op with RP.Eq | RP.Le | RP.Ge -> true | RP.Ne | RP.Lt | RP.Gt -> false)
     | _, _ ->
       List.exists
         (fun (op', a', b') ->
           (op = op' && a = a' && b = b') || (op = flip op' && a = b' && b = a'))
         q.A.cmps)

(* --- match plans: §5.3.2's search, once per pair of forms --- *)

(* One way to map every definition atom onto a query atom, found on the
   forms alone. Whether it yields a cover for a pair of instances depends
   only on their constants: [eqs], [def_params] and the definition's
   comparisons. *)
type assignment = {
  covered : int list;  (* query atom indices, sorted *)
  full : bool;  (* [covered] is every query atom *)
  eqs : (int * int) list;
      (* (k, k'): a definition variable met query parameter k first, then
         k'; the two values must be equal *)
  def_params : int array;  (* definition atom parameter -> query parameter it faces *)
  theta : Form.slot array;
      (* definition variable -> query slot ([unmapped] if in no atom); [||]
         when the definition has no comparisons to translate *)
  head : Form.slot array;  (* definition head position -> query slot, for variables *)
}

type plan = { rank : int; assignments : assignment list }

let unmapped = min_int

let empty_plan = { rank = 0; assignments = [] }

let rec index_of x i = function
  | [] -> i
  | y :: ys -> if String.equal x y then i else index_of x (i + 1) ys

(* Step 2 on forms: every consistent assignment of definition atoms to
   query atoms, in the order the search meets them (definition atom [i]
   tries query atoms [0 ..] in turn), kept when the checks that do not
   depend on values pass: (a) a column facing a query constant must be
   stored, (b) definition variables merged by one query variable must all
   be stored, (c) a query variable needed outside the covered atoms must
   be exposed, and every stored column must be bound. Step 1 (matching
   predicates and constants) needs no separate pass: constants are the
   instances' business, and [plan] skips definitions whose predicates are
   not all the query's. *)
let build_plan (q : Form.t) (d : Form.t) =
  let nq = Array.length q.Form.atoms and nd = Array.length d.Form.atoms in
  if nd = 0 || nq = 0 then empty_plan
  else begin
    let stored = Array.make d.Form.n_vars false in
    Array.iter (fun s -> if not (Form.is_param s) then stored.(s) <- true) d.Form.head;
    let theta = Array.make d.Form.n_vars unmapped in
    let def_params = Array.make d.Form.atom_params 0 in
    let found = ref [] in
    let leaf used eqs =
      let covered = List.sort_uniq Int.compare used in
      let ok = ref true in
      (* (a) and the stored columns' bindings *)
      Array.iteri
        (fun x t ->
          if (t <> unmapped && Form.is_param t && not stored.(x))
             || (t = unmapped && stored.(x))
          then ok := false)
        theta;
      (* (b) and (c), per query variable in the image *)
      let needed = Array.copy q.Form.needed in
      Array.iteri
        (fun j (_, args) ->
          if not (List.mem j covered) then
            Array.iter (fun s -> if not (Form.is_param s) then needed.(s) <- true) args)
        q.Form.atoms;
      for v = 0 to q.Form.n_vars - 1 do
        let sources = ref 0 and exposed = ref false and all_stored = ref true in
        Array.iteri
          (fun x t ->
            if t = v then begin
              incr sources;
              if stored.(x) then exposed := true else all_stored := false
            end)
          theta;
        if !sources > 1 && not !all_stored then ok := false;
        if !sources > 0 && needed.(v) && not !exposed then ok := false
      done;
      if !ok then
        found :=
          {
            covered;
            full = List.length covered = nq;
            eqs;
            def_params = Array.copy def_params;
            theta = (if d.Form.has_cmps then Array.copy theta else [||]);
            head = Array.map (fun s -> if Form.is_param s then unmapped else theta.(s)) d.Form.head;
          }
          :: !found
    in
    let rec assign i used eqs =
      if i = nd then leaf used eqs
      else begin
        let pred, dargs = d.Form.atoms.(i) in
        for j = 0 to nq - 1 do
          let qpred, qargs = q.Form.atoms.(j) in
          if String.equal pred qpred && Array.length dargs = Array.length qargs then begin
            let bound = ref [] and eqs = ref eqs and ok = ref true and k = ref 0 in
            while !ok && !k < Array.length dargs do
              let ds = dargs.(!k) and qs = qargs.(!k) in
              (if Form.is_param ds then
                 (* a definition constant matches only a query constant *)
                 if Form.is_param qs then def_params.(Form.param ds) <- Form.param qs
                 else ok := false
               else
                 let t = theta.(ds) in
                 if t = unmapped then begin
                   theta.(ds) <- qs;
                   bound := ds :: !bound
                 end
                 else if t <> qs then
                   if Form.is_param t && Form.is_param qs then
                     eqs := (Form.param t, Form.param qs) :: !eqs
                   else ok := false);
              incr k
            done;
            if !ok then assign (i + 1) (j :: used) !eqs;
            List.iter (fun x -> theta.(x) <- unmapped) !bound
          end
        done
      end
    in
    assign 0 [] [];
    match List.rev !found with
    | [] -> empty_plan
    | assignments ->
      { rank = index_of (List.hd d.Form.preds) 0 q.Form.preds; assignments }
  end

(* A plan depends only on its two forms, so no eviction can invalidate
   it. Only pairs whose predicates fit are kept: a workload's query forms
   and the definition forms its cache and advice hold make a few dozen
   such pairs (27, 1 and 22 in the three perfbench workloads); 1,024
   leaves room for several programs in one process, and starting over
   only costs rebuilding the pairs still in use. *)
let max_plans = 1024

let plans : (int * int, plan) Hashtbl.t = Hashtbl.create 16

let plan ~(query : Form.t) ~(def : Form.t) =
  if not (List.for_all (fun p -> List.mem p query.Form.preds) def.Form.preds) then empty_plan
  else
    let key = (query.Form.id, def.Form.id) in
    match Hashtbl.find_opt plans key with
    | Some p -> p
    | None ->
      let p = build_plan query def in
      if Hashtbl.length plans >= max_plans then Hashtbl.reset plans;
      Hashtbl.replace plans key p;
      p

let rank p = p.rank
let assignments p = p.assignments

let holds (a : assignment) (q : Form.inst) =
  List.for_all (fun (k, k') -> V.equal q.Form.consts.(k) q.Form.consts.(k')) a.eqs

let def_key a (q : Form.inst) = Array.map (fun k -> q.Form.consts.(k)) a.def_params

let def_consts_match a (q : Form.inst) (d : Form.inst) =
  let n = Array.length a.def_params in
  let rec go m =
    m = n || (V.equal d.Form.consts.(m) q.Form.consts.(a.def_params.(m)) && go (m + 1))
  in
  go 0

let term_of (q : Form.inst) s =
  if Form.is_param s then L.Term.Const q.Form.consts.(Form.param s) else L.Term.Var q.Form.vars.(s)

(* Step 2's check (d): the definition's comparisons, translated through
   the assignment, are implied by the query's. *)
let implied_cmps (a : assignment) (q : Form.inst) (d : Form.inst) cmps =
  let translate_var x =
    let rec find i = if String.equal d.Form.vars.(i) x then i else find (i + 1) in
    let t = a.theta.(find 0) in
    if t = unmapped then None else Some (L.Literal.Term (term_of q t))
  in
  let rec translate = function
    | L.Literal.Term (L.Term.Const _) as e -> Some e
    | L.Literal.Term (L.Term.Var x) -> translate_var x
    | L.Literal.Add (a, b) -> bin (fun x y -> L.Literal.Add (x, y)) a b
    | L.Literal.Sub (a, b) -> bin (fun x y -> L.Literal.Sub (x, y)) a b
    | L.Literal.Mul (a, b) -> bin (fun x y -> L.Literal.Mul (x, y)) a b
    | L.Literal.Div (a, b) -> bin (fun x y -> L.Literal.Div (x, y)) a b
  and bin mk a b =
    match translate a, translate b with
    | Some x, Some y -> Some (mk x y)
    | None, _ | _, None -> None
  in
  List.for_all
    (fun (op, x, y) ->
      match translate x, translate y with
      | Some x', Some y' -> query_implies_cmp q.Form.conj (op, x', y')
      | None, _ | _, None -> false)
    cmps

let cover (a : assignment) (q : Form.inst) ~id (d : Form.inst) =
  let cmps_ok =
    match d.Form.conj.A.cmps with [] -> true | cmps -> implied_cmps a q d cmps
  in
  if not cmps_ok then None
  else
    let args =
      List.mapi
        (fun i t ->
          match t with L.Term.Const _ -> t | L.Term.Var _ -> term_of q a.head.(i))
        d.Form.conj.A.head
    in
    Some { element_id = id; replacement = L.Atom.make id args; covered = a.covered }

let same_cover (c : cover) (c' : cover) =
  c.covered = c'.covered
  && List.equal L.Term.equal c.replacement.L.Atom.args c'.replacement.L.Atom.args

let full_cover_of ~id (d : Form.inst) (q : Form.inst) =
  List.find_map
    (fun a ->
      if a.full && holds a q && def_consts_match a q d then cover a q ~id d else None)
    (plan ~query:q.Form.form ~def:d.Form.form).assignments

let subsumes ~def q = Option.is_some (full_cover_of ~id:"__general" def q)

let covers element q =
  let d = Form.of_conj element.def and q = Form.of_conj q in
  List.rev
    (List.fold_left
       (fun acc a ->
         if not (holds a q && def_consts_match a q d) then acc
         else
           match cover a q ~id:element.id d with
           | Some c when not (List.exists (same_cover c) acc) -> c :: acc
           | Some _ | None -> acc)
       []
       (plan ~query:q.Form.form ~def:d.Form.form).assignments)

let full_cover element q = full_cover_of ~id:element.id (Form.of_conj element.def) (Form.of_conj q)

let rewrite (q : A.conj) replacements =
  let rec go i = function
    | [] -> []
    | a :: rest ->
      let rest = go (i + 1) rest in
      (match List.find_opt (fun (covered, _) -> List.mem i covered) replacements with
       | None -> a :: rest
       | Some (first :: _, repl) when first = i -> repl :: rest
       | Some _ -> rest)
  in
  { q with A.atoms = go 0 q.A.atoms }

let exact_match element q = Form.same (Form.of_conj element.def) (Form.of_conj q)

let generalizes g q = subsumes ~def:(Form.of_conj g) (Form.of_conj q)
