(* Reference implementations the cache probe is checked against.

   [covers] is subsumption as it ran before step 1's allocation-free
   predicate-match pass: every candidate goes straight to the full
   mapping search, and repeats are dropped by printing the replacement
   atom. [variant_key] renames through a hashtable in the order OCaml's
   evaluation of [Ast.rename_vars] meets the variables, then prints with
   [Ast.conj_to_string]. [may_occur_later] walks the tracker's automaton
   breadth first on every call. *)

module L = Braid_logic
module A = Braid_caql.Ast
module RP = Braid_relalg.Row_pred
module V = Braid_relalg.Value
module Sub = Braid_subsume.Subsumption
module Range = Braid_subsume.Range
module Tracker = Braid_advice.Tracker

(* Mapping from element variables to query terms. *)
module Theta = Map.Make (String)

let extend_atom theta (e : L.Atom.t) (q : L.Atom.t) =
  if not (String.equal e.L.Atom.pred q.L.Atom.pred && L.Atom.arity e = L.Atom.arity q) then
    None
  else
    let rec loop theta es qs =
      match es, qs with
      | [], [] -> Some theta
      | e_t :: es, q_t :: qs ->
        (match e_t, q_t with
         | L.Term.Const c, L.Term.Const c' ->
           if V.equal c c' then loop theta es qs else None
         | L.Term.Const _, L.Term.Var _ ->
           (* The element is more restricted than the query here. *)
           None
         | L.Term.Var x, t ->
           (match Theta.find_opt x theta with
            | Some t' -> if L.Term.equal t t' then loop theta es qs else None
            | None -> loop (Theta.add x t theta) es qs))
      | [], _ :: _ | _ :: _, [] -> None
    in
    loop theta e.L.Atom.args q.L.Atom.args

let uniq_sorted l = List.sort_uniq Stdlib.compare l

(* Element variables mapping to each query variable. *)
let sources_of theta v =
  Theta.fold
    (fun x t acc -> match t with L.Term.Var w when String.equal w v -> x :: acc | _ -> acc)
    theta []

let term_vars = function L.Term.Var x -> [ x ] | L.Term.Const _ -> []

let cmp_vars (_, a, b) = L.Literal.expr_vars a @ L.Literal.expr_vars b

(* Translate an element expression through theta. Element comparison
   variables are always bound because they must occur in element atoms
   (safety) and all element atoms are mapped. *)
let rec translate_expr theta = function
  | L.Literal.Term (L.Term.Const _) as e -> Some e
  | L.Literal.Term (L.Term.Var x) ->
    Option.map (fun t -> L.Literal.Term t) (Theta.find_opt x theta)
  | L.Literal.Add (a, b) -> bin theta (fun x y -> L.Literal.Add (x, y)) a b
  | L.Literal.Sub (a, b) -> bin theta (fun x y -> L.Literal.Sub (x, y)) a b
  | L.Literal.Mul (a, b) -> bin theta (fun x y -> L.Literal.Mul (x, y)) a b
  | L.Literal.Div (a, b) -> bin theta (fun x y -> L.Literal.Div (x, y)) a b

and bin theta mk a b =
  match translate_expr theta a, translate_expr theta b with
  | Some x, Some y -> Some (mk x y)
  | None, _ | _, None -> None

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

(* Validate a complete mapping and build the cover, or reject. *)
let build_cover element (q : A.conj) theta used =
  let covered = uniq_sorted used in
  let e_head_vars = List.concat_map term_vars element.Sub.def.A.head in
  let stored x = List.mem x e_head_vars in
  (* (a) compensating selections on constants need the column stored *)
  let const_sel_ok =
    Theta.for_all (fun x t -> match t with L.Term.Const _ -> stored x | L.Term.Var _ -> true) theta
  in
  (* (b) equating several element columns needs them all stored *)
  let q_image_vars =
    uniq_sorted
      (Theta.fold
         (fun _ t acc -> match t with L.Term.Var v -> v :: acc | L.Term.Const _ -> acc)
         theta [])
  in
  let multi_ok =
    List.for_all
      (fun v ->
        match sources_of theta v with
        | [] | [ _ ] -> true
        | xs -> List.for_all stored xs)
      q_image_vars
  in
  (* (c) query variables needed outside the covered part must be exposed *)
  let uncovered_atoms =
    List.filteri (fun i _ -> not (List.mem i covered)) q.A.atoms
  in
  let needed =
    uniq_sorted
      (List.concat_map term_vars q.A.head
      @ List.concat_map L.Atom.vars uncovered_atoms
      @ List.concat_map cmp_vars q.A.cmps)
  in
  let exposed_ok =
    List.for_all
      (fun v ->
        (not (List.mem v needed))
        || List.exists stored (sources_of theta v))
      q_image_vars
  in
  (* (d) the element's own comparisons must be implied by the query *)
  let cmps_ok =
    List.for_all
      (fun (op, a, b) ->
        match translate_expr theta a, translate_expr theta b with
        | Some a', Some b' -> query_implies_cmp q (op, a', b')
        | None, _ | _, None -> false)
      element.Sub.def.A.cmps
  in
  if const_sel_ok && multi_ok && exposed_ok && cmps_ok then
    let args =
      List.map
        (function
          | L.Term.Const _ as c -> c
          | L.Term.Var x ->
            (match Theta.find_opt x theta with
             | Some t -> t
             | None ->
               (* A stored column whose variable occurs in no element atom
                  would make the element unsafe; treat as unusable. *)
               raise Exit))
        element.Sub.def.A.head
    in
    Some { Sub.element_id = element.Sub.id; replacement = L.Atom.make element.Sub.id args; covered }
  else None

let covers (element : Sub.element) (q : A.conj) =
  let e_atoms = Array.of_list element.Sub.def.A.atoms in
  let q_atoms = Array.of_list q.A.atoms in
  let ne = Array.length e_atoms and nq = Array.length q_atoms in
  if ne = 0 || nq = 0 then []
  else begin
    let results = ref [] in
    let seen = Hashtbl.create 8 in
    let rec assign i theta used =
      if i = ne then begin
        match (try build_cover element q theta used with Exit -> None) with
        | Some cover ->
          let key =
            (cover.Sub.covered, L.Atom.to_string cover.Sub.replacement)
          in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.add seen key ();
            results := cover :: !results
          end
        | None -> ()
      end
      else
        for j = 0 to nq - 1 do
          match extend_atom theta e_atoms.(i) q_atoms.(j) with
          | Some theta' -> assign (i + 1) theta' (j :: used)
          | None -> ()
        done
    in
    assign 0 Theta.empty [];
    List.rev !results
  end


let canonical c =
  let mapping = Hashtbl.create 8 in
  let counter = ref 0 in
  let f x =
    match Hashtbl.find_opt mapping x with
    | Some y -> y
    | None ->
      let y = Printf.sprintf "v%d" !counter in
      incr counter;
      Hashtbl.add mapping x y;
      y
  in
  A.rename_vars f c

let variant_key c = A.conj_to_string (canonical c)

let may_occur_later nfa tr id =
  let visited = Hashtbl.create 64 in
  let rec go = function
    | [] -> false
    | s :: rest ->
      if Hashtbl.mem visited s then go rest
      else begin
        Hashtbl.add visited s ();
        let out = Tracker.successors nfa s in
        if List.exists (fun (label, _) -> label = Some id) out then true
        else go (List.map snd out @ rest)
      end
  in
  go (Tracker.states tr)
