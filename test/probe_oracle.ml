(* Reference implementations the cache probe is checked against.

   [covers] is subsumption as it ran before step 1's allocation-free
   predicate-match pass: every candidate goes straight to the full
   mapping search, and repeats are dropped by printing the replacement
   arguments with the variant key's lossless constant spelling.
   [full_cover] and [variant_equal] are built on it and on [canonical].
   [variant_key] renames through a hashtable in the order OCaml's
   evaluation of [Ast.rename_vars] meets the variables, then prints in
   [Ast.conj_to_string]'s layout with the key's constant spelling.
   [may_occur_later] walks the tracker's automaton breadth first on every
   call, and [Ref_tracker] is the tracker as it ran before its DFA: a set
   of NFA states, recomputed on every step from [Tracker.successors]. *)

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

(* Replacement arguments spelled as keys spell constants: [Int 2] and
   [Float 2.0] alike, floats that differ apart. *)
let key_of_args args =
  let b = Buffer.create 32 in
  List.iter
    (function
      | L.Term.Var x -> Buffer.add_string b ("?" ^ x ^ ",")
      | L.Term.Const v ->
        V.add_to_buffer b v;
        Buffer.add_char b ',')
    args;
  Buffer.contents b

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
          let key = (cover.Sub.covered, key_of_args cover.Sub.replacement.L.Atom.args) in
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

(* [Ast.conj_to_string]'s layout, with constants spelled as
   [Value.add_to_buffer] spells them for keys. *)
let variant_key c =
  let c = canonical c in
  let term = function
    | L.Term.Var x -> x
    | L.Term.Const v ->
      let b = Buffer.create 16 in
      V.add_to_buffer b v;
      Buffer.contents b
  in
  let rec expr = function
    | L.Literal.Term t -> term t
    | L.Literal.Add (a, b) -> bin a "+" b
    | L.Literal.Sub (a, b) -> bin a "-" b
    | L.Literal.Mul (a, b) -> bin a "*" b
    | L.Literal.Div (a, b) -> bin a "/" b
  and bin a op b = Printf.sprintf "(%s %s %s)" (expr a) op (expr b) in
  let terms ts = String.concat ", " (List.map term ts) in
  Printf.sprintf "(%s) :- %s" (terms c.A.head)
    (String.concat " & "
       (List.map (fun (a : L.Atom.t) -> Printf.sprintf "%s(%s)" a.L.Atom.pred (terms a.L.Atom.args))
          c.A.atoms
       @ List.map
           (fun (op, a, b) -> Printf.sprintf "%s %s %s" (expr a) (L.Literal.cmp_symbol op) (expr b))
           c.A.cmps))

let may_occur_later_from nfa states id =
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
  go states

let may_occur_later nfa tr id = may_occur_later_from nfa (Tracker.states tr) id

module Ref_tracker = struct
  type t = { nfa : Tracker.nfa; mutable states : int list; mutable lost : bool }

  (* Ascending, closed under epsilon edges. *)
  let closure nfa from =
    let rec go acc = function
      | [] -> List.sort_uniq compare acc
      | s :: rest ->
        if List.mem s acc then go acc rest
        else
          let eps =
            List.filter_map
              (fun (label, dst) -> if label = None then Some dst else None)
              (Tracker.successors nfa s)
          in
          go (s :: acc) (eps @ rest)
    in
    go [] from

  let labeled nfa s =
    List.filter_map
      (fun (label, dst) -> Option.map (fun l -> (l, dst)) label)
      (Tracker.successors nfa s)

  let start nfa = { nfa; states = closure nfa [ Tracker.initial_state nfa ]; lost = false }

  let advance t id =
    let targets =
      List.concat_map
        (fun s ->
          List.filter_map (fun (l, dst) -> if l = id then Some dst else None) (labeled t.nfa s))
        t.states
    in
    if targets = [] then begin
      t.lost <- true;
      t.states <- closure t.nfa (List.init (Tracker.nfa_states t.nfa) Fun.id);
      false
    end
    else begin
      t.states <- closure t.nfa targets;
      true
    end

  (* Each label once, where it is first met: states ascending, each
     state's edges in order. *)
  let next_possible t =
    List.fold_left
      (fun acc s ->
        List.fold_left
          (fun acc (l, _) -> if List.mem l acc then acc else acc @ [ l ])
          acc (labeled t.nfa s))
      [] t.states

  let may_occur_later t id = may_occur_later_from t.nfa t.states id
  let finished t = List.mem (Tracker.final_state t.nfa) t.states
end

let full_cover element q =
  let all = List.init (List.length q.A.atoms) Fun.id in
  List.find_opt (fun (c : Sub.cover) -> c.Sub.covered = all) (covers element q)

(* Variants with [Value.equal] constants, compared on the canonical
   renamings. *)
let variant_equal a b =
  let a = canonical a and b = canonical b in
  let terms = List.equal L.Term.equal in
  let rec expr x y =
    match x, y with
    | L.Literal.Term s, L.Literal.Term t -> L.Term.equal s t
    | L.Literal.Add (a, b), L.Literal.Add (c, d)
    | L.Literal.Sub (a, b), L.Literal.Sub (c, d)
    | L.Literal.Mul (a, b), L.Literal.Mul (c, d)
    | L.Literal.Div (a, b), L.Literal.Div (c, d) ->
      expr a c && expr b d
    | _, _ -> false
  in
  terms a.A.head b.A.head
  && List.equal
       (fun (x : L.Atom.t) (y : L.Atom.t) ->
         String.equal x.L.Atom.pred y.L.Atom.pred && terms x.L.Atom.args y.L.Atom.args)
       a.A.atoms b.A.atoms
  && List.equal (fun (o, x, y) (o', x', y') -> o = o' && expr x x' && expr y y') a.A.cmps b.A.cmps
