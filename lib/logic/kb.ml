type t = {
  base : (string, int) Hashtbl.t;
  rules : (string, Rule.t list ref) Hashtbl.t; (* head pred -> rules, reversed *)
  by_id : (string, Rule.t) Hashtbl.t;
  mutable soas : Soa.t list;
  mutable generation : int;
}

let create () =
  {
    base = Hashtbl.create 16;
    rules = Hashtbl.create 16;
    by_id = Hashtbl.create 16;
    soas = [];
    generation = 0;
  }

let generation kb = kb.generation
let bump kb = kb.generation <- kb.generation + 1

let is_base kb p = Hashtbl.mem kb.base p
let is_derived kb p = Hashtbl.mem kb.rules p
let base_arity kb p = Hashtbl.find_opt kb.base p

let declare_base kb p ~arity =
  (match Hashtbl.find_opt kb.base p with
   | Some a when a <> arity ->
     invalid_arg (Printf.sprintf "Kb.declare_base: %s already declared with arity %d" p a)
   | Some _ | None -> ());
  if is_derived kb p then
    invalid_arg (Printf.sprintf "Kb.declare_base: %s is already defined by rules" p);
  Hashtbl.replace kb.base p arity;
  bump kb

let add_rule kb r =
  let p = r.Rule.head.Atom.pred in
  if is_base kb p then
    invalid_arg (Printf.sprintf "Kb.add_rule: %s is declared as a base relation" p);
  if Hashtbl.mem kb.by_id r.Rule.id then
    invalid_arg (Printf.sprintf "Kb.add_rule: duplicate rule id %s" r.Rule.id);
  Hashtbl.replace kb.by_id r.Rule.id r;
  (match Hashtbl.find_opt kb.rules p with
   | Some cell -> cell := r :: !cell
   | None -> Hashtbl.replace kb.rules p (ref [ r ]));
  bump kb

let add_soa kb s =
  kb.soas <- s :: kb.soas;
  bump kb

let rules_for kb p =
  match Hashtbl.find_opt kb.rules p with Some cell -> List.rev !cell | None -> []

let all_rules kb =
  Hashtbl.fold (fun _ cell acc -> List.rev_append !cell acc) kb.rules []
  |> List.sort (fun a b -> String.compare a.Rule.id b.Rule.id)

let constants kb =
  List.concat_map
    (fun (r : Rule.t) ->
      Atom.constants r.Rule.head @ List.concat_map Literal.constants r.Rule.body)
    (all_rules kb)
  |> List.sort_uniq Stdlib.compare

let rule_by_id kb id = Hashtbl.find_opt kb.by_id id
let soas kb = List.rev kb.soas

let mutually_exclusive kb p q =
  List.exists
    (function
      | Soa.Mutual_exclusion (a, b) ->
        (String.equal a p && String.equal b q) || (String.equal a q && String.equal b p)
      | Soa.Functional_dependency _ | Soa.Recursive_structure _ -> false)
    kb.soas

let functional_dependencies kb p =
  List.filter
    (function
      | Soa.Functional_dependency { pred; _ } -> String.equal pred p
      | Soa.Mutual_exclusion _ | Soa.Recursive_structure _ -> false)
    (soas kb)

(* Predicates of the body atoms of a rule. *)
let body_preds r =
  List.filter_map
    (function Literal.Rel a -> Some a.Atom.pred | Literal.Cmp _ -> None)
    r.Rule.body

let recursive_preds kb =
  (* p is recursive if p reaches p in the rule dependency graph. *)
  let reaches_self p =
    let visited = Hashtbl.create 16 in
    let rec dfs q =
      List.exists
        (fun r ->
          List.exists
            (fun dep ->
              String.equal dep p
              ||
              if Hashtbl.mem visited dep then false
              else begin
                Hashtbl.add visited dep ();
                dfs dep
              end)
            (body_preds r))
        (rules_for kb q)
    in
    dfs p
  in
  Hashtbl.fold (fun p _ acc -> if reaches_self p then p :: acc else acc) kb.rules []
  |> List.sort String.compare

let base_preds_reachable kb query =
  let visited = Hashtbl.create 16 in
  let bases = ref [] in
  let rec dfs p =
    if not (Hashtbl.mem visited p) then begin
      Hashtbl.add visited p ();
      if is_base kb p then bases := p :: !bases
      else List.iter (fun r -> List.iter dfs (body_preds r)) (rules_for kb p)
    end
  in
  dfs query.Atom.pred;
  List.sort String.compare !bases

type lint =
  | Unsafe_rule of { rule_id : string; variable : string }
  | Undefined_predicate of { rule_id : string; pred : string }
  | Unreachable_rule of { rule_id : string }
  | Mutex_same_pred of string

let lint kb =
  let findings = ref [] in
  let add f = findings := f :: !findings in
  let defined p = is_base kb p || is_derived kb p in
  (* per-rule checks *)
  List.iter
    (fun (r : Rule.t) ->
      let bound =
        List.concat_map
          (function Literal.Rel a -> Atom.vars a | Literal.Cmp _ -> [])
          r.Rule.body
      in
      (* facts are their own binders; a ground head is fine *)
      List.iter
        (fun v ->
          if not (List.mem v bound) then
            add (Unsafe_rule { rule_id = r.Rule.id; variable = v }))
        (Rule.head_vars r);
      List.iter
        (fun lit ->
          match lit with
          | Literal.Cmp _ ->
            List.iter
              (fun v ->
                if not (List.mem v bound) then
                  add (Unsafe_rule { rule_id = r.Rule.id; variable = v }))
              (Literal.vars lit)
          | Literal.Rel a ->
            if not (defined a.Atom.pred) then
              add (Undefined_predicate { rule_id = r.Rule.id; pred = a.Atom.pred }))
        r.Rule.body)
    (all_rules kb);
  (* reachability: a rule is reachable if its head predicate is used by
     some other rule's body, or it is the only definition layer (top-level
     entry points are fine) — we flag rules whose head predicate is used
     nowhere AND whose body mentions no defined predicate (isolated). *)
  let used_in_bodies =
    List.concat_map
      (fun (r : Rule.t) ->
        List.filter_map
          (function Literal.Rel a -> Some a.Atom.pred | Literal.Cmp _ -> None)
          r.Rule.body)
      (all_rules kb)
  in
  List.iter
    (fun (r : Rule.t) ->
      let head_pred = r.Rule.head.Atom.pred in
      let body_defined =
        List.exists
          (function Literal.Rel a -> defined a.Atom.pred | Literal.Cmp _ -> false)
          r.Rule.body
      in
      if r.Rule.body <> [] && (not body_defined) && not (List.mem head_pred used_in_bodies)
      then add (Unreachable_rule { rule_id = r.Rule.id }))
    (all_rules kb);
  List.iter
    (function
      | Soa.Mutual_exclusion (p, q) when String.equal p q -> add (Mutex_same_pred p)
      | Soa.Mutual_exclusion _ | Soa.Functional_dependency _ | Soa.Recursive_structure _ -> ())
    (soas kb);
  List.rev !findings

let pp_lint ppf = function
  | Unsafe_rule { rule_id; variable } ->
    Format.fprintf ppf "rule %s: variable %s is not bound by any body relation" rule_id
      variable
  | Undefined_predicate { rule_id; pred } ->
    Format.fprintf ppf "rule %s: predicate %s is neither base nor defined" rule_id pred
  | Unreachable_rule { rule_id } ->
    Format.fprintf ppf "rule %s: isolated (nothing defined in its body, head used nowhere)"
      rule_id
  | Mutex_same_pred p ->
    Format.fprintf ppf "mutual exclusion of %s with itself makes it empty" p

let pp ppf kb =
  Format.fprintf ppf "@[<v>";
  Hashtbl.iter
    (fun p arity -> Format.fprintf ppf "base %s/%d@," p arity)
    kb.base;
  List.iter (fun r -> Format.fprintf ppf "%a@," Rule.pp r) (all_rules kb);
  List.iter (fun s -> Format.fprintf ppf "%a@," Soa.pp s) (soas kb);
  Format.fprintf ppf "@]"
