module L = Braid_logic
module PG = Problem_graph

type stats = {
  culled_by_condition : int;
  culled_by_mutex : int;
  conditions_evaluated : int;
  reordered_nodes : int;
}

let child_vars = function
  | PG.Subgoal n -> L.Atom.vars n.PG.goal
  | PG.Condition c -> L.Literal.vars c

(* Bound-first ordering score: fraction of bound argument positions, then
   estimated result size. Smaller is better. *)
let subgoal_score kb cardinality bound (n : PG.or_node) =
  let args = n.PG.goal.L.Atom.args in
  let arity = max 1 (List.length args) in
  let bound_positions =
    List.length
      (List.filter
         (function
           | L.Term.Const _ -> true
           | L.Term.Var x -> List.mem x bound)
         args)
  in
  let unbound_fraction = 1.0 -. (float_of_int bound_positions /. float_of_int arity) in
  let fact_guard () =
    let rules = L.Kb.rules_for kb n.PG.goal.L.Atom.pred in
    rules <> [] && List.for_all (fun r -> r.L.Rule.body = []) rules
  in
  (* Functional-dependency SOAs (§4.1): when a goal's determinant
     positions are all bound, the dependent positions are determined — the
     goal behaves like a lookup (estimated cardinality 1), making it a
     prime producer-consumer pivot. *)
  let fd_lookup () =
    List.exists
      (function
        | L.Soa.Functional_dependency { determinant; _ } ->
          List.for_all
            (fun i ->
              match List.nth_opt args i with
              | Some (L.Term.Const _) -> true
              | Some (L.Term.Var x) -> List.mem x bound
              | None -> false)
            determinant
        | L.Soa.Mutual_exclusion _ | L.Soa.Recursive_structure _ -> false)
      (L.Kb.functional_dependencies kb n.PG.goal.L.Atom.pred)
  in
  (* Cost class first: IE-only fact guards are free and constrain the
     search (paper: "use all available knowledge to constrain the search
     space ... as early as possible"), base relations cost a DBMS access,
     rule-defined goals are expanded last. *)
  let cls, est =
    match n.PG.kind with
    | PG.Base ->
      if fd_lookup () then (1, 1.0)
      else
        let card = float_of_int (max 1 (cardinality n.PG.goal.L.Atom.pred)) in
        (* every bound position divides the estimate by 10 (generic 0.1
           selectivity; the catalog-precise estimate lives in the planner) *)
        (1, card /. (10.0 ** float_of_int bound_positions))
    | PG.Derived ->
      if fact_guard () then (0, float_of_int (List.length (L.Kb.rules_for kb n.PG.goal.L.Atom.pred)))
      else (2, 10_000.0)
    | PG.Undefined -> (2, 10_000.0)
  in
  (cls, unbound_fraction, est)

let order_children kb cardinality (b : PG.and_node) =
  let remaining = ref b.PG.children in
  let bound = ref [] in
  let picked = ref [] in
  let pick child =
    remaining := List.filter (fun c -> c != child) !remaining;
    bound := !bound @ List.filter (fun v -> not (List.mem v !bound)) (child_vars child);
    picked := child :: !picked
  in
  while !remaining <> [] do
    (* Conditions whose variables are all bound go first. *)
    match
      List.find_opt
        (function
          | PG.Condition c -> List.for_all (fun v -> List.mem v !bound) (L.Literal.vars c)
          | PG.Subgoal _ -> false)
        !remaining
    with
    | Some c -> pick c
    | None ->
      let subgoals =
        List.filter_map
          (function PG.Subgoal n as c -> Some (c, n) | PG.Condition _ -> None)
          !remaining
      in
      (match subgoals with
       | [] ->
         (* Only conditions with unbound variables remain; keep them in
            place (the strategy will report the safety error). *)
         List.iter pick !remaining
       | _ ->
         let best, _ =
           List.fold_left
             (fun (best, best_score) (c, n) ->
               let score = subgoal_score kb cardinality !bound n in
               if score < best_score then (c, score) else (best, best_score))
             (let c, n = List.hd subgoals in
              (c, subgoal_score kb cardinality !bound n))
             (List.tl subgoals)
         in
         pick best)
  done;
  List.rev !picked

let literal_of_child = function
  | PG.Subgoal n -> L.Literal.Rel n.PG.goal
  | PG.Condition c -> c

let branch_has_mutex kb (b : PG.and_node) =
  let subgoals =
    List.filter_map (function PG.Subgoal n -> Some n.PG.goal | PG.Condition _ -> None) b.PG.children
  in
  let rec pairs = function
    | [] -> false
    | (a : L.Atom.t) :: rest ->
      List.exists
        (fun (c : L.Atom.t) ->
          L.Kb.mutually_exclusive kb a.L.Atom.pred c.L.Atom.pred
          && List.length a.L.Atom.args = List.length c.L.Atom.args
          && List.for_all2 L.Term.equal a.L.Atom.args c.L.Atom.args)
        rest
      || pairs rest
  in
  pairs subgoals

let shape kb ~cardinality (g : PG.t) =
  let culled_cond = ref 0 in
  let culled_mutex = ref 0 in
  let evaluated = ref 0 in
  let reordered = ref 0 in
  let rec shape_or (node : PG.or_node) =
    node.PG.branches <- List.filter shape_and node.PG.branches
  and shape_and (b : PG.and_node) =
    (* Evaluate ground conditions; a false one culls the branch. *)
    let alive = ref true in
    List.iter
      (function
        | PG.Condition c ->
          (match L.Literal.eval_cmp c with
           | Some ok ->
             incr evaluated;
             if not ok then alive := false
           | None -> ())
        | PG.Subgoal _ -> ())
      b.PG.children;
    if not !alive then begin
      incr culled_cond;
      false
    end
    else if branch_has_mutex kb b then begin
      incr culled_mutex;
      false
    end
    else begin
      let ordered = order_children kb cardinality b in
      if
        not
          (List.for_all2
             (fun a c -> a == c)
             b.PG.children ordered)
      then incr reordered;
      b.PG.children <- ordered;
      List.iter (function PG.Subgoal n -> shape_or n | PG.Condition _ -> ()) b.PG.children;
      true
    end
  in
  shape_or g.PG.root;
  {
    culled_by_condition = !culled_cond;
    culled_by_mutex = !culled_mutex;
    conditions_evaluated = !evaluated;
    reordered_nodes = !reordered;
  }

let rule_orderings (g : PG.t) =
  let orderings = ref [] in
  let lit_key l = L.Literal.to_string l in
  let record (b : PG.and_node) =
    let id = b.PG.rule.L.Rule.id in
    if not (List.mem_assoc id !orderings) then begin
      let body = Array.of_list b.PG.rule.L.Rule.body in
      let used = Array.make (Array.length body) false in
      let positions =
        List.filter_map
          (fun child ->
            let key = lit_key (literal_of_child child) in
            let rec find i =
              if i >= Array.length body then None
              else if (not used.(i)) && String.equal (lit_key body.(i)) key then begin
                used.(i) <- true;
                Some i
              end
              else find (i + 1)
            in
            find 0)
          b.PG.children
      in
      if List.length positions = Array.length body then
        orderings := (id, positions) :: !orderings
    end
  in
  let rec go (node : PG.or_node) =
    List.iter
      (fun b ->
        record b;
        List.iter (function PG.Subgoal n -> go n | PG.Condition _ -> ()) b.PG.children)
      node.PG.branches
  in
  go g.PG.root;
  List.rev !orderings

let reorder orderings (r : L.Rule.t) =
  match List.assoc_opt r.L.Rule.id orderings with
  | Some perm when List.length perm = List.length r.L.Rule.body ->
    let arr = Array.of_list r.L.Rule.body in
    List.map (fun i -> arr.(i)) perm
  | Some _ | None -> r.L.Rule.body
