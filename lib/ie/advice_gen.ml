module L = Braid_logic
module A = Braid_caql.Ast
module Adv = Braid_advice.Ast
module PG = Problem_graph

let uniq xs =
  let rec loop seen = function
    | [] -> List.rev seen
    | x :: rest -> loop (if List.mem x seen then seen else x :: seen) rest
  in
  loop [] xs

let minimal_args ~head_vars ~body_vars_outside ~run_vars =
  List.filter (fun v -> List.mem v head_vars || List.mem v body_vars_outside) run_vars

(* --- segmentation of an AND node's children into runs --- *)

type segment =
  | Run of L.Atom.t list * L.Literal.t list  (** base atoms + attached conditions *)
  | Derived_goal of PG.or_node
  | Stray_condition of L.Literal.t

let segment ~max_conj_size children =
  (* Group consecutive base subgoals (with interleaved conditions) into
     runs of at most [max_conj_size] base atoms. A condition joins the run
     only if its variables are covered by the run's atoms. *)
  let flush atoms conds acc =
    match List.rev atoms with
    | [] -> List.rev_append (List.map (fun c -> Stray_condition c) (List.rev conds)) acc
    | atoms' ->
      let atom_vars = List.concat_map L.Atom.vars atoms' in
      let keep, stray =
        List.partition
          (fun c -> List.for_all (fun v -> List.mem v atom_vars) (L.Literal.vars c))
          (List.rev conds)
      in
      List.rev_append
        (List.map (fun c -> Stray_condition c) stray)
        (Run (atoms', keep) :: acc)
  in
  let rec go children atoms natoms conds acc =
    match children with
    | [] -> List.rev (flush atoms conds acc)
    | PG.Subgoal n :: rest when n.PG.kind = PG.Base ->
      if natoms >= max_conj_size then
        go rest [ n.PG.goal ] 1 [] (flush atoms conds acc)
      else go rest (n.PG.goal :: atoms) (natoms + 1) conds acc
    | PG.Subgoal n :: rest ->
      go rest [] 0 [] (Derived_goal n :: flush atoms conds acc)
    | PG.Condition c :: rest ->
      if atoms = [] then go rest atoms natoms conds (Stray_condition c :: acc)
      else go rest atoms natoms (c :: conds) acc
  in
  go children [] 0 [] []

(* --- shared spec table --- *)

type table = {
  mutable specs : Adv.view_spec list; (* newest first *)
  mutable counter : int;
}

let spec_key (def : A.conj) bindings =
  A.variant_key def
  ^ "/"
  ^ String.concat "" (List.map (function Adv.Producer -> "^" | Adv.Consumer -> "?") bindings)

let get_or_create table def bindings rule_id =
  let key = spec_key def bindings in
  match
    List.find_opt (fun s -> String.equal (spec_key s.Adv.def s.Adv.bindings) key) table.specs
  with
  | Some s -> s
  | None ->
    table.counter <- table.counter + 1;
    let s =
      Adv.spec ~rule_ids:[ rule_id ] ~id:(Printf.sprintf "d%d" table.counter) ~bindings def
    in
    table.specs <- s :: table.specs;
    s

(* --- the annotated traversal producing specs and path --- *)

let run_spec table ~rule ~bound (atoms, conds) =
  let head_vars = L.Atom.vars rule.L.Rule.head in
  let run_lits = List.map (fun a -> L.Literal.Rel a) atoms @ conds in
  let run_keys = List.map L.Literal.to_string run_lits in
  (* Body variables outside the run: every body literal not consumed by the
     run (matching by printed form, consuming duplicates). *)
  let remaining = ref run_keys in
  let outside =
    List.concat_map
      (fun lit ->
        let key = L.Literal.to_string lit in
        if List.mem key !remaining then begin
          (* remove one occurrence *)
          let rec remove = function
            | [] -> []
            | k :: rest -> if String.equal k key then rest else k :: remove rest
          in
          remaining := remove !remaining;
          []
        end
        else L.Literal.vars lit)
      rule.L.Rule.body
  in
  let run_vars = uniq (List.concat_map L.Atom.vars atoms) in
  let params = minimal_args ~head_vars ~body_vars_outside:(uniq outside) ~run_vars in
  let bindings =
    List.map (fun v -> if List.mem v bound then Adv.Consumer else Adv.Producer) params
  in
  let cmps =
    List.filter_map
      (function L.Literal.Cmp (op, a, b) -> Some (op, a, b) | L.Literal.Rel _ -> None)
      conds
  in
  let def = A.conj ~cmps (List.map (fun v -> L.Term.Var v) params) atoms in
  get_or_create table def bindings rule.L.Rule.id

(* First producer-annotated parameter of a spec, for the |Y| repetition
   bound of the tail of a rule body. *)
let first_producer (s : Adv.view_spec) =
  let rec go params bindings =
    match params, bindings with
    | L.Term.Var v :: _, Adv.Producer :: _ -> Some v
    | _ :: ps, _ :: bs -> go ps bs
    | _, _ -> None
  in
  go s.Adv.def.A.head s.Adv.bindings

let seq_once ps = Adv.Seq (ps, { Adv.lo = 1; hi = Adv.Fin 1 })

let rec path_of_or ~max_conj_size table kb recursive_preds bound (node : PG.or_node) :
    Adv.path list =
  match node.PG.kind with
  | PG.Base ->
    (* A bare base goal at OR level only happens for a base-root query. *)
    let rule = L.Rule.make ~id:"query" node.PG.goal [ L.Literal.Rel node.PG.goal ] in
    let s = run_spec table ~rule ~bound ([ node.PG.goal ], []) in
    [ Adv.Pattern (s.Adv.id, s.Adv.def.A.head) ]
  | PG.Undefined -> []
  | PG.Derived ->
    if node.PG.recursive_ref then []
    else begin
      let branch_paths =
        List.map
          (fun b -> path_of_and ~max_conj_size table kb recursive_preds bound b)
          node.PG.branches
      in
      let non_empty = List.filter (fun (p, _) -> p <> []) branch_paths in
      let inner =
        match non_empty with
        | [] -> []
        | [ (single, _) ] -> single
        | several ->
          let certain (p, guarded) =
            (not guarded)
            &&
            match p with
            | Adv.Pattern _ :: _ -> true
            | (Adv.Seq _ | Adv.Alt _) :: _ | [] -> false
          in
          let several_paths = List.map fst several in
          if List.for_all certain several then
            (* Every branch surely issues its queries (all-solutions,
               chronological order): a sequence, as in the paper's
               Example 1. *)
            List.concat several_paths
          else begin
            (* Branch guards decide; emit an alternation as in Example 2,
               with selection term 1 when the guards are mutually
               exclusive. *)
            let guards =
              List.map
                (fun (b : PG.and_node) ->
                  List.find_map
                    (function
                      | PG.Subgoal n when n.PG.kind = PG.Derived -> Some n.PG.goal.L.Atom.pred
                      | PG.Subgoal _ | PG.Condition _ -> None)
                    b.PG.children)
                node.PG.branches
            in
            let all_mutex =
              let rec pairs = function
                | [] -> true
                | Some g :: rest ->
                  List.for_all
                    (function Some g' -> L.Kb.mutually_exclusive kb g g' | None -> false)
                    rest
                  && pairs rest
                | None :: _ -> false
              in
              pairs guards
            in
            let sel = if all_mutex then Some 1 else None in
            [ Adv.Alt (List.map (fun p -> seq_once p) several_paths, sel) ]
          end
      in
      if inner = [] then []
      else if List.mem node.PG.goal.L.Atom.pred recursive_preds then
        [ Adv.Seq (inner, { Adv.lo = 1; hi = Adv.Inf }) ]
      else inner
    end

and path_of_and ~max_conj_size table kb recursive_preds bound (b : PG.and_node) :
    Adv.path list * bool =
  let segments = segment ~max_conj_size b.PG.children in
  let bound_here = ref bound in
  (* A branch is "guarded" when an IE-only derived goal (one contributing
     no query pattern) precedes its first pattern: whether the branch's
     queries appear at all then depends on IE-side processing (paper
     Example 2). *)
  let guarded = ref false in
  let saw_pattern = ref false in
  let items =
    List.concat_map
      (fun seg ->
        match seg with
        | Run (atoms, conds) ->
          let s = run_spec table ~rule:b.PG.rule ~bound:!bound_here (atoms, conds) in
          bound_here :=
            uniq (!bound_here @ List.concat_map L.Atom.vars atoms);
          saw_pattern := true;
          [ Adv.Pattern (s.Adv.id, s.Adv.def.A.head) ]
        | Derived_goal n ->
          let sub = path_of_or ~max_conj_size table kb recursive_preds !bound_here n in
          bound_here := uniq (!bound_here @ L.Atom.vars n.PG.goal);
          if sub = [] && not !saw_pattern then guarded := true;
          if sub <> [] then saw_pattern := true;
          sub
        | Stray_condition c ->
          bound_here := uniq (!bound_here @ L.Literal.vars c);
          [])
      segments
  in
  ( (match items with
    | [] -> []
    | [ single ] -> [ single ]
    | first :: rest ->
      (* The body tail repeats once per binding produced by the first
         element: (first, (rest)^<0,|Y|>). *)
      let hi =
        match first with
        | Adv.Pattern (id, _) ->
          (match List.find_opt (fun s -> String.equal s.Adv.id id) table.specs with
           | Some s ->
             (match first_producer s with Some v -> Adv.Cardinality v | None -> Adv.Fin 1)
           | None -> Adv.Inf)
        | Adv.Seq _ | Adv.Alt _ -> Adv.Inf
      in
      [ first; Adv.Seq (rest, { Adv.lo = 0; hi }) ]),
    !guarded )

let generate ?(max_conj_size = max_int) kb (g : PG.t) =
  let table = { specs = []; counter = 0 } in
  let recursive_preds = L.Kb.recursive_preds kb in
  (* Entry bindings: the AI query's constant positions are bound; its
     variables are free. Variables of the root goal are not bound. *)
  let path_items = path_of_or ~max_conj_size table kb recursive_preds [] g.PG.root in
  let path = match path_items with [] -> None | items -> Some (seq_once items) in
  { Adv.specs = List.rev table.specs; path }
