module L = Braid_logic
module R = Braid_relalg
module A = Braid_caql.Ast
module TS = Braid_stream.Tuple_stream
module Qpo = Braid_planner.Qpo
module Obs = Braid_obs

type kind =
  | Interpretive
  | Conjunction_compiled of int
  | Set_oriented
  | Adaptive

let label = function
  | Interpretive -> "interpretive"
  | Conjunction_compiled k -> "conjunction-" ^ string_of_int k
  | Set_oriented -> "set-oriented"
  | Adaptive -> "adaptive"

let of_label = function
  | "interpretive" -> Ok Interpretive
  | "set-oriented" -> Ok Set_oriented
  | "adaptive" -> Ok Adaptive
  | s when String.starts_with ~prefix:"conjunction-" s ->
    let n = String.length "conjunction-" in
    (match int_of_string_opt (String.sub s n (String.length s - n)) with
     | Some k when k >= 1 -> Ok (Conjunction_compiled k)
     | _ -> Error "conjunction-N needs N >= 1")
  | s ->
    Error
      (Printf.sprintf
         "unknown strategy %S; expected interpretive, conjunction-N, set-oriented or adaptive" s)

type counters = {
  mutable resolutions : int;
  mutable db_goal_queries : int;
}

exception Depth_limit of int
exception Unbound_builtin of string

let uniq xs =
  let rec loop seen = function
    | [] -> List.rev seen
    | x :: rest -> loop (if List.mem x seen then seen else x :: seen) rest
  in
  loop [] xs

(* Collect the maximal prefix run of at most [k] base conjuncts (plus the
   comparisons their variables cover), applying the current bindings. *)
let take_run kb k env goals =
  let rec go goals atoms conds n =
    match goals with
    | L.Literal.Rel a :: rest when L.Kb.is_base kb a.L.Atom.pred && n < k ->
      go rest (L.Subst.apply_atom env a :: atoms) conds (n + 1)
    | (L.Literal.Cmp _ as c) :: rest when atoms <> [] ->
      let c' = L.Literal.apply env c in
      let run_vars = List.concat_map L.Atom.vars atoms in
      if List.for_all (fun v -> List.mem v run_vars) (L.Literal.vars c') then
        go rest atoms (c' :: conds) n
      else (List.rev atoms, List.rev conds, goals)
    | _ -> (List.rev atoms, List.rev conds, goals)
  in
  go goals [] [] 0

let cmps_of conds =
  List.filter_map
    (function L.Literal.Cmp (op, a, b) -> Some (op, a, b) | L.Literal.Rel _ -> None)
    conds

(* --- depth-first, chronological-backtracking resolution --- *)

let solve_sld k kb qpo ~orderings ~counters ~max_depth ~skip_rules query =
  let rules_for p =
    List.filter
      (fun (r : L.Rule.t) -> not (List.mem r.L.Rule.id skip_rules))
      (L.Kb.rules_for kb p)
  in
  let rename_counter = ref 0 in
  let rec go env goals depth : L.Subst.t Seq.t =
    if depth > max_depth then raise (Depth_limit depth);
    match goals with
    | [] -> Seq.return env
    | (L.Literal.Cmp _ as c) :: rest ->
      counters.resolutions <- counters.resolutions + 1;
      (match L.Literal.eval_cmp (L.Literal.apply env c) with
       | Some true -> go env rest depth
       | Some false -> Seq.empty
       | None -> raise (Unbound_builtin (L.Literal.to_string (L.Literal.apply env c))))
    | L.Literal.Rel a :: _ when L.Kb.is_base kb a.L.Atom.pred ->
      let atoms, conds, rest = take_run kb k env goals in
      counters.db_goal_queries <- counters.db_goal_queries + 1;
      counters.resolutions <- counters.resolutions + List.length atoms;
      (* The query head is the run's minimal argument set (§4.2.1): only
         variables needed by the remaining goals or by the answer are
         requested; existential variables are projected away by the CMS. *)
      let run_vars = uniq (List.concat_map L.Atom.vars atoms) in
      let rest_vars =
        uniq (List.concat_map (fun lit -> L.Literal.vars (L.Literal.apply env lit)) rest)
      in
      let answer_vars =
        List.filter_map
          (fun v ->
            match L.Subst.resolve env (L.Term.Var v) with
            | L.Term.Var w -> Some w
            | L.Term.Const _ -> None)
          (L.Atom.vars query)
      in
      let head_vars =
        match List.filter (fun v -> List.mem v rest_vars || List.mem v answer_vars) run_vars with
        | [] -> run_vars (* pure existence check: keep the run's variables *)
        | needed -> needed
      in
      let q =
        A.conj ~cmps:(cmps_of conds) (List.map (fun v -> L.Term.Var v) head_vars) atoms
      in
      let answer = Qpo.answer_conj qpo ~prefer_lazy:true q in
      let cursor = TS.cursor answer.Qpo.stream in
      let tuples = Seq.of_dispenser (fun () -> TS.next cursor) in
      Seq.concat_map
        (fun tuple ->
          let env' =
            List.fold_left2
              (fun e v value -> L.Subst.bind v (L.Term.Const value) e)
              env head_vars (Array.to_list tuple)
          in
          go env' rest (depth + 1))
        tuples
    | L.Literal.Rel a :: rest ->
      if not (L.Kb.is_derived kb a.L.Atom.pred) then Seq.empty
      else
        Seq.concat_map
          (fun rule ->
            incr rename_counter;
            let r = L.Rule.rename_apart !rename_counter rule in
            counters.resolutions <- counters.resolutions + 1;
            match L.Unify.atoms env a r.L.Rule.head with
            | Some env' -> go env' (Shaper.reorder orderings r @ rest) (depth + 1)
            | None -> Seq.empty)
          (List.to_seq (rules_for a.L.Atom.pred))
  in
  let qvars = L.Atom.vars query in
  let schema = R.Schema.make (List.map (fun v -> (v, R.Value.Tstr)) qvars) in
  let solutions = go L.Subst.empty [ L.Literal.Rel query ] 0 in
  let dispenser = Seq.to_dispenser solutions in
  TS.from schema (fun () ->
      match dispenser () with
      | None -> None
      | Some env ->
        Some
          (Array.of_list
             (List.map
                (fun v ->
                  match L.Subst.resolve env (L.Term.Var v) with
                  | L.Term.Const c -> c
                  | L.Term.Var _ -> R.Value.Null)
                qvars)))

(* --- the set-oriented endpoint of the range --- *)

type solutions =
  | Lazily of TS.t
  | All of R.Relation.t

type set_program = {
  magic : bool;  (* whether the goal was magic-transformed *)
  program : Datalog.program;
}

let compile_set kb qpo ~orderings ~skip_rules ~params query =
  let catalog = Braid_remote.Server.catalog (Qpo.server qpo) in
  let schema p = Braid_remote.Catalog.schema_of catalog p in
  match Magic.transform kb ~orderings ~skip_rules query with
  | Some m -> { magic = true; program = Datalog.compile m.Magic.kb ~params ~schema m.Magic.query }
  | None -> { magic = false; program = Datalog.compile kb ~skip_rules ~params ~schema query }

let solve_set_oriented kb qpo ~counters ~set_program query =
  Obs.Trace.with_span ~cat:"ie" "ie.set.solve"
    ~args:
      (if Obs.Trace.enabled () then [ ("query", Obs.Trace.Str (L.Atom.to_string query)) ]
       else [])
    (fun () ->
      Obs.Metrics.incr "ie.set.solves";
      (* A fetch answered by a cache element's whole extension hands the
         fixpoint that element's indexes, kept across goals. *)
      let fetch c =
        counters.db_goal_queries <- counters.db_goal_queries + 1;
        Obs.Metrics.incr "ie.set.fetches";
        let answer = Qpo.answer_relation qpo c in
        let rel = answer.Qpo.relation in
        Obs.Metrics.incr ~by:(R.Relation.cardinality rel) "ie.set.fetched_tuples";
        (rel, answer.Qpo.index)
      in
      if L.Kb.is_base kb query.L.Atom.pred then begin
        (* a base goal is itself one set-oriented fetch *)
        let vars = L.Atom.vars query in
        let q = A.conj (List.map (fun v -> L.Term.Var v) vars) [ query ] in
        All (fst (fetch q))
      end
      else begin
        let compiled, args = set_program () in
        let outcome = Datalog.exec compiled.program ~args ~fetch in
        counters.resolutions <- counters.resolutions + outcome.Datalog.tuples_produced;
        Obs.Metrics.incr ~by:outcome.Datalog.iterations "ie.set.rounds";
        let magic_tuples =
          List.fold_left
            (fun acc (p, n) -> if Magic.is_magic p then acc + n else acc)
            0 outcome.Datalog.derived_sizes
        in
        Obs.Metrics.incr ~by:magic_tuples "ie.set.magic_tuples";
        if compiled.magic && outcome.Datalog.fetched_tuples > 0 then
          Obs.Metrics.observe "ie.set.magic.selectivity"
            (float_of_int magic_tuples /. float_of_int outcome.Datalog.fetched_tuples);
        Obs.Trace.add_arg "rounds" (Obs.Trace.Int outcome.Datalog.iterations);
        Obs.Trace.add_arg "fetches" (Obs.Trace.Int outcome.Datalog.fetches);
        Obs.Trace.add_arg "fetched_tuples" (Obs.Trace.Int outcome.Datalog.fetched_tuples);
        Obs.Trace.add_arg "magic_tuples" (Obs.Trace.Int magic_tuples);
        All outcome.Datalog.result
      end)

(* Heuristic choice for the adaptive suite: compare the cost of moving
   every reachable base relation once (the most set-oriented evaluation
   can fetch) against an interpretive estimate driven by the query's
   selectivity. *)
let adaptive_choice kb qpo query =
  let catalog = Braid_remote.Server.catalog (Qpo.server qpo) in
  let model = Braid_remote.Server.cost_model (Qpo.server qpo) in
  let base_preds = L.Kb.base_preds_reachable kb query in
  let total_base =
    List.fold_left
      (fun acc p -> acc + Braid_remote.Catalog.cardinality catalog p)
      0 base_preds
  in
  let set_oriented_cost =
    (* one request per base relation + full transfer *)
    float_of_int (List.length base_preds) *. model.Braid_remote.Cost_model.request_overhead_ms
    +. (model.Braid_remote.Cost_model.transfer_tuple_ms *. float_of_int total_base)
  in
  let bound_args =
    List.length (List.filter L.Term.is_const query.L.Atom.args)
  in
  let interpretive_requests =
    (* a selective query touches a bounded frontier (a handful of goal
       queries); an all-free query of a recursive predicate enumerates the
       whole extension, one goal query per tuple *)
    if bound_args > 0 then 3.0
    else if List.mem query.L.Atom.pred (L.Kb.recursive_preds kb) then
      float_of_int (max 1 total_base)
    else 10.0
  in
  let interpretive_cost =
    interpretive_requests *. model.Braid_remote.Cost_model.request_overhead_ms
  in
  if interpretive_cost <= set_oriented_cost then `Interpretive else `Set_oriented

let solutions kind kb qpo ~orderings ~counters ?(max_depth = 50_000) ?(skip_rules = [])
    ~set_program query =
  let sld k = Lazily (solve_sld k kb qpo ~orderings ~counters ~max_depth ~skip_rules query) in
  match kind with
  | Interpretive -> sld 1
  | Conjunction_compiled k ->
    if k < 1 then invalid_arg "Strategy.solutions: conjunction size must be >= 1";
    sld k
  | Set_oriented -> solve_set_oriented kb qpo ~counters ~set_program query
  | Adaptive ->
    (match adaptive_choice kb qpo query with
     | `Interpretive -> sld 1
     | `Set_oriented -> solve_set_oriented kb qpo ~counters ~set_program query)
