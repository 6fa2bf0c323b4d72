module R = Braid_relalg
module L = Braid_logic
module A = Braid_caql.Ast

exception Unknown_relation of string

(* Columns of the atom holding constants, with their values — candidate
   index probe. *)
let const_cols (a : L.Atom.t) =
  List.filter_map
    (function i, L.Term.Const v -> Some (i, v) | _, L.Term.Var _ -> None)
    (List.mapi (fun i t -> (i, t)) a.L.Atom.args)

(* Pick the element index covering the largest subset of the probe's
   constant columns; constants the index does not cover become a residual
   predicate on the probe result. An exact-columns index (the only case the
   QP used to handle) is the residual-free special case. *)
let best_index (e : Element.t) consts =
  if consts = [] then None
  else begin
    let usable (cols, _) = List.for_all (fun c -> List.mem_assoc c consts) cols in
    match
      List.filter usable e.Element.indexes
      |> List.sort (fun (a, _) (b, _) -> Int.compare (List.length b) (List.length a))
    with
    | [] -> None
    | (cols, ix) :: _ ->
      let key = List.map (fun c -> List.assoc c consts) cols in
      let residual =
        R.Row_pred.conj
          (List.filter_map
             (fun (c, v) ->
               if List.mem c cols then None
               else Some (R.Row_pred.Cmp (R.Row_pred.Eq, R.Row_pred.Col c, R.Row_pred.Lit v)))
             consts)
      in
      Some (ix, key, residual)
  end

let resolve_extension model extra touched stale_hook (a : L.Atom.t) =
  match List.assoc_opt a.L.Atom.pred extra with
  | Some r ->
    touched := !touched + R.Relation.cardinality r;
    r
  | None ->
    (match Cache_model.find model a.L.Atom.pred with
     | None -> raise (Unknown_relation a.L.Atom.pred)
     | Some e ->
       Cache_model.touch model e;
       let count n =
         touched := !touched + n;
         (* Degraded operation: reading a stale element is still an answer,
            but the caller must know to flag the result. *)
         if e.Element.stale then stale_hook n
       in
       let consts = const_cols a in
       (match best_index e consts with
        | Some (ix, key, residual) ->
          (* Index probe: only matching tuples are touched. *)
          let r, matched =
            R.Ops.select_indexed_count ix key ~residual (Element.extension e)
          in
          count matched;
          r
        | None ->
          let r = Element.extension e in
          count (R.Relation.cardinality r);
          r))

let schema_resolver model extra name =
  match List.assoc_opt name extra with
  | Some r -> Some (R.Relation.schema r)
  | None -> Option.map Element.schema (Cache_model.find model name)

let eval model ?(extra = []) ?(stale_hook = fun _ -> ()) q =
  let touched = ref 0 in
  let source = resolve_extension model extra touched stale_hook in
  let result =
    Braid_caql.Eval.query ~source ~schema_of:(schema_resolver model extra) q
  in
  (result, !touched)

let eval_conj_lazy model ?(stale_hook = fun _ -> ()) c =
  (* Resolve to streams without forcing generator elements: laziness must
     propagate all the way down. *)
  let source (a : L.Atom.t) =
    match Cache_model.find model a.L.Atom.pred with
    | None -> raise (Unknown_relation a.L.Atom.pred)
    | Some e ->
      Cache_model.touch model e;
      if e.Element.stale then stale_hook (Element.cardinality_estimate e);
      Element.stream e
  in
  Braid_caql.Eval.lazy_conj ~source ~schema_of:(schema_resolver model []) c
