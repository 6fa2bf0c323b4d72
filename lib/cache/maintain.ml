module R = Braid_relalg
module L = Braid_logic
module A = Braid_caql.Ast
module Sub = Braid_subsume.Subsumption
module Obs = Braid_obs
module CM = Cache_manager

type write =
  | Insert of string * R.Tuple.t
  | Delete of string * R.Tuple.t

type report = {
  maintained : int;
  fallbacks : int;
  dropped : int;
  rows_added : int;
  rows_removed : int;
}

let empty_report =
  { maintained = 0; fallbacks = 0; dropped = 0; rows_added = 0; rows_removed = 0 }

(* The identity query over a base predicate: head = all columns, one atom,
   no comparisons. An element fully covering it derives the predicate's
   complete current content — the "already-cached other side" a join delta
   semi-joins against. *)
let identity_query pred schema =
  let vars =
    List.init (R.Schema.arity schema) (fun i -> L.Term.Var (Printf.sprintf "D%d" i))
  in
  A.conj vars [ L.Atom.make pred vars ]

(* The full current content of [pred], derived from a Fresh materialized
   cache element that fully covers the identity query — or [None] when no
   such element exists (the join delta then cannot be computed locally). *)
let full_content_of cmgr ~schema_of pred =
  match schema_of pred with
  | None -> None
  | Some schema ->
    let q = identity_query pred schema in
    let qkey = Braid_subsume.Form.of_conj q in
    List.find_map
      (fun (el : Element.t) ->
        if el.Element.stale || not (Element.is_materialized el) then None
        else
          match Sub.full_cover_of ~id:el.Element.id el.Element.inst qkey with
          | None -> None
          | Some cover ->
            let rewritten = Sub.rewrite q cover in
            let source (a : L.Atom.t) =
              if String.equal a.L.Atom.pred el.Element.id then Element.extension el
              else R.Relation.create (R.Schema.make [])
            in
            let schema_of' n =
              if String.equal n el.Element.id then Some (Element.schema el)
              else schema_of n
            in
            (try Some (Braid_caql.Eval.conj ~source ~schema_of:schema_of' rewritten)
             with Braid_caql.Eval.Unsafe _ -> None))
      (Cache_model.candidates_for_pred (CM.model cmgr) pred)

let occurrences pred (def : A.conj) =
  List.length
    (List.filter (fun (a : L.Atom.t) -> String.equal a.L.Atom.pred pred) def.A.atoms)

(* The delta an element's definition derives from a single-tuple write to
   [pred]: evaluate the definition with the written atom bound to the
   singleton and every other atom bound to its full cached content.
   [None] = not computable (other side not cached Fresh, arity mismatch,
   unsafe definition) — the caller falls back. *)
let delta_rows cmgr ~schema_of (e : Element.t) ~pred ~tup =
  match schema_of pred with
  | None -> None
  | Some base_schema ->
    if R.Schema.arity base_schema <> R.Tuple.arity tup then None
    else begin
      let singleton = R.Relation.of_tuples ~name:pred base_schema [ tup ] in
      let others =
        List.filter
          (fun (a : L.Atom.t) -> not (String.equal a.L.Atom.pred pred))
          e.Element.def.A.atoms
      in
      let rec gather acc = function
        | [] -> Some acc
        | (a : L.Atom.t) :: rest ->
          if List.mem_assoc a.L.Atom.pred acc then gather acc rest
          else (
            match full_content_of cmgr ~schema_of a.L.Atom.pred with
            | None -> None
            | Some r -> gather ((a.L.Atom.pred, r) :: acc) rest)
      in
      match gather [] others with
      | None -> None
      | Some contents ->
        let source (a : L.Atom.t) =
          if String.equal a.L.Atom.pred pred then singleton
          else List.assoc a.L.Atom.pred contents
        in
        (try
           Some (R.Relation.to_list (Braid_caql.Eval.conj ~source ~schema_of e.Element.def))
         with Braid_caql.Eval.Unsafe _ -> None)
    end

(* Decision table (paper §4 duality, docs/CONSISTENCY.md):
   - generator repr        -> lazy by construction; fall back
   - already stale         -> content no longer exact; fall back
   - self-join on [pred]   -> delta has quadratic terms; fall back
   - otherwise             -> attempt the delta (which may still fall back
                              when a join's other side is not cached Fresh) *)
let maintainable (e : Element.t) ~pred =
  Element.is_materialized e && (not e.Element.stale) && occurrences pred e.Element.def = 1

let trace_delta e ~pred ~kind ~rows =
  Obs.Trace.instant ~cat:"cache" "cache.delta.apply"
    ~args:
      [
        ("element", Obs.Trace.Str e.Element.id);
        ("pred", Obs.Trace.Str pred);
        ("kind", Obs.Trace.Str kind);
        ("rows", Obs.Trace.Int (List.length rows));
      ]

let apply_insert cmgr (e : Element.t) ~pred rows =
  if rows <> [] then begin
    (* WAL discipline: journal the delta before mutating the model. *)
    Journal.log_delta_insert (CM.journal cmgr) ~id:e.Element.id ~pred ~rows;
    Element.insert_rows e rows;
    Obs.Metrics.incr ~by:(List.length rows) "cache.delta.rows_added";
    trace_delta e ~pred ~kind:"insert" ~rows
  end;
  Obs.Metrics.incr "cache.delta.applied";
  List.length rows

(* Returns [None] when a delta row was absent from the extension — the
   element diverged from its definition, so the caller must drop it. *)
let apply_delete cmgr (e : Element.t) ~pred rows =
  if rows = [] then begin
    Obs.Metrics.incr "cache.delta.applied";
    Some 0
  end
  else begin
    Journal.log_delta_delete (CM.journal cmgr) ~id:e.Element.id ~pred ~rows;
    if Element.delete_rows e rows then begin
      Obs.Metrics.incr ~by:(List.length rows) "cache.delta.rows_removed";
      Obs.Metrics.incr "cache.delta.applied";
      trace_delta e ~pred ~kind:"delete" ~rows;
      Some (List.length rows)
    end
    else None
  end

let on_write cmgr ~schema_of write =
  let pred, tup, is_insert =
    match write with
    | Insert (p, t) -> (p, t, true)
    | Delete (p, t) -> (p, t, false)
  in
  let fallback acc (e : Element.t) =
    Obs.Metrics.incr "cache.delta.fallbacks";
    if is_insert then begin
      CM.mark_stale_element cmgr e ~pred;
      { acc with fallbacks = acc.fallbacks + 1 }
    end
    else begin
      (* A stale element is only an honest subset of ground truth under
         insert-only writes; a delete breaks that claim, so drop. *)
      CM.remove_element cmgr e ~pred;
      { acc with fallbacks = acc.fallbacks + 1; dropped = acc.dropped + 1 }
    end
  in
  let dependents = Cache_model.candidates_for_pred (CM.model cmgr) pred in
  List.fold_left
    (fun acc (e : Element.t) ->
      if not (maintainable e ~pred) then fallback acc e
      else
        match delta_rows cmgr ~schema_of e ~pred ~tup with
        | None -> fallback acc e
        | Some rows ->
          if is_insert then begin
            let n = apply_insert cmgr e ~pred rows in
            { acc with maintained = acc.maintained + 1; rows_added = acc.rows_added + n }
          end
          else (
            match apply_delete cmgr e ~pred rows with
            | Some n ->
              {
                acc with
                maintained = acc.maintained + 1;
                rows_removed = acc.rows_removed + n;
              }
            | None ->
              (* Divergence guard: the journaled delta was partially
                 inapplicable; replay reproduces the same partial state,
                 then the same drop. *)
              CM.remove_element cmgr e ~pred;
              Obs.Metrics.incr "cache.delta.fallbacks";
              { acc with fallbacks = acc.fallbacks + 1; dropped = acc.dropped + 1 }))
    empty_report dependents
