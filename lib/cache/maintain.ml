module R = Braid_relalg
module L = Braid_logic
module A = Braid_caql.Ast
module Sub = Braid_subsume.Subsumption
module Obs = Braid_obs
module CM = Cache_manager
module JP = Braid_caql.Join_plan

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

let dvar i = L.Term.Var (Printf.sprintf "D%d" i)

(* An element fully covering the identity query over [pred] (head = all
   columns, one atom, no comparisons) holds the predicate's complete
   current content: the "already-cached other side" a join delta
   semi-joins against. The first Fresh materialized one, with its
   replacement atom over the identity's variables, or [None] when there is
   none (the join delta then cannot be computed locally). *)
let cover_of cmgr ~schema_of pred =
  Option.bind (schema_of pred) (fun schema ->
      let vars = List.init (R.Schema.arity schema) dvar in
      let identity = Braid_subsume.Form.of_conj (A.conj vars [ L.Atom.make pred vars ]) in
      List.find_map
        (fun (el : Element.t) ->
          if el.Element.stale || not (Element.is_materialized el) then None
          else
            Option.map
              (fun (c : Sub.cover) -> (el, c.Sub.replacement))
              (Sub.full_cover_of ~id:el.Element.id el.Element.inst identity))
        (Cache_model.candidates_for_pred (CM.model cmgr) pred))

(* [a] read from its cover's rows in place: the replacement atom with
   [a]'s terms for the identity's variables. *)
let read_in_place (replacement : L.Atom.t) (a : L.Atom.t) =
  let sigma = List.mapi (fun i t -> (dvar i, t)) a.L.Atom.args in
  L.Atom.make replacement.L.Atom.pred
    (List.map (fun t -> Option.value (List.assoc_opt t sigma) ~default:t) replacement.L.Atom.args)

let occurrences pred (def : A.conj) =
  List.length
    (List.filter (fun (a : L.Atom.t) -> String.equal a.L.Atom.pred pred) def.A.atoms)

(* The delta an element's definition derives from a single-tuple write to
   [pred]: the definition's plan led by the written atom, which reads the
   singleton, with every other atom read in place from its cover. Every
   cover is found before anything is evaluated. [None] = not computable
   (other side not cached Fresh, arity mismatch, unsafe definition) — the
   caller falls back. *)
let delta_rows cmgr ~schema_of (e : Element.t) ~pred ~tup =
  match schema_of pred with
  | Some base_schema when R.Schema.arity base_schema = R.Tuple.arity tup ->
    let def = e.Element.def in
    (* input 0 is the written tuple, input k the k-th cover's element *)
    let rec gather acc = function
      | [] -> Some (List.rev acc)
      | (a : L.Atom.t) :: rest ->
        if String.equal a.L.Atom.pred pred || List.mem_assoc a.L.Atom.pred acc then gather acc rest
        else
          Option.bind (cover_of cmgr ~schema_of a.L.Atom.pred) (fun (el, replacement) ->
              gather ((a.L.Atom.pred, (List.length acc + 1, el, replacement)) :: acc) rest)
    in
    Option.bind (gather [] def.A.atoms) (fun covers ->
        let input (a : L.Atom.t) =
          match List.assoc_opt a.L.Atom.pred covers with
          | Some (k, _, replacement) -> (k, read_in_place replacement a)
          | None -> (0, a)
        in
        let lead =
          List.find_index (fun (a : L.Atom.t) -> String.equal a.L.Atom.pred pred) def.A.atoms
        in
        let jp = JP.compiler () in
        match
          JP.compile jp ?lead ~target:0 ~head:def.A.head ~atoms:(List.map input def.A.atoms)
            ~cmps:def.A.cmps ()
        with
        | exception JP.Unsafe _ -> None
        | plan ->
          let els = List.map (fun (_, (_, el, _)) -> el) covers in
          let written = R.Relation.of_tuples ~name:pred base_schema [ tup ] in
          let rels = written :: List.map Element.extension els in
          (* a covering element's own indexes are probed where it has them *)
          let providers = (fun _ -> None) :: List.map Element.index_on els in
          let rows = ref [] in
          JP.execute
            (JP.start jp ~rels:(Array.of_list rels) ~providers:(Array.of_list providers)
               ~emit:(fun _ t -> rows := t :: !rows)
               ())
            plan;
          Some (List.rev !rows))
  | Some _ | None -> None

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
