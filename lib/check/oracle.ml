module R = Braid_relalg
module A = Braid_caql.Ast
module L = Braid_logic
module Server = Braid_remote.Server
module Engine = Braid_remote.Engine
module Plan = Braid_planner.Plan
module Element = Braid_cache.Element
module Cache_model = Braid_cache.Cache_model

type t = { server : Server.t }

let create server = { server }

(* Direct evaluation over the engine's tables: no Server.exec, so no fault
   injector draws, no request charges — the oracle never perturbs the run
   it is checking. *)
let ground_truth t (def : A.conj) =
  Braid_caql.Eval.conj
    ~source:(fun (a : L.Atom.t) -> Engine.table (Server.engine t.server) a.L.Atom.pred)
    ~schema_of:(Braid_remote.Catalog.schema_of (Server.catalog t.server))
    def

(* Set-semantics diff: (in [expected] only, in [actual] only). *)
let diff_relations ~expected ~actual =
  let missing =
    List.filter
      (fun tup -> not (R.Relation.mem actual tup))
      (R.Relation.to_list (R.Relation.distinct expected))
  in
  let extra =
    List.filter
      (fun tup -> not (R.Relation.mem expected tup))
      (R.Relation.to_list (R.Relation.distinct actual))
  in
  (missing, extra)

type divergence = {
  def : A.conj;
  provenance : Plan.provenance;
  missing : R.Tuple.t list;
  extra : R.Tuple.t list;
}

let divergence_to_string d =
  Printf.sprintf "%s [%s]: %d missing, %d extra"
    (A.conj_to_string d.def)
    (match d.provenance with Plan.Fresh -> "fresh" | Plan.Degraded -> "degraded")
    (List.length d.missing) (List.length d.extra)

let check_answer t (q : A.conj) (provenance : Plan.provenance) answer =
  let truth = ground_truth t q in
  let missing, extra = diff_relations ~expected:truth ~actual:answer in
  match provenance with
  | Plan.Fresh ->
    (* A fresh answer is indistinguishable from re-asking the remote: exact
       set equality. *)
    if missing = [] && extra = [] then None
    else Some { def = q; provenance; missing; extra }
  | Plan.Degraded ->
    (* Degraded answers come from stale data under insert-only mutation of
       monotone (PSJ) queries: a subset of current ground truth. Missing
       tuples are the degradation; invented tuples are a bug. *)
    if extra = [] then None else Some { def = q; provenance; missing = []; extra }

let revalidate t (e : Element.t) =
  let truth = ground_truth t e.Element.def in
  let missing, extra = diff_relations ~expected:truth ~actual:(Element.extension e) in
  if e.Element.stale then extra = [] (* stale: subset of truth suffices *)
  else missing = [] && extra = []

(* Structural equality of two cache models — the recovery invariant: same
   element ids in the same order, same definitions and flags; extension
   content compared tuple-by-tuple (recovery shares the journaled
   extension, so this should be the same relation). *)
let same_state expected actual =
  let es = Cache_model.elements expected and as_ = Cache_model.elements actual in
  let rec go = function
    | [], [] -> Ok ()
    | (e : Element.t) :: _, [] -> Error (Printf.sprintf "missing element %s" e.Element.id)
    | [], (a : Element.t) :: _ -> Error (Printf.sprintf "extra element %s" a.Element.id)
    | (e : Element.t) :: es', (a : Element.t) :: as' ->
      if not (String.equal e.Element.id a.Element.id) then
        Error (Printf.sprintf "element order differs: %s vs %s" e.Element.id a.Element.id)
      else if not (A.variant_equal e.Element.def a.Element.def) then
        Error (Printf.sprintf "%s: definition differs" e.Element.id)
      else if e.Element.stale <> a.Element.stale then
        Error (Printf.sprintf "%s: stale flag differs" e.Element.id)
      else if e.Element.pinned <> a.Element.pinned then
        Error (Printf.sprintf "%s: pinned flag differs" e.Element.id)
      else begin
        let missing, extra =
          diff_relations ~expected:(Element.extension e) ~actual:(Element.extension a)
        in
        if missing = [] && extra = [] then go (es', as')
        else
          Error
            (Printf.sprintf "%s: extension content differs (%d missing, %d extra)"
               e.Element.id (List.length missing) (List.length extra))
      end
  in
  go (es, as_)
