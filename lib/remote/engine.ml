module R = Braid_relalg

type t = {
  tables : (string, R.Relation.t) Hashtbl.t;
  catalog : Catalog.t;
  counters : Qplan.counters;
  mutable last_explain : Qplan.explain option;
}

let create () =
  {
    tables = Hashtbl.create 16;
    catalog = Catalog.create ();
    counters = Qplan.fresh_counters ();
    last_explain = None;
  }

let catalog t = t.catalog
let plan_counters t = t.counters
let last_explain t = t.last_explain

let insert t name tup =
  match Hashtbl.find_opt t.tables name with
  | Some rel ->
    R.Relation.add rel tup;
    Catalog.note_insert t.catalog name tup
  | None -> invalid_arg ("Engine.insert: unknown table " ^ name)

let delete t name tup =
  match Hashtbl.find_opt t.tables name with
  | Some rel ->
    let removed = R.Relation.remove_once rel tup in
    if removed then Catalog.note_delete t.catalog name tup;
    removed
  | None -> invalid_arg ("Engine.delete: unknown table " ^ name)

let load t rel =
  let name = R.Relation.name rel in
  Hashtbl.replace t.tables name rel;
  Catalog.register t.catalog name (R.Relation.schema rel);
  Catalog.refresh_stats t.catalog name rel

let table t name =
  match Hashtbl.find_opt t.tables name with Some r -> r | None -> raise Not_found

(* --- execution: plan with the enumerator, then run the chosen tree --- *)

let lookup t name =
  match Hashtbl.find_opt t.tables name with
  | Some r -> r
  | None -> invalid_arg ("Engine.execute: unknown table " ^ name)

let execute_explained t (q : Sql.select) =
  let lookup = lookup t in
  let plan = Qplan.plan t.catalog ~lookup q in
  let result, scanned, explain =
    Qplan.run t.catalog ~lookup ~counters:t.counters plan q
  in
  t.last_explain <- Some explain;
  (result, scanned, explain, plan)

let execute t q =
  let result, scanned, _, _ = execute_explained t q in
  (result, scanned)

(* The pre-enumerator FROM-order hash pipeline, kept as an executable
   baseline for experiments and plan-equivalence tests. *)
let execute_naive t q =
  let lookup = lookup t in
  let plan = Qplan.plan_naive t.catalog ~lookup q in
  let result, scanned, _ = Qplan.run t.catalog ~lookup plan q in
  (result, scanned)

let explain t q =
  let lookup = lookup t in
  let plan = Qplan.plan t.catalog ~lookup q in
  let _, _, explain = Qplan.run t.catalog ~lookup ~counters:t.counters plan q in
  t.last_explain <- Some explain;
  Printf.sprintf "plan: %s  (modeled cost %.2f ms)\n%s" (Qplan.plan_signature plan)
    (Qplan.modeled_cost plan)
    (Qplan.explain_to_string explain)
