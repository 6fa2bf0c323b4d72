module A = Braid_caql.Ast
module R = Braid_relalg
module Sub = Braid_subsume.Subsumption
module Rdi = Braid_remote.Rdi
module Sql = Braid_remote.Sql
module CMgr = Braid_cache.Cache_manager
module Cms = Braid.Cms
module Obs = Braid_obs

type stats = {
  mutable requests : int;
  mutable identical_hits : int;
  mutable subsumed_hits : int;
  mutable misses : int;
  mutable rounds : int;
}

let zero () = { requests = 0; identical_hits = 0; subsumed_hits = 0; misses = 0; rounds = 0 }

(* One in-flight fetch of the current wave, with whatever it produced —
   a failure included. [route] is where the sharded remote placed the
   fetch ([None] when unsharded). *)
type entry = {
  def : A.conj;
  sql_text : string;
  route : string option;
  outcome : Rdi.outcome;
}

type t = {
  exec : Sql.select -> Rdi.outcome;
  route_of : Sql.select -> string option;
  cache : CMgr.t;
  mutable window : entry list; (* oldest first: reuse prefers the earliest fetch *)
  mutable active : bool;
  stats : stats;
}

let create cms =
  {
    exec = Cms.exec_remote cms;
    route_of = Cms.route_signature cms;
    cache = Cms.cache cms;
    window = [];
    active = false;
    stats = zero ();
  }

let begin_round t =
  t.window <- [];
  t.active <- true;
  t.stats.rounds <- t.stats.rounds + 1

let end_round t =
  t.window <- [];
  t.active <- false

(* Derive the subsumed request's answer from an in-flight response: treat
   the entry as a transient cache element, rewrite the query onto it, and
   evaluate the compensating selection/projection locally. The entry's
   relation must carry one column per head term of its definition for the
   rewrite's occurrence to type-check. *)
let derive t cover (q : A.conj) rel =
  let rewritten = Sub.rewrite q cover in
  CMgr.eval t.cache ~extra:[ (cover.Sub.element_id, rel) ] (A.Conj rewritten)

let try_window t (q : A.conj) text route =
  let subsumes entry =
    (* Shard-aware reuse gate: a Stale in-flight response means some shard
       on ITS route degraded. Deriving from it is only faithful when the
       new request would have touched the same shards — a request pinned
       elsewhere (different route) would have come back Fresh, so it goes
       to the remote instead of inheriting staleness. Fresh entries are a
       true superset wherever they were fetched and reuse freely. A failure
       has no rows to derive from. *)
    let rel =
      match entry.outcome with
      | Rdi.Fresh rel -> Some rel
      | Rdi.Stale (rel, _) when entry.route = route -> Some rel
      | Rdi.Stale _ | Rdi.Failed _ -> None
    in
    match rel with
    | Some rel when R.Schema.arity (R.Relation.schema rel) = List.length entry.def.A.head ->
      (match Sub.full_cover { Sub.id = "__inflight"; def = entry.def } q with
       | Some cover -> Some (entry, cover, rel)
       | None -> None)
    | Some _ | None -> None
  in
  (* Identical reuse keys on (sql text, route): the route is a function of
     the text, so this equals the old text key when unsharded — but keeping
     the route in the key means a re-partitioned window (no such event
     today) could never alias two placements. *)
  match List.find_opt (fun e -> e.sql_text = text && e.route = route) t.window with
  | Some entry -> Some (`Identical entry.outcome)
  | None ->
    (match List.find_map subsumes t.window with
     | Some (entry, cover, rel) ->
       let derived = derive t cover q rel in
       (match entry.outcome with
        | Rdi.Fresh _ -> Some (`Subsumed (Rdi.Fresh derived))
        | Rdi.Stale (_, f) -> Some (`Subsumed (Rdi.Stale (derived, f)))
        | Rdi.Failed _ -> None)
     | None -> None)

let fetch t (def : A.conj) sql =
  if not t.active then t.exec sql
  else begin
    t.stats.requests <- t.stats.requests + 1;
    let text = Sql.to_string sql in
    let route = t.route_of sql in
    match try_window t def text route with
    | Some (`Identical outcome) ->
      t.stats.identical_hits <- t.stats.identical_hits + 1;
      Obs.Metrics.incr "serve.coalesce.identical";
      Obs.Trace.instant ~cat:"serve" "serve.coalesce"
        ~args:[ ("kind", Obs.Trace.Str "identical"); ("sql", Obs.Trace.Str text) ];
      outcome
    | Some (`Subsumed outcome) ->
      t.stats.subsumed_hits <- t.stats.subsumed_hits + 1;
      Obs.Metrics.incr "serve.coalesce.subsumed";
      Obs.Trace.instant ~cat:"serve" "serve.coalesce"
        ~args:[ ("kind", Obs.Trace.Str "subsumed"); ("sql", Obs.Trace.Str text) ];
      outcome
    | None ->
      t.stats.misses <- t.stats.misses + 1;
      Obs.Metrics.incr "serve.coalesce.miss";
      let outcome = t.exec sql in
      (* A semi-join-filtered request returns only a subset of its
         definition's extension: it must never seed the window, or a later
         unfiltered request could be answered from the subset. (Serving a
         filtered request FROM an unfiltered entry remains safe — the
         superset is cut down by the local join.) *)
      if not (Sql.has_semijoin sql) then
        t.window <- t.window @ [ { def; sql_text = text; route; outcome } ];
      outcome
  end

let stats t = { t.stats with requests = t.stats.requests }

let sum l =
  let acc = zero () in
  List.iter
    (fun s ->
      acc.requests <- acc.requests + s.requests;
      acc.identical_hits <- acc.identical_hits + s.identical_hits;
      acc.subsumed_hits <- acc.subsumed_hits + s.subsumed_hits;
      acc.misses <- acc.misses + s.misses;
      acc.rounds <- acc.rounds + s.rounds)
    l;
  acc
