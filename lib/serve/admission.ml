module A = Braid_caql.Ast
module Sub = Braid_subsume.Subsumption
module Form = Braid_subsume.Form
module CMgr = Braid_cache.Cache_manager
module Elem = Braid_cache.Element
module Qpo = Braid_planner.Qpo
module Plan = Braid_planner.Plan
module TS = Braid_stream.Tuple_stream

type policy = { max_queue : int; per_session_queue : int }

let default_policy = { max_queue = 32; per_session_queue = 4 }

type decision = Admit | Shed_queue_full | Shed_session_cap

let decide policy ~total_queued ~session_queued =
  if total_queued >= policy.max_queue then Shed_queue_full
  else if session_queued >= policy.per_session_queue then Shed_session_cap
  else Admit

let decision_to_string = function
  | Admit -> "admit"
  | Shed_queue_full -> "shed (run queue full)"
  | Shed_session_cap -> "shed (session cap)"

let cached_only cache (q : A.conj) =
  let qkey = Form.of_conj q in
  let all = List.length q.A.atoms in
  (* the first element with a full cover, and its first full cover *)
  let full =
    List.find_opt
      (fun (_, (c : Sub.cover)) -> List.length c.Sub.covered = all)
      (CMgr.relevant_covers cache qkey)
  in
  match full with
  | None -> None
  | Some (e, cover) ->
    let stale_before = (CMgr.stats cache).CMgr.stale_touches in
    let rel =
      CMgr.eval cache (A.Conj (Sub.rewrite q [ (cover.Sub.covered, cover.Sub.replacement) ]))
    in
    let stale_delta = (CMgr.stats cache).CMgr.stale_touches - stale_before in
    (* Degraded whenever the covering element is stale-marked, not merely
       when stale tuples were read: a stale element whose selection happens
       to match nothing must not pass off possibly-outdated emptiness as a
       fresh answer. *)
    let stale = e.Elem.stale || stale_delta > 0 in
    let step =
      if Form.same e.Elem.inst qkey then
        Plan.Exact_hit { element = e.Elem.id }
      else Plan.Use_element { element = e.Elem.id; covered_atoms = cover.Sub.covered }
    in
    let plan =
      step :: (if stale then [ Plan.Stale_elements { touched = stale_delta } ] else [])
    in
    Some
      {
        Qpo.stream = TS.of_relation rel;
        plan;
        provenance = (if stale then Plan.Degraded else Plan.Fresh);
        spec_id = None;
      }
