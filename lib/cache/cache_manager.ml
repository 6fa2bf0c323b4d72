module R = Braid_relalg
module A = Braid_caql.Ast
module Obs = Braid_obs

type stats = {
  mutable insertions : int;
  mutable evictions : int;
  mutable tuples_touched : int;
  mutable indexes_built : int;
  mutable stale_touches : int;
}

type t = {
  model : Cache_model.t;
  journal : Journal.t;
  stats : stats;
  mutable pin_epoch : int;  (* pin transitions since [create] *)
}

let create ?journal ?model ~capacity_bytes () =
  let journal = match journal with Some j -> j | None -> Journal.create () in
  let model =
    match model with Some m -> m | None -> Cache_model.create ~capacity_bytes
  in
  let stats =
    { insertions = 0; evictions = 0; tuples_touched = 0; indexes_built = 0; stale_touches = 0 }
  in
  { model; journal; stats; pin_epoch = 0 }

let model t = t.model
let journal t = t.journal

let snapshot_of = function
  | Element.Extension r -> Journal.Extension r
  | Element.Generator _ -> Journal.Generator_def

let journal_admit t (e : Element.t) =
  Journal.log_admit t.journal ~id:e.Element.id ~def:e.Element.def
    ~snap:(snapshot_of e.Element.repr) ~stale:e.Element.stale
    ~pinned:e.Element.pinned ~at:e.Element.created_at;
  (* The journal now holds this extension by reference: the next delta
     applied to the element must copy-on-write (see Element.delta_private). *)
  e.Element.delta_private <- false

(* A checkpoint is the marker followed by a full re-admission of the live
   state in insertion order, so it replaces the log before it.
   Representations are journaled as they are NOW — an element admitted lazy
   but since forced checkpoints as an extension. *)
let checkpoint t =
  let live = Cache_model.elements t.model in
  let epoch = Journal.log_checkpoint t.journal ~live:(List.length live) in
  List.iter (journal_admit t) live;
  epoch

(* The CMS checkpoints itself once the journal reaches [Journal.compact_at],
   and only between operations — never between a delta's log record and
   its apply — so the live state it re-admits is the one replay must
   rebuild. *)
let compact t =
  if Journal.length t.journal >= Journal.compact_at t.journal then ignore (checkpoint t)

let insert t ?id ~def repr =
  compact t;
  let id = match id with Some id -> id | None -> Cache_model.fresh_id t.model in
  let e = Element.make ~id ~def ~now:(Cache_model.tick t.model) repr in
  e.Element.on_materialize <-
    (fun id rel ->
      Obs.Metrics.incr "cache.materializations";
      Obs.Trace.instant ~cat:"cache" "cache.materialize"
        ~args:[ ("element", Obs.Trace.Str id) ];
      Journal.log_materialize t.journal ~id ~rel);
  let bytes = Element.bytes_estimate e in
  if bytes > Cache_model.capacity_bytes t.model then None
  else begin
    let evicted, used = Replacement.evict t.model ~needed_bytes:bytes () in
    List.iter
      (fun (vid, pinned_fallback) ->
        Obs.Metrics.incr "cache.evictions";
        Obs.Trace.instant ~cat:"cache" "cache.evict"
          ~args:
            [
              ("element", Obs.Trace.Str vid);
              ("pinned_fallback", Obs.Trace.Bool pinned_fallback);
            ];
        Journal.log_evict t.journal ~id:vid ~pinned_fallback)
      evicted;
    t.stats.evictions <- t.stats.evictions + List.length evicted;
    (* Even after evicting everything evictable the element may not fit
       (e.g. only pinned elements remain). *)
    if used + bytes > Cache_model.capacity_bytes t.model then None
    else begin
      Cache_model.add t.model e;
      journal_admit t e;
      t.stats.insertions <- t.stats.insertions + 1;
      Obs.Metrics.incr "cache.admissions";
      Obs.Trace.instant ~cat:"cache" "cache.admit"
        ~args:[ ("element", Obs.Trace.Str id); ("bytes", Obs.Trace.Int bytes) ];
      Some e
    end
  end

let find t id = Cache_model.find t.model id

let find_exact t def =
  Cache_model.find_variant t.model (Braid_subsume.Form.of_conj def)

let relevant_covers t q = Cache_model.covers t.model q

let stale_hook t n =
  t.stats.stale_touches <- t.stats.stale_touches + n;
  Obs.Metrics.incr ~by:n "cache.stale_touches"

let eval t ?extra q =
  Obs.Trace.with_span ~cat:"cache" "cache.eval" (fun () ->
      let result, touched =
        Query_processor.eval t.model ?extra ~stale_hook:(stale_hook t) q
      in
      t.stats.tuples_touched <- t.stats.tuples_touched + touched;
      Obs.Trace.add_arg "touched" (Obs.Trace.Int touched);
      Obs.Metrics.observe "cache.eval_touched" (float_of_int touched);
      result)

let eval_conj_lazy t c =
  Obs.Trace.instant ~cat:"cache" "cache.eval_lazy";
  Query_processor.eval_conj_lazy t.model ~stale_hook:(stale_hook t) c

let ensure_index t e cols =
  match Element.index_on e cols with
  | Some ix -> ix
  | None ->
    t.stats.indexes_built <- t.stats.indexes_built + 1;
    Element.ensure_index e cols

let pin t id flag =
  match Cache_model.find t.model id with
  | Some e ->
    (* Journal only actual transitions: the advisor re-pins its tracked
       elements on every query, which would otherwise flood the log. *)
    if e.Element.pinned <> flag then begin
      e.Element.pinned <- flag;
      t.pin_epoch <- t.pin_epoch + 1;
      Journal.log_pin t.journal ~id ~flag;
      compact t
    end
  | None -> ()

let pin_epoch t = t.pin_epoch

let invalidate_pred t pred =
  let victims =
    List.map (fun (e : Element.t) -> e.Element.id) (Cache_model.candidates_for_pred t.model pred)
  in
  List.iter
    (fun id ->
      Journal.log_remove t.journal ~id ~pred;
      Cache_model.remove t.model id)
    victims;
  if victims <> [] then begin
    Obs.Metrics.incr ~by:(List.length victims) "cache.invalidations";
    Obs.Trace.instant ~cat:"cache" "cache.invalidate"
      ~args:
        [
          ("pred", Obs.Trace.Str pred);
          ("elements", Obs.Trace.Int (List.length victims));
        ]
  end;
  victims

(* Degraded-mode invalidation: when the remote cannot be reached to refetch,
   dropping dependents would turn every later query into a hard miss against
   a down server. Keep them, marked stale, so they remain servable. *)
let mark_stale_pred t pred =
  List.filter_map
    (fun (e : Element.t) ->
      if e.Element.stale then None
      else begin
        e.Element.stale <- true;
        Journal.log_mark_stale t.journal ~id:e.Element.id ~pred;
        Some e.Element.id
      end)
    (Cache_model.candidates_for_pred t.model pred)

(* Per-element variants used by incremental maintenance when one dependent
   of a written predicate falls back while others are delta-maintained. *)
let mark_stale_element t (e : Element.t) ~pred =
  if not e.Element.stale then begin
    e.Element.stale <- true;
    Journal.log_mark_stale t.journal ~id:e.Element.id ~pred;
    Obs.Metrics.incr "cache.stale_marks"
  end

let remove_element t (e : Element.t) ~pred =
  Journal.log_remove t.journal ~id:e.Element.id ~pred;
  Cache_model.remove t.model e.Element.id;
  Obs.Metrics.incr "cache.invalidations"

let stats t = { t.stats with insertions = t.stats.insertions }
