module R = Braid_relalg
module A = Braid_caql.Ast

type snapshot =
  | Extension of R.Relation.t
  | Generator_def

type entry =
  | Admit of {
      seq : int;
      id : string;
      def : A.conj;
      snap : snapshot;
      stale : bool;
      pinned : bool;
      at : int;
      by : string;
    }
  | Materialize of { seq : int; id : string; rel : R.Relation.t; by : string }
  | Evict of { seq : int; id : string; pinned_fallback : bool; by : string }
  | Remove of { seq : int; id : string; pred : string; by : string }
  | Mark_stale of { seq : int; id : string; pred : string; by : string }
  | Pin of { seq : int; id : string; flag : bool; by : string }
  | Delta_insert of { seq : int; id : string; pred : string; rows : R.Tuple.t list; by : string }
  | Delta_delete of { seq : int; id : string; pred : string; rows : R.Tuple.t list; by : string }
  | Checkpoint of { seq : int; epoch : int }

type t = {
  mutable log : entry list; (* newest first, back to the last checkpoint *)
  mutable seq : int;
  mutable epoch : int;
  mutable count : int;
  mutable context : string; (* session id stamped on new entries; "" = none *)
  mutable counter : int; (* largest element id counter admitted before the cut *)
  mutable clock : int; (* largest admission clock before the cut *)
  mutable written : int; (* entries the last checkpoint wrote: marker + re-admits *)
}

let create () =
  { log = []; seq = 0; epoch = 0; count = 0; context = ""; counter = 0; clock = 0; written = 0 }

let set_context t sid = t.context <- sid
let context t = t.context

let push t entry =
  t.log <- entry :: t.log;
  t.count <- t.count + 1

let next_seq t =
  t.seq <- t.seq + 1;
  t.seq

let log_admit t ~id ~def ~snap ~stale ~pinned ~at =
  push t (Admit { seq = next_seq t; id; def; snap; stale; pinned; at; by = t.context })

let log_materialize t ~id ~rel =
  push t (Materialize { seq = next_seq t; id; rel; by = t.context })

let log_evict t ~id ~pinned_fallback =
  push t (Evict { seq = next_seq t; id; pinned_fallback; by = t.context })

let log_remove t ~id ~pred = push t (Remove { seq = next_seq t; id; pred; by = t.context })

let log_mark_stale t ~id ~pred =
  push t (Mark_stale { seq = next_seq t; id; pred; by = t.context })

let log_pin t ~id ~flag = push t (Pin { seq = next_seq t; id; flag; by = t.context })

let log_delta_insert t ~id ~pred ~rows =
  push t (Delta_insert { seq = next_seq t; id; pred; rows; by = t.context })

let log_delta_delete t ~id ~pred ~rows =
  push t (Delta_delete { seq = next_seq t; id; pred; rows; by = t.context })

(* The element ids the cache will mint next must not collide with any id
   the journal has ever seen, and its clock must not run back: recover both
   as the largest values over every admission, those a checkpoint cut away
   included. *)
let id_counter id =
  try Scanf.sscanf id "e%d%!" Fun.id with Scanf.Scan_failure _ | Failure _ | End_of_file -> 0

let max_admitted t =
  List.fold_left
    (fun ((counter, clock) as acc) -> function
      | Admit { id; at; _ } -> (max counter (id_counter id), max clock at)
      | Materialize _ | Evict _ | Remove _ | Mark_stale _ | Pin _ | Delta_insert _
      | Delta_delete _ | Checkpoint _ -> acc)
    (t.counter, t.clock) t.log

(* Replay starts from the latest checkpoint, whose re-admissions restore
   every live element, so everything before it is dead weight: drop it,
   keeping only the id counter and clock it held. *)
let log_checkpoint t ~live =
  let counter, clock = max_admitted t in
  t.counter <- counter;
  t.clock <- clock;
  t.log <- [];
  t.count <- 0;
  t.written <- 1 + live;
  t.epoch <- t.epoch + 1;
  push t (Checkpoint { seq = next_seq t; epoch = t.epoch });
  t.epoch

(* The self-checkpoint rule: the log may grow to twice what the last
   checkpoint wrote, and to at least 1,024 entries, before the next one
   rewrites it, so rewriting costs O(1) amortised per entry. *)
let compact_at t = max 1024 (2 * t.written)

let entries t = List.rev t.log
let tail t n = if n <= 0 then [] else List.rev (List.filteri (fun i _ -> i < n) t.log)
let length t = t.count
let epoch t = t.epoch


let entry_by = function
  | Admit { by; _ }
  | Materialize { by; _ }
  | Evict { by; _ }
  | Remove { by; _ }
  | Mark_stale { by; _ }
  | Pin { by; _ }
  | Delta_insert { by; _ }
  | Delta_delete { by; _ } -> by
  | Checkpoint _ -> ""

let by_suffix by = if by = "" then "" else Printf.sprintf " (by %s)" by

let entry_to_string = function
  | Admit { seq; id; def; snap; stale; pinned; at; by } ->
    Printf.sprintf "#%d admit %s := %s [%s%s%s, at=%d]%s" seq id (A.conj_to_string def)
      (match snap with
       | Extension r -> Printf.sprintf "extension, %d tuples" (R.Relation.cardinality r)
       | Generator_def -> "generator")
      (if stale then ", stale" else "")
      (if pinned then ", pinned" else "")
      at (by_suffix by)
  | Materialize { seq; id; rel; by } ->
    Printf.sprintf "#%d materialize %s (%d tuples)%s" seq id (R.Relation.cardinality rel)
      (by_suffix by)
  | Evict { seq; id; pinned_fallback; by } ->
    Printf.sprintf "#%d evict %s%s%s" seq id
      (if pinned_fallback then " (pinned fallback)" else "")
      (by_suffix by)
  | Remove { seq; id; pred; by } ->
    Printf.sprintf "#%d drop %s on %s%s" seq id pred (by_suffix by)
  | Mark_stale { seq; id; pred; by } ->
    Printf.sprintf "#%d stale %s on %s%s" seq id pred (by_suffix by)
  | Pin { seq; id; flag; by } ->
    Printf.sprintf "#%d pin %s %s%s" seq id (if flag then "on" else "off") (by_suffix by)
  | Delta_insert { seq; id; pred; rows; by } ->
    Printf.sprintf "#%d delta+ %s on %s (%d rows)%s" seq id pred (List.length rows)
      (by_suffix by)
  | Delta_delete { seq; id; pred; rows; by } ->
    Printf.sprintf "#%d delta- %s on %s (%d rows)%s" seq id pred (List.length rows)
      (by_suffix by)
  | Checkpoint { seq; epoch } -> Printf.sprintf "#%d checkpoint epoch=%d" seq epoch

let replay ~capacity_bytes ~rebuild_generator t =
  let model = Cache_model.create ~capacity_bytes in
  let apply = function
    | Admit { id; def; snap; stale; pinned; at; _ } ->
      let repr =
        match snap with
        | Extension r -> Element.Extension r
        | Generator_def -> Element.Generator (rebuild_generator def)
      in
      let e = Element.make ~id ~def ~now:at repr in
      e.Element.stale <- stale;
      e.Element.pinned <- pinned;
      e.Element.on_materialize <- (fun id rel -> log_materialize t ~id ~rel);
      Cache_model.add model e
    | Materialize { id; rel; _ } ->
      (match Cache_model.find model id with
       | Some e -> Element.set_extension e rel
       | None -> ())
    | Delta_insert { id; rows; _ } ->
      (match Cache_model.find model id with
       | Some e when Element.is_materialized e -> Element.insert_rows e rows
       | Some _ | None -> ())
    | Delta_delete { id; rows; _ } ->
      (match Cache_model.find model id with
       | Some e when Element.is_materialized e -> ignore (Element.delete_rows e rows)
       | Some _ | None -> ())
    | Evict { id; _ } | Remove { id; _ } -> Cache_model.remove model id
    | Mark_stale { id; _ } ->
      (match Cache_model.find model id with
       | Some e -> e.Element.stale <- true
       | None -> ())
    | Pin { id; flag; _ } ->
      (match Cache_model.find model id with
       | Some e -> e.Element.pinned <- flag
       | None -> ())
    | Checkpoint _ -> ()
  in
  List.iter apply (entries t);
  let counter, clock = max_admitted t in
  Cache_model.restore model ~counter ~clock:(clock + 1);
  model
