(* E18: incremental view maintenance — Fresh-from-cache ratio vs write
   rate, delta maintenance on vs stale-marking off.

   The same seeded single-tuple write stream (inserts and deletes, through
   the CMS write path) is applied at increasing per-round rates against a
   warmed cache of four PSJ elements:

   - a selection+projection of b1 (delta-maintainable for b1 writes),
   - all of b2 (the identity element — maintainable, and the join's
     other-side source),
   - b2 ⋈ b3 (maintainable for b3 writes by semi-joining the delta
     against the cached b2; falls back for b2 writes — the other side,
     b3, has no covering Fresh element),
   - a selection of b3 (maintainable for b3 writes).

   After each write round the whole family is re-queried. With
   maintenance off every write invalidates its dependents (inserts
   stale-mark, deletes drop — see docs/CONSISTENCY.md), so the re-query
   goes back to the remote; with maintenance on the maintainable
   elements absorbed the delta and answer Fresh straight from the cache.
   Every answer — maintained or refetched — is diffed against fault-free
   ground truth by the consistency oracle; the gate requires zero
   mismatches and a strictly higher Fresh-from-cache ratio with
   maintenance on at the highest write rate.

   The recovery scenario replays the crash story mid-delta: writes land
   deltas in the journal, a checkpoint interposes (dropping them with the
   log before it), more deltas follow, then the journal is replayed into a
   fresh CMS which must rebuild a byte-identical cache model (the WAL's
   copy-on-first-delta discipline).

   Deterministic: fixed seeds, simulated cost model, no wall-clock. *)

module L = Braid_logic
module T = L.Term
module R = Braid_relalg
module V = R.Value
module A = Braid_caql.Ast
module Qpo = Braid_planner.Qpo
module Plan = Braid_planner.Plan
module TS = Braid_stream.Tuple_stream
module Server = Braid_remote.Server
module Prng = Braid_prng.Prng
module Cms = Braid.Cms
module CMgr = Braid_cache.Cache_manager
module Oracle = Braid_check.Oracle

type row = {
  iv_mode : string;  (** "maintain" | "stale-mark" *)
  iv_rate : int;  (** writes per round *)
  iv_inserts : int;
  iv_deletes : int;
  iv_queries : int;
  iv_cache_fresh : int;  (** answered Fresh with no remote refetch *)
  iv_refetches : int;  (** RDI requests issued by the query phase *)
  iv_maintained : int;  (** elements kept Fresh by delta propagation *)
  iv_fallbacks : int;  (** dependents that fell back to stale-mark/drop *)
  iv_oracle_mismatches : int;
}

type recovery = {
  rc_deltas : int;  (** delta entries in the journal at crash *)
  rc_epoch : int;  (** checkpoint epoch the replay starts from *)
  rc_elements : int;  (** live elements when the crash hit *)
  rc_replayed : int;
  rc_byte_identical : bool;
  rc_mismatch : string option;
}

let v x = T.Var x
let s x = T.Const (V.Str x)
let atom p args = L.Atom.make p args

let size = 40

(* The query family the cache is warmed with (see the header comment). *)
let family =
  [
    A.conj [ v "Y" ] [ atom "b1" [ s "c1"; v "Y" ] ];
    A.conj [ v "X"; v "Z" ] [ atom "b2" [ v "X"; v "Z" ] ];
    A.conj [ v "X"; v "Z" ]
      [ atom "b2" [ v "X"; v "Z" ]; atom "b3" [ v "Z"; s "c2"; v "Y" ] ];
    A.conj [ v "Z" ] [ atom "b3" [ v "Z"; s "c2"; s "y1" ] ];
  ]

(* Same value pools as the serving workload: writes land inside the
   cached selections often enough for deltas to be non-trivial. Deletes
   draw from the rows this stream inserted, so every delete names a row
   the remote really holds. *)
let gen_write prng inserted cms =
  if !inserted <> [] && Prng.bool prng 0.3 then begin
    let rows = !inserted in
    let i = Prng.int prng (List.length rows) in
    let table, tup = List.nth rows i in
    inserted := List.filteri (fun j _ -> j <> i) rows;
    ignore (Cms.apply_delete cms table tup);
    `Delete
  end
  else begin
    let zi = Printf.sprintf "z%d" (Prng.int prng size) in
    let yi = Printf.sprintf "y%d" (Prng.int prng 6) in
    let table, tup =
      match Prng.int prng 3 with
      | 0 -> ("b1", [| V.Str "c1"; V.Str yi |])
      | 1 -> ("b2", [| V.Str (Printf.sprintf "x%d" (Prng.int prng 4)); V.Str zi |])
      | _ ->
        ("b3",
         [| V.Str zi; V.Str (if Prng.bool prng 0.5 then "c2" else "c3"); V.Str yi |])
    in
    Cms.apply_insert cms table tup;
    inserted := (table, tup) :: !inserted;
    `Insert
  end

let eager = { Qpo.braid_config with Qpo.allow_lazy = false }

let make_cms ~maintain =
  let server = Server.create () in
  List.iter
    (Braid_remote.Engine.load (Server.engine server))
    (Braid_workload.Datagen.paper_example ~size ());
  let cms = Cms.create ~config:eager ~maintain server in
  (server, cms)

let run_mode ~seed ~rounds ~rate maintain =
  let server, cms = make_cms ~maintain in
  let oracle = Oracle.create server in
  let prng = Prng.create (seed + (31 * rate) + if maintain then 1 else 0) in
  let inserted = ref [] in
  let mismatches = ref 0 in
  let queries = ref 0
  and cache_fresh = ref 0
  and refetches = ref 0
  and inserts = ref 0
  and deletes = ref 0 in
  let ask q =
    incr queries;
    let before = (Cms.rdi_stats cms).Braid_remote.Rdi.requests in
    let a = Cms.query cms q in
    let rel = TS.to_relation a.Qpo.stream in
    let after = (Cms.rdi_stats cms).Braid_remote.Rdi.requests in
    refetches := !refetches + (after - before);
    if after = before && a.Qpo.provenance = Plan.Fresh then incr cache_fresh;
    match Oracle.check_answer oracle q a.Qpo.provenance rel with
    | None -> ()
    | Some _ -> incr mismatches
  in
  (* Warm the cache: every family member fetched and admitted. *)
  List.iter ask family;
  queries := 0;
  cache_fresh := 0;
  refetches := 0;
  Cms.reset_delta_totals cms;
  for _ = 1 to rounds do
    for _ = 1 to rate do
      match gen_write prng inserted cms with
      | `Insert -> incr inserts
      | `Delete -> incr deletes
    done;
    List.iter ask family
  done;
  let d = Cms.delta_totals cms in
  {
    iv_mode = (if maintain then "maintain" else "stale-mark");
    iv_rate = rate;
    iv_inserts = !inserts;
    iv_deletes = !deletes;
    iv_queries = !queries;
    iv_cache_fresh = !cache_fresh;
    iv_refetches = !refetches;
    iv_maintained = d.Braid_cache.Maintain.maintained;
    iv_fallbacks = d.Braid_cache.Maintain.fallbacks;
    iv_oracle_mismatches = !mismatches;
  }

(* Crash mid-delta: deltas land before and after a checkpoint, then the
   journal is replayed into a fresh CMS over the surviving server. The
   checkpoint dropped the earlier deltas, so the journal holds only the
   later ones. The recovered cache model must be byte-identical to the dead
   one — the replay applies the same copy-on-first-delta rule the live path
   did. *)
let run_recovery ~seed =
  let server, cms = make_cms ~maintain:true in
  let oracle = Oracle.create server in
  let prng = Prng.create (seed + 977) in
  let inserted = ref [] in
  List.iter
    (fun q -> ignore (TS.to_relation (Cms.query cms q).Qpo.stream))
    family;
  for _ = 1 to 6 do
    ignore (gen_write prng inserted cms)
  done;
  ignore (Cms.checkpoint cms);
  for _ = 1 to 6 do
    ignore (gen_write prng inserted cms)
  done;
  let journal = Cms.journal cms in
  let deltas =
    List.length
      (List.filter
         (fun e ->
           match e with
           | Braid_cache.Journal.Delta_insert _ | Braid_cache.Journal.Delta_delete _ ->
             true
           | _ -> false)
         (Braid_cache.Journal.entries journal))
  in
  let dead_model = CMgr.model (Cms.cache cms) in
  let elements = List.length (Braid_cache.Cache_model.elements dead_model) in
  let recovered, rep =
    Cms.recover ~config:eager ~maintain:true
      ~validate:(Oracle.revalidate oracle) ~journal server
  in
  let mismatch =
    match Oracle.same_state dead_model (CMgr.model (Cms.cache recovered)) with
    | Ok () -> None
    | Error msg -> Some msg
  in
  {
    rc_deltas = deltas;
    rc_epoch = rep.Cms.epoch;
    rc_elements = elements;
    rc_replayed = rep.Cms.replayed;
    rc_byte_identical = mismatch = None;
    rc_mismatch = mismatch;
  }

let run ?(seed = 3) ?(rounds = 12) () =
  let rates = [ 0; 1; 2; 4 ] in
  let rows =
    List.concat_map
      (fun rate ->
        [
          run_mode ~seed ~rounds ~rate false;
          run_mode ~seed ~rounds ~rate true;
        ])
      rates
  in
  let recovery = run_recovery ~seed in
  let cells r =
    [
      Table.Text r.iv_mode;
      Table.Int r.iv_rate;
      Table.Int r.iv_inserts;
      Table.Int r.iv_deletes;
      Table.Text (Printf.sprintf "%d/%d" r.iv_cache_fresh r.iv_queries);
      Table.Int r.iv_refetches;
      Table.Int r.iv_maintained;
      Table.Int r.iv_fallbacks;
      Table.Int r.iv_oracle_mismatches;
    ]
  in
  let table =
    Table.make
      ~title:
        "E18  incremental view maintenance — Fresh-from-cache ratio vs write \
         rate, delta propagation on vs stale-marking off (oracle-checked)"
      ~columns:
        [
          "mode";
          "rate";
          "ins";
          "del";
          "fresh/queries";
          "refetches";
          "maintained";
          "fallbacks";
          "oracle✗";
        ]
      ~notes:
        [
          "four warmed PSJ elements re-queried after every write round; \
           'fresh/queries' counts answers served Fresh straight from the \
           cache (no RDI request)";
          "stale-mark mode: every insert stale-marks dependents, every \
           delete drops them (a stale element is only an honest subset \
           under insert-only writes), so re-queries refetch";
          "maintain mode: selections filter the delta, projections rewrite \
           it, the join semi-joins it against the cached other side; the \
           b2-side of the join has no covering element and falls back — \
           the decision table in docs/CONSISTENCY.md";
          Printf.sprintf
            "crash mid-delta: %d journaled deltas after a checkpoint \
             (epoch %d); replay rebuilt %d/%d elements %s"
            recovery.rc_deltas recovery.rc_epoch recovery.rc_replayed
            recovery.rc_elements
            (if recovery.rc_byte_identical then "byte-identically"
             else "with a MISMATCH");
        ]
      (List.map cells rows)
  in
  ((rows, recovery), table)
