(* E14: serving-layer scale — throughput and coalesce rate vs session
   count. The same seeded overlapping-view workload (Braid_serve.Workload)
   is run through the deterministic scheduler at 1/2/4/8 sessions over one
   shared CMS; more sessions per wave mean more identical
   in-flight fetches for the coalescer to merge and more pressure on the
   admission controller. Crash injection is off: this measures the serving
   layer, the crash path is the serve soak's job. *)

type row = {
  sessions : int;
  submitted : int;
  answered : int;
  shed : int;
  coalesce_identical : int;
  remote_requests : int;
  elapsed_ms : float;
  qps : float;  (** answered queries per simulated second *)
}

(* The multi-session CI leg at [sessions], with the crash off. *)
let run_one ~seed ~waves sessions =
  let module Soak = Braid_serve.Soak in
  let leg = List.assoc "multi-session" Soak.legs in
  let r = Soak.run { leg with sessions; faults = Soak.Flaky } ~seed ~waves in
  {
    sessions;
    submitted = r.Soak.submitted;
    answered = r.Soak.answered;
    shed = r.Soak.shed;
    coalesce_identical = r.Soak.coalesce.Braid_serve.Coalescer.identical_hits;
    remote_requests = r.Soak.remote_requests;
    elapsed_ms = r.Soak.elapsed_ms;
    qps =
      (if r.Soak.elapsed_ms <= 0.0 then 0.0
       else 1000.0 *. float_of_int r.Soak.answered /. r.Soak.elapsed_ms);
  }

let run ?(seed = 5) ?(waves = 250) () =
  let rows_data = List.map (run_one ~seed ~waves) [ 1; 2; 4; 8 ] in
  let rows =
    List.map
      (fun r ->
        [
          Table.Int r.sessions;
          Table.Int r.submitted;
          Table.Int r.answered;
          Table.Int r.shed;
          Table.Int r.coalesce_identical;
          Table.Int r.remote_requests;
          Table.Float r.elapsed_ms;
          Table.Text (Printf.sprintf "%.1f" r.qps);
        ])
      rows_data
  in
  let table =
    Table.make
      ~title:
        (Printf.sprintf
           "E14  serving-layer scale — %d waves of the overlapping-view workload, \
            deterministic scheduler + admission control + fetch coalescing"
           waves)
      ~columns:
        [
          "sessions";
          "submitted";
          "answered";
          "shed";
          "coalesced";
          "rdi requests";
          "elapsed";
          "q/s (sim)";
        ]
      ~notes:
        [
          "coalesced: in-flight remote fetches absorbed by an identical fetch \
           issued earlier in the same wave — K sessions asking the same view \
           cost one remote round trip";
          "shed: submissions bounced by the admission controller (bounded run \
           queue, per-session cap) and degraded to a cache-only answer";
          "deterministic: workload, faults, scheduling rotation and jitter all \
           derive from the seed, so this table is byte-identical across runs";
        ]
      rows
  in
  (rows_data, table)
