module R = Braid_relalg
module TS = Braid_stream.Tuple_stream
module Obs = Braid_obs

type stats = {
  mutable requests : int;
  mutable tuples_returned : int;
  mutable tuples_scanned : int;
  mutable server_ms : float;
  mutable comm_ms : float;
  mutable faults_injected : int;
  mutable injected_ms : float;
}

let zero () =
  {
    requests = 0;
    tuples_returned = 0;
    tuples_scanned = 0;
    server_ms = 0.0;
    comm_ms = 0.0;
    faults_injected = 0;
    injected_ms = 0.0;
  }

type t = {
  engine : Engine.t;
  cost : Cost_model.t;
  stats : stats;
  mutable faults : Fault.t option;
}

let create ?(cost = Cost_model.default) () =
  { engine = Engine.create (); cost; stats = zero (); faults = None }

let engine t = t.engine
let catalog t = Engine.catalog t.engine
let cost_model t = t.cost

let set_faults t = function
  | None -> t.faults <- None
  | Some config -> t.faults <- Some (Fault.create config)

let fault_config t = Option.map Fault.config t.faults

(* One reachability heartbeat against this server's injector: advances the
   shared fault clock (a probe is itself a request). Always true without
   an injector — an unfaulted server cannot be partitioned. *)
let reachable t = match t.faults with None -> true | Some inj -> Fault.probe inj

let partitioned t =
  match t.faults with None -> false | Some inj -> Fault.partitioned inj

let charge_request t ~scanned =
  let s = t.stats in
  s.requests <- s.requests + 1;
  s.tuples_scanned <- s.tuples_scanned + scanned;
  s.server_ms <- s.server_ms +. (t.cost.Cost_model.server_scan_ms *. float_of_int scanned);
  s.comm_ms <- s.comm_ms +. t.cost.Cost_model.request_overhead_ms

let charge_transfer t n =
  let s = t.stats in
  s.tuples_returned <- s.tuples_returned + n;
  s.comm_ms <- s.comm_ms +. (t.cost.Cost_model.transfer_tuple_ms *. float_of_int n)

(* A failed request still costs the caller a round trip: charge the request
   overhead plus the time wasted waiting, tag the span, and raise. *)
let fail_request t kind ~wasted_ms =
  let s = t.stats in
  s.requests <- s.requests + 1;
  s.faults_injected <- s.faults_injected + 1;
  s.comm_ms <- s.comm_ms +. t.cost.Cost_model.request_overhead_ms +. wasted_ms;
  s.injected_ms <- s.injected_ms +. wasted_ms;
  Obs.Metrics.incr "remote.faults";
  Obs.Trace.add_arg "fault" (Obs.Trace.Str (Fault.kind_to_string kind));
  raise (Fault.Injected kind)

(* Roll the injector for one request; the extra network latency to charge,
   or an injected error. *)
let injected_latency t q =
  match t.faults with
  | None -> 0.0
  | Some inj ->
    let tables = List.map (fun (s : Sql.source) -> s.Sql.table) q.Sql.from in
    (match Fault.roll inj ~tables with
     | Error kind -> fail_request t kind ~wasted_ms:0.0
     | Ok latency_ms ->
       t.stats.injected_ms <- t.stats.injected_ms +. latency_ms;
       latency_ms)

let exec t ?deadline_ms q =
  Obs.Trace.with_span ~cat:"remote" "remote.exec"
    ~args:(if Obs.Trace.enabled () then [ ("sql", Obs.Trace.Str (Sql.to_string q)) ] else [])
    (fun () ->
      let sim_before = t.stats.server_ms +. t.stats.comm_ms in
      Obs.Metrics.incr "remote.requests";
      let latency_ms = injected_latency t q in
      let result, scanned, _, plan = Engine.execute_explained t.engine q in
      let returned = R.Relation.cardinality result in
      (* the chosen plan, so traces show how the enumerator answered *)
      if Obs.Trace.enabled () then begin
        Obs.Trace.add_arg "plan" (Obs.Trace.Str (Qplan.plan_signature plan));
        Obs.Trace.add_arg "plan_cost_ms" (Obs.Trace.Float (Qplan.modeled_cost plan))
      end;
      (match deadline_ms with
       | Some d
         when latency_ms
              +. Cost_model.remote_query_cost t.cost ~scanned ~returned
              > d ->
         (* The reply cannot arrive in time: the caller waits out the deadline
            and gives up. The already-charged latency stays; the wasted wait is
            the deadline minus the overhead charged by [fail_request]. *)
         t.stats.injected_ms <- t.stats.injected_ms -. latency_ms;
         fail_request t Fault.Timeout
           ~wasted_ms:(Float.max 0.0 (d -. t.cost.Cost_model.request_overhead_ms))
       | Some _ | None -> ());
      charge_request t ~scanned;
      t.stats.comm_ms <- t.stats.comm_ms +. latency_ms;
      charge_transfer t returned;
      (* Simulated-ms attribution: what this request added to the server and
         communication clocks, recorded on the span and in the registry. *)
      let sim_ms = t.stats.server_ms +. t.stats.comm_ms -. sim_before in
      Obs.Trace.add_arg "scanned" (Obs.Trace.Int scanned);
      Obs.Trace.add_arg "returned" (Obs.Trace.Int returned);
      Obs.Trace.add_arg "sim_ms" (Obs.Trace.Float sim_ms);
      Obs.Metrics.observe "remote.request_ms" sim_ms;
      result)

let open_cursor t ?(block_size = 32) q =
  let latency_ms = injected_latency t q in
  let result, scanned = Engine.execute t.engine q in
  charge_request t ~scanned;
  t.stats.comm_ms <- t.stats.comm_ms +. latency_ms;
  let base = TS.of_relation result in
  (* Wrap the raw result so every pulled tuple is charged to transfer;
     buffering then makes the charge advance block-wise. *)
  let c = TS.cursor base in
  let charged =
    TS.from (R.Relation.schema result) (fun () ->
        match TS.next c with
        | Some tup ->
          charge_transfer t 1;
          Some tup
        | None -> None)
  in
  TS.buffered block_size charged

let stats t = { t.stats with requests = t.stats.requests }

let sum l =
  let acc = zero () in
  List.iter
    (fun s ->
      acc.requests <- acc.requests + s.requests;
      acc.tuples_returned <- acc.tuples_returned + s.tuples_returned;
      acc.tuples_scanned <- acc.tuples_scanned + s.tuples_scanned;
      acc.server_ms <- acc.server_ms +. s.server_ms;
      acc.comm_ms <- acc.comm_ms +. s.comm_ms;
      acc.faults_injected <- acc.faults_injected + s.faults_injected;
      acc.injected_ms <- acc.injected_ms +. s.injected_ms)
    l;
  acc
