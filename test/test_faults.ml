(* Fault injection and the resilient Remote DBMS Interface: determinism,
   backoff bounds, breaker transitions, degrade-to-cache, and the
   availability guarantee the CI bench gate relies on. *)

module R = Braid_relalg
module V = R.Value
module L = Braid_logic
module T = L.Term
module A = Braid_caql.Ast
module TS = Braid_stream.Tuple_stream
module Sql = Braid_remote.Sql
module Server = Braid_remote.Server
module Fault = Braid_remote.Fault
module Rdi = Braid_remote.Rdi
module Qpo = Braid_planner.Qpo
module Plan = Braid_planner.Plan
module CMgr = Braid_cache.Cache_manager
module Trace = Braid_obs.Trace

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let v x = T.Var x
let s x = T.Const (V.Str x)
let atom p args = L.Atom.make p args

let load_server () =
  let server = Server.create () in
  List.iter
    (Braid_remote.Engine.load (Server.engine server))
    (Braid_workload.Datagen.paper_example ~size:60 ());
  server

let all_b2 = Sql.select_all "b2"
let all_b3 = Sql.select_all "b3"

let always_fail = { Fault.none with Fault.error_rate = 1.0; seed = 3 }

(* The RDI's event record is the span tracer: run [f] under a fresh one
   and return both. *)
let with_tracer f =
  let tr = Trace.create () in
  Trace.install tr;
  let x = Fun.protect ~finally:Trace.uninstall f in
  (x, tr)

(* --- the injector: bit-identical schedules from a seed --- *)

let test_injector_determinism () =
  let cfg = Fault.flaky ~seed:17 ~error_rate:0.4 () in
  let a = Fault.create cfg and b = Fault.create cfg in
  for i = 1 to 50 do
    let ra = Fault.roll a ~tables:[ "b2" ] and rb = Fault.roll b ~tables:[ "b2" ] in
    check_bool (Printf.sprintf "roll %d identical" i) true (ra = rb)
  done

let test_injector_aligned_draws () =
  (* Exactly four draws per roll: after any prefix, two injectors sharing a
     seed stay in lockstep even if one saw different table lists. *)
  let cfg = Fault.flaky ~seed:23 ~error_rate:0.3 () in
  let a = Fault.create cfg and b = Fault.create cfg in
  for _ = 1 to 10 do
    ignore (Fault.roll a ~tables:[ "b2" ]);
    ignore (Fault.roll b ~tables:[ "b3"; "b2" ])
  done;
  check_bool "still aligned" true
    (Fault.roll a ~tables:[ "b1" ] = Fault.roll b ~tables:[ "b1" ])

(* --- partitions: fail-fast, deterministic healing, shared clock --- *)

let test_partition_fails_fast_then_heals () =
  (* A solo injector (no shared clock) heals on its own rolls: with
     [heal_after = 6], rolls 1..5 fail fast with [Partition] and roll 6
     onward is clean — and two injectors from the same config agree
     bit-for-bit on the whole schedule. *)
  let cfg = Fault.severed ~seed:29 ~heal_after:6 () in
  let a = Fault.create cfg and b = Fault.create cfg in
  for i = 1 to 12 do
    let ra = Fault.roll a ~tables:[ "b2" ] in
    check_bool
      (Printf.sprintf "roll %d identical" i)
      true
      (ra = Fault.roll b ~tables:[ "b2" ]);
    match ra with
    | Error Fault.Partition ->
      check_bool (Printf.sprintf "roll %d severed only before healing" i) true (i < 6)
    | Error k -> Alcotest.failf "severed link injected %s" (Fault.kind_to_string k)
    | Ok _ -> check_bool (Printf.sprintf "roll %d clean only after healing" i) true (i >= 6)
  done

let test_partition_heals_on_shared_clock () =
  let clk = Fault.clock () in
  let sick =
    Fault.create
      { (Fault.severed ~seed:31 ~heal_after:4 ()) with Fault.clock = Some clk }
  in
  let healthy = Fault.create { Fault.none with Fault.clock = Some clk } in
  (* [partitioned] is passive: watching the link never advances the clock,
     so health displays cannot heal a partition by themselves. *)
  for _ = 1 to 10 do
    check_bool "severed while the system is idle" true (Fault.partitioned sick)
  done;
  check_int "watching spends no requests" 0 (Fault.ticks clk);
  (* Traffic routed AWAY from the sick target still heals it: any wired
     injector's rolls advance the shared clock. *)
  for i = 1 to 4 do
    check_bool (Printf.sprintf "still severed before request %d" i) true
      (Fault.partitioned sick);
    ignore (Fault.roll healthy ~tables:[ "b2" ])
  done;
  check_int "four system-wide requests" 4 (Fault.ticks clk);
  check_bool "healed on system-wide progress" true (not (Fault.partitioned sick));
  (* A reachability probe is itself a request: it ticks the clock too. *)
  ignore (Fault.probe healthy);
  check_int "probe ticked the clock" 5 (Fault.ticks clk);
  match Fault.roll sick ~tables:[ "b2" ] with
  | Ok _ -> ()
  | Error k -> Alcotest.failf "healed link injected %s" (Fault.kind_to_string k)

(* --- request budget: a whole-request ceiling on retries + backoff --- *)

let run_budget_sequence budget =
  let server = load_server () in
  Server.set_faults server (Some always_fail);
  let rdi =
    Rdi.create
      ~policy:
        {
          Rdi.default_policy with
          Rdi.seed = 9;
          request_budget_ms = budget;
          breaker_threshold = 100;
        }
      server
  in
  for _ = 1 to 5 do
    ignore (Rdi.exec rdi all_b2)
  done;
  Rdi.stats rdi

let test_request_budget_stops_spend () =
  let free = run_budget_sequence None in
  let capped = run_budget_sequence (Some 60.0) in
  (* Unbudgeted, every request retries to exhaustion: 1 + max_retries
     attempts each. The 60 ms budget cannot survive the second backoff
     (25 ms then 50 ms base, both + jitter), so every budgeted request
     stops early and is counted as a request-level deadline miss. *)
  check_int "unbudgeted run retries to exhaustion" 20 free.Rdi.attempts;
  check_int "no deadline misses without a budget" 0 free.Rdi.deadline_misses;
  check_bool "budget cuts attempts" true (capped.Rdi.attempts < free.Rdi.attempts);
  check_bool "budget cuts retries" true (capped.Rdi.retries < free.Rdi.retries);
  check_int "every budget stop is a deadline miss" 5 capped.Rdi.deadline_misses;
  check_int "budgeted requests still end in failures" free.Rdi.failures
    capped.Rdi.failures

(* --- RDI determinism: same seeds => byte-identical retry/trip trace --- *)

let run_sequence () =
  let server = load_server () in
  Server.set_faults server (Some (Fault.flaky ~seed:11 ~error_rate:0.5 ()));
  let rdi = Rdi.create ~policy:{ Rdi.default_policy with Rdi.seed = 7 } server in
  let (), tr =
    with_tracer (fun () ->
        for i = 0 to 19 do
          ignore (Rdi.exec rdi (if i mod 2 = 0 then all_b2 else all_b3))
        done)
  in
  (tr, Rdi.stats rdi)

let count_named tr name =
  List.length (List.filter (fun (s : Trace.span) -> s.Trace.name = name) (Trace.spans tr))

(* Every span argument — SQL, faults, backoff delays, simulated ms — must
   repeat, not just the event sequence. *)
let test_rdi_determinism () =
  let tr1, stats1 = run_sequence () in
  let tr2, stats2 = run_sequence () in
  check_string "byte-identical JSONL trace" (Trace.to_jsonl tr1) (Trace.to_jsonl tr2);
  check_bool "identical stats" true (stats1 = stats2);
  check_int "one rdi.exec per request" 20 (count_named tr1 "rdi.exec");
  check_bool "trace has retries" true (count_named tr1 "rdi.retry" > 0)

(* --- backoff: each delay within [base*mult^k, base*mult^k*(1+jitter)] --- *)

let test_backoff_bounds () =
  let server = load_server () in
  Server.set_faults server (Some always_fail);
  let policy =
    {
      Rdi.default_policy with
      Rdi.max_retries = 3;
      backoff_base_ms = 25.0;
      backoff_multiplier = 2.0;
      backoff_jitter = 0.25;
      breaker_threshold = 100;
      seed = 9;
    }
  in
  let rdi = Rdi.create ~policy server in
  let outcome, tr = with_tracer (fun () -> Rdi.exec rdi all_b2) in
  (match outcome with
   | Rdi.Failed (Rdi.Remote_fault _) -> ()
   | Rdi.Failed _ | Rdi.Fresh _ | Rdi.Stale _ ->
     Alcotest.fail "expected the request to fail through its retries");
  let backoffs =
    List.filter_map
      (fun (sp : Trace.span) ->
        let arg key = List.assoc_opt key sp.Trace.args in
        match (sp.Trace.name, arg "backoff_ms", arg "try") with
        | "rdi.retry", Some (Trace.Float d), Some (Trace.Int k) -> Some (d, k)
        | _ -> None)
      (Trace.spans tr)
  in
  check_int "one backoff per retry" 3 (List.length backoffs);
  List.iter
    (fun (d, k) ->
      let base = 25.0 *. (2.0 ** float_of_int k) in
      check_bool (Printf.sprintf "delay %.1f >= %.1f" d base) true (d >= base -. 0.05);
      check_bool
        (Printf.sprintf "delay %.1f <= %.1f" d (base *. 1.25))
        true
        (d <= (base *. 1.25) +. 0.05))
    backoffs;
  let st = Rdi.stats rdi in
  check_int "retries counted" 3 st.Rdi.retries;
  check_bool "backoff charged" true (st.Rdi.backoff_ms > 0.0)

(* --- breaker: closed -> open -> fast-fail -> half-open -> close --- *)

let test_breaker_transitions () =
  let server = load_server () in
  Server.set_faults server (Some always_fail);
  let policy =
    {
      Rdi.default_policy with
      Rdi.max_retries = 0;
      breaker_threshold = 3;
      breaker_cooldown = 2;
      seed = 5;
    }
  in
  let rdi = Rdi.create ~policy server in
  let fail_req () = ignore (Rdi.exec rdi all_b2) in
  fail_req ();
  fail_req ();
  check_bool "still closed below threshold" true (Rdi.breaker rdi = Rdi.Closed);
  fail_req ();
  check_bool "tripped at threshold" true (Rdi.breaker rdi = Rdi.Open);
  check_int "one trip" 1 (Rdi.stats rdi).Rdi.trips;
  (* cooldown: the next two requests never touch the server *)
  let attempts_before = (Rdi.stats rdi).Rdi.attempts in
  fail_req ();
  fail_req ();
  check_int "fast-failed without attempts" attempts_before (Rdi.stats rdi).Rdi.attempts;
  check_int "two fast fails" 2 (Rdi.stats rdi).Rdi.fast_fails;
  (* cooldown over: a half-open probe that fails reopens the breaker *)
  fail_req ();
  check_int "one probe" 1 (Rdi.stats rdi).Rdi.half_open_probes;
  check_bool "reopened after failed probe" true (Rdi.breaker rdi = Rdi.Open);
  (* drain the new cooldown, heal the server, probe again: closes *)
  fail_req ();
  fail_req ();
  Server.set_faults server None;
  (match Rdi.exec rdi all_b2 with
   | Rdi.Fresh _ -> ()
   | Rdi.Stale _ | Rdi.Failed _ -> Alcotest.fail "healed probe should answer fresh");
  check_bool "closed after successful probe" true (Rdi.breaker rdi = Rdi.Closed);
  check_int "two probes total" 2 (Rdi.stats rdi).Rdi.half_open_probes

(* --- degrade-to-cache: last good response, flagged stale --- *)

let test_stale_serve () =
  let server = load_server () in
  let rdi = Rdi.create server in
  let fresh =
    match Rdi.exec rdi all_b2 with
    | Rdi.Fresh rel -> rel
    | Rdi.Stale _ | Rdi.Failed _ -> Alcotest.fail "healthy fetch must be fresh"
  in
  Server.set_faults server (Some always_fail);
  (match Rdi.exec rdi all_b2 with
   | Rdi.Stale (rel, Rdi.Remote_fault _) ->
     check_int "same cardinality as last good" (R.Relation.cardinality fresh)
       (R.Relation.cardinality rel);
     check_bool "same tuples" true
       (List.for_all (R.Relation.mem fresh) (R.Relation.to_list rel))
   | Rdi.Stale _ | Rdi.Fresh _ | Rdi.Failed _ ->
     Alcotest.fail "expected a stale serve from the response cache");
  (* nothing ever fetched for b3: no degraded substitute exists *)
  (match Rdi.exec rdi all_b3 with
   | Rdi.Failed _ -> ()
   | Rdi.Fresh _ | Rdi.Stale _ -> Alcotest.fail "unknown request text cannot degrade");
  check_int "one stale serve" 1 (Rdi.stats rdi).Rdi.stale_serves

(* --- planner integration: stale cache elements flag the answer --- *)

let b2_query = A.conj [ v "X"; v "Z" ] [ atom "b2" [ v "X"; v "Z" ] ]

let test_stale_elements_degrade () =
  let server = load_server () in
  let config = { Qpo.braid_config with Qpo.allow_lazy = false } in
  let cms = Braid.Cms.create ~config server in
  let a1 = Braid.Cms.query cms b2_query in
  ignore (TS.to_relation a1.Qpo.stream);
  check_bool "first answer fresh" true (a1.Qpo.provenance = Plan.Fresh);
  let marked = Braid.Cms.invalidate_table cms ~mode:`Mark_stale "b2" in
  check_bool "some element marked stale" true (marked <> []);
  let a2 = Braid.Cms.query cms b2_query in
  let rel = TS.to_relation a2.Qpo.stream in
  check_bool "answer still produced" true (R.Relation.cardinality rel > 0);
  check_bool "flagged degraded" true (a2.Qpo.provenance = Plan.Degraded);
  check_bool "plan reports stale reads" true
    (List.exists (function Plan.Stale_elements _ -> true | _ -> false) a2.Qpo.plan);
  check_bool "cache stats count stale touches" true
    ((CMgr.stats (Braid.Cms.cache cms)).CMgr.stale_touches > 0);
  (* a drop-invalidation then refetches fresh *)
  ignore (Braid.Cms.invalidate_table cms "b2");
  let a3 = Braid.Cms.query cms b2_query in
  ignore (TS.to_relation a3.Qpo.stream);
  check_bool "fresh after refetch" true (a3.Qpo.provenance = Plan.Fresh)

(* Same provenance chain through the lazy path: a stale element used as a
   generator source must bump stale_touches at build time and degrade the
   answer — which the consistency oracle confirms is still a subset of
   fault-free ground truth. *)
let test_stale_lazy_degrade () =
  let server = load_server () in
  let cms = Braid.Cms.create server in
  ignore (TS.to_relation (Braid.Cms.query cms b2_query).Qpo.stream);
  let before = (CMgr.stats (Braid.Cms.cache cms)).CMgr.stale_touches in
  let marked = Braid.Cms.invalidate_table cms ~mode:`Mark_stale "b2" in
  check_bool "element marked stale" true (marked <> []);
  let a = Braid.Cms.query cms ~prefer_lazy:true b2_query in
  let rel = TS.to_relation a.Qpo.stream in
  check_bool "lazy answer produced" true (R.Relation.cardinality rel > 0);
  check_bool "lazy answer degraded" true (a.Qpo.provenance = Plan.Degraded);
  check_bool "stale touches counted" true
    ((CMgr.stats (Braid.Cms.cache cms)).CMgr.stale_touches > before);
  let oracle = Braid_check.Oracle.create server in
  check_bool "degraded answer is a subset of ground truth" true
    (Braid_check.Oracle.check_answer oracle b2_query a.Qpo.provenance rel = None)

(* --- degraded answers are never cached --- *)

let test_degraded_not_cached () =
  let server = load_server () in
  let config = { Qpo.braid_config with Qpo.allow_lazy = false } in
  let cms = Braid.Cms.create ~config server in
  (* populate the RDI's last-good cache, then drop the cache element so the
     next request must go remote again *)
  ignore (TS.to_relation (Braid.Cms.query cms b2_query).Qpo.stream);
  ignore (Braid.Cms.invalidate_table cms "b2");
  Server.set_faults server (Some always_fail);
  let a = Braid.Cms.query cms b2_query in
  ignore (TS.to_relation a.Qpo.stream);
  check_bool "degraded answer" true (a.Qpo.provenance = Plan.Degraded);
  check_bool "stale response not inserted into the cache" true
    (CMgr.find_exact (Braid.Cms.cache cms) b2_query = None)

(* --- availability: with faults on, every query still answers --- *)

let d2_instance y =
  A.conj [ v "X" ] [ atom "b2" [ v "X"; v "Z" ]; atom "b3" [ v "Z"; s "c2"; s y ] ]

let acceptance_run () =
  let server = load_server () in
  Server.set_faults server (Some (Fault.flaky ~seed:13 ~error_rate:0.2 ()));
  let config = { Qpo.braid_config with Qpo.allow_lazy = false } in
  let cms = Braid.Cms.create ~config server in
  let provenances, tr =
    with_tracer (fun () ->
        List.init 40 (fun i ->
            let y = Printf.sprintf "y%d" (i mod 10) in
            let a = Braid.Cms.query cms (d2_instance y) in
            ignore (TS.to_relation a.Qpo.stream);
            a.Qpo.provenance))
  in
  (provenances, Trace.to_jsonl tr)

let test_acceptance_availability () =
  let provenances, trace = acceptance_run () in
  check_int "every query answered" 40 (List.length provenances);
  let provenances2, trace2 = acceptance_run () in
  check_bool "identical provenance sequence" true (provenances = provenances2);
  check_string "byte-identical JSONL trace" trace trace2

(* --- property: a degraded answer never invents tuples --- *)

let prop_degraded_subset =
  QCheck.Test.make ~name:"degraded answers are a subset of fresh answers" ~count:20
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let queries = List.init 12 (fun i -> d2_instance (Printf.sprintf "y%d" (i mod 4))) in
      let fresh_answers =
        let cms = Braid.Cms.create ~config:Qpo.loose_coupling_config (load_server ()) in
        List.map
          (fun q -> TS.to_relation (Braid.Cms.query cms q).Qpo.stream)
          queries
      in
      let server = load_server () in
      Server.set_faults server (Some (Fault.flaky ~seed ~error_rate:0.6 ()));
      let cms = Braid.Cms.create ~config:Qpo.loose_coupling_config server in
      List.for_all2
        (fun q fresh ->
          let rel = TS.to_relation (Braid.Cms.query cms q).Qpo.stream in
          List.for_all (R.Relation.mem fresh) (R.Relation.to_list rel))
        queries fresh_answers)

(* --- E13 at reduced scale: availability holds across the sweep --- *)

let test_e13_shape () =
  let rows, _ = Braid_experiments.Exp_faults.run ~queries:24 ~size:60 ~distinct:6 () in
  List.iter
    (fun (r : Braid_experiments.Exp_faults.row) ->
      check_int
        (Printf.sprintf "all answered at rate %.2f" r.Braid_experiments.Exp_faults.error_rate)
        r.Braid_experiments.Exp_faults.queries r.Braid_experiments.Exp_faults.answered;
      check_int "fresh + degraded = answered" r.Braid_experiments.Exp_faults.answered
        (r.Braid_experiments.Exp_faults.fresh + r.Braid_experiments.Exp_faults.degraded))
    rows;
  let at rate =
    List.find
      (fun (r : Braid_experiments.Exp_faults.row) ->
        r.Braid_experiments.Exp_faults.error_rate = rate)
      rows
  in
  check_bool "faults cause retries" true ((at 0.5).Braid_experiments.Exp_faults.retries > 0);
  check_bool "high rate degrades more" true
    ((at 0.8).Braid_experiments.Exp_faults.degraded
    >= (at 0.1).Braid_experiments.Exp_faults.degraded)

let suites =
  [
    ( "faults",
      [
        Alcotest.test_case "injector determinism" `Quick test_injector_determinism;
        Alcotest.test_case "injector draw alignment" `Quick test_injector_aligned_draws;
        Alcotest.test_case "partition fails fast then heals" `Quick
          test_partition_fails_fast_then_heals;
        Alcotest.test_case "partition heals on the shared clock" `Quick
          test_partition_heals_on_shared_clock;
        Alcotest.test_case "request budget stops runaway spend" `Quick
          test_request_budget_stops_spend;
        Alcotest.test_case "rdi determinism" `Quick test_rdi_determinism;
        Alcotest.test_case "backoff bounds" `Quick test_backoff_bounds;
        Alcotest.test_case "breaker transitions" `Quick test_breaker_transitions;
        Alcotest.test_case "stale serve" `Quick test_stale_serve;
        Alcotest.test_case "stale elements degrade" `Quick test_stale_elements_degrade;
        Alcotest.test_case "stale lazy answers degrade" `Quick test_stale_lazy_degrade;
        Alcotest.test_case "degraded not cached" `Quick test_degraded_not_cached;
        Alcotest.test_case "acceptance availability" `Quick test_acceptance_availability;
        QCheck_alcotest.to_alcotest prop_degraded_subset;
        Alcotest.test_case "e13 shape" `Quick test_e13_shape;
      ] );
  ]
