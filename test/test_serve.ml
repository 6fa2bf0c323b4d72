(* The serving layer: fetch coalescer, admission control, deterministic
   scheduler, per-session isolation, and the randomized soak over every
   CI profile. *)

module L = Braid_logic
module T = L.Term
module R = Braid_relalg
module V = R.Value
module A = Braid_caql.Ast
module Adv = Braid_advice.Ast
module Advisor = Braid_advice.Advisor
module Server = Braid_remote.Server
module Sql = Braid_remote.Sql
module Rdi = Braid_remote.Rdi
module Journal = Braid_cache.Journal
module Qpo = Braid_planner.Qpo
module Plan = Braid_planner.Plan
module Cms = Braid.Cms
module Scheduler = Braid_serve.Scheduler
module Coalescer = Braid_serve.Coalescer
module Admission = Braid_serve.Admission
module Soak = Braid_serve.Soak
module Workload = Braid_serve.Workload
module Trace = Braid_obs.Trace

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let v x = T.Var x
let s x = T.Const (V.Str x)
let atom p args = L.Atom.make p args

let no_advice = { Adv.specs = []; path = None }

let mk_cms () =
  let server = Server.create () in
  Workload.load server;
  (server, Cms.create server)

let b2_def = A.conj [ v "X"; v "Z" ] [ atom "b2" [ v "X"; v "Z" ] ]
let b1_def = A.conj [ v "Z"; v "Y" ] [ atom "b1" [ v "Z"; v "Y" ] ]

(* --- coalescer --- *)

let test_coalescer_identical () =
  let _, cms = mk_cms () in
  let co = Coalescer.create cms in
  Coalescer.begin_round co;
  let o1 = Coalescer.fetch co b2_def (Sql.select_all "b2") in
  let o2 = Coalescer.fetch co b2_def (Sql.select_all "b2") in
  let st = Coalescer.stats co in
  check_int "one rdi request" 1 (Cms.rdi_stats cms).Rdi.requests;
  check_int "identical hit" 1 st.Coalescer.identical_hits;
  check_int "first was a miss" 1 st.Coalescer.misses;
  (match (o1, o2) with
   | Rdi.Fresh r1, Rdi.Fresh r2 ->
     check_bool "outcome shared by reference" true (r1 == r2)
   | _ -> Alcotest.fail "expected two fresh outcomes")

(* The fetches of a wave are concurrent: an identical request waits on the
   in-flight one, so it shares a failure too. A different query goes to
   the remote. *)
let test_coalescer_shares_failure () =
  let server, cms = mk_cms () in
  Server.set_faults server
    (Some { Braid_remote.Fault.none with Braid_remote.Fault.error_rate = 1.0; seed = 3 });
  let co = Coalescer.create cms in
  Coalescer.begin_round co;
  let o1 = Coalescer.fetch co b2_def (Sql.select_all "b2") in
  let o2 = Coalescer.fetch co b2_def (Sql.select_all "b2") in
  (match (o1, o2) with
   | Rdi.Failed f1, Rdi.Failed f2 -> check_bool "same failure" true (f1 = f2)
   | _ -> Alcotest.fail "expected two failures");
  check_int "identical hit" 1 (Coalescer.stats co).Coalescer.identical_hits;
  check_int "one rdi request" 1 (Cms.rdi_stats cms).Rdi.requests;
  ignore (Coalescer.fetch co b2_def { (Sql.select_all "b2") with Sql.distinct = true });
  check_int "a different query went remote" 2 (Cms.rdi_stats cms).Rdi.requests

let test_coalescer_disjoint () =
  let _, cms = mk_cms () in
  let co = Coalescer.create cms in
  Coalescer.begin_round co;
  ignore (Coalescer.fetch co b2_def (Sql.select_all "b2"));
  ignore (Coalescer.fetch co b1_def (Sql.select_all "b1"));
  let st = Coalescer.stats co in
  check_int "no reuse across disjoint views" 0 st.Coalescer.identical_hits;
  check_int "both fetched" 2 (Cms.rdi_stats cms).Rdi.requests

(* [b2] filtered by a semi-join on its first column. *)
let b2_semijoin keys =
  Sql.with_semijoins (Sql.select_all "b2")
    [ ({ Sql.src = "b2"; attr = "a" }, List.map (fun k -> V.Str k) keys) ]

(* A semi-join filter is part of the query: the same filter asked twice in
   one wave gets the same answer, so it is one request. *)
let test_coalescer_semijoin_identical () =
  let _, cms = mk_cms () in
  let co = Coalescer.create cms in
  Coalescer.begin_round co;
  let o1 = Coalescer.fetch co b2_def (b2_semijoin [ "x1"; "x2" ]) in
  let o2 = Coalescer.fetch co b2_def (b2_semijoin [ "x2"; "x1" ]) in
  check_int "one rdi request" 1 (Cms.rdi_stats cms).Rdi.requests;
  check_int "identical hit" 1 (Coalescer.stats co).Coalescer.identical_hits;
  match (o1, o2) with
  | Rdi.Fresh r1, Rdi.Fresh r2 -> check_bool "outcome shared by reference" true (r1 == r2)
  | _ -> Alcotest.fail "expected two fresh outcomes"

(* Queries that differ anywhere, even in one semi-join value or in
   [distinct], are different requests. *)
let test_coalescer_near_misses () =
  let _, cms = mk_cms () in
  let co = Coalescer.create cms in
  Coalescer.begin_round co;
  List.iter
    (fun sql -> ignore (Coalescer.fetch co b2_def sql))
    [
      b2_semijoin [ "x1" ];
      b2_semijoin [ "x2" ];
      Sql.select_all "b2";
      { (Sql.select_all "b2") with Sql.distinct = true };
    ];
  let st = Coalescer.stats co in
  check_int "no hits" 0 st.Coalescer.identical_hits;
  check_int "four misses" 4 st.Coalescer.misses;
  check_int "four rdi requests" 4 (Cms.rdi_stats cms).Rdi.requests

(* SQL text is printed only at the trace boundary: a hit's instant names
   the query it shared. *)
let test_coalescer_trace_sql () =
  let _, cms = mk_cms () in
  let co = Coalescer.create cms in
  let tracer = Trace.create () in
  Trace.install tracer;
  Fun.protect ~finally:Trace.uninstall (fun () ->
      Coalescer.begin_round co;
      ignore (Coalescer.fetch co b2_def (b2_semijoin [ "x1" ]));
      ignore (Coalescer.fetch co b2_def (b2_semijoin [ "x1" ]));
      Coalescer.end_round co);
  match List.filter (fun sp -> sp.Trace.name = "serve.coalesce") (Trace.spans tracer) with
  | [ sp ] ->
    check_bool "kind" true (List.assoc_opt "kind" sp.args = Some (Trace.Str "identical"));
    check_bool "sql text" true
      (List.assoc_opt "sql" sp.args
       = Some (Trace.Str (Sql.to_string (b2_semijoin [ "x1" ]))))
  | spans -> Alcotest.failf "expected one serve.coalesce instant, got %d" (List.length spans)

let test_coalescer_window_scope () =
  let _, cms = mk_cms () in
  let co = Coalescer.create cms in
  (* Outside any round: the window is bypassed entirely. *)
  ignore (Coalescer.fetch co b2_def (Sql.select_all "b2"));
  ignore (Coalescer.fetch co b2_def (Sql.select_all "b2"));
  check_int "bypass is uncounted" 0 (Coalescer.stats co).Coalescer.requests;
  check_int "both hit the rdi" 2 (Cms.rdi_stats cms).Rdi.requests;
  (* A new round starts with an empty window: no reuse from before. *)
  Coalescer.begin_round co;
  ignore (Coalescer.fetch co b2_def (Sql.select_all "b2"));
  Coalescer.end_round co;
  Coalescer.begin_round co;
  ignore (Coalescer.fetch co b2_def (Sql.select_all "b2"));
  let st = Coalescer.stats co in
  check_int "no reuse across rounds" 0 st.Coalescer.identical_hits;
  check_int "two windowed misses" 2 st.Coalescer.misses

(* --- admission --- *)

let test_admission_decide () =
  let p = { Admission.max_queue = 3; per_session_queue = 2 } in
  check_bool "admit" true
    (Admission.decide p ~total_queued:0 ~session_queued:0 = Admission.Admit);
  check_bool "session cap" true
    (Admission.decide p ~total_queued:2 ~session_queued:2 = Admission.Shed_session_cap);
  check_bool "queue full wins" true
    (Admission.decide p ~total_queued:3 ~session_queued:0 = Admission.Shed_queue_full)

let test_cached_only_stale_emptiness () =
  let _, cms = mk_cms () in
  (* A selection with an empty result, cached fresh. *)
  let q = A.conj [ v "Z" ] [ atom "b3" [ v "Z"; s "c2"; s "zzz" ] ] in
  ignore (Cms.query cms q);
  (match Admission.cached_only (Cms.cache cms) q with
   | Some a ->
     check_bool "fresh while current" true (a.Qpo.provenance = Plan.Fresh)
   | None -> Alcotest.fail "expected a cached cover");
  ignore (Cms.invalidate_table cms ~mode:`Mark_stale "b3");
  (* Zero tuples are read from the stale element, but its emptiness is
     itself stale — the substitute answer must say degraded. *)
  match Admission.cached_only (Cms.cache cms) q with
  | Some a -> check_bool "degraded once stale" true (a.Qpo.provenance = Plan.Degraded)
  | None -> Alcotest.fail "expected a cached cover"

let test_qpo_stale_emptiness_degrades () =
  let _, cms = mk_cms () in
  let q = A.conj [ v "Z" ] [ atom "b3" [ v "Z"; s "c2"; s "zzz" ] ] in
  let a1 = Cms.query cms q in
  check_bool "fresh first" true (a1.Qpo.provenance = Plan.Fresh);
  ignore (Cms.invalidate_table cms ~mode:`Mark_stale "b3");
  let a2 = Cms.query cms q in
  check_bool "empty answer from a stale element is degraded" true
    (a2.Qpo.provenance = Plan.Degraded)

(* An answer read from a stale element whose selection matches nothing
   reads no stale tuples, yet it is as stale as the element: it is
   degraded, lazily or eagerly, and never cached. A cached copy would
   later answer as an exact hit, fresh, missing every row inserted since. *)
let test_qpo_stale_emptiness_not_cached () =
  let _, cms = mk_cms () in
  let empty = A.conj [ v "Z"; v "Y" ] [ atom "b3" [ v "Z"; s "c-none"; v "Y" ] ] in
  ignore (Cms.query cms empty);
  check_bool "empty element cached" true
    (Braid_cache.Cache_manager.find_exact (Cms.cache cms) empty <> None);
  ignore (Cms.invalidate_table cms ~mode:`Mark_stale "b3");
  let answer what ~prefer_lazy q =
    let a = Cms.query cms ~prefer_lazy q in
    check_bool (what ^ ": read the stale element") true
      (List.exists (function Plan.Use_element _ -> true | _ -> false) a.Qpo.plan);
    check_bool (what ^ ": lazy") prefer_lazy (List.mem Plan.Lazy_answer a.Qpo.plan);
    check_bool (what ^ ": degraded") true (a.Qpo.provenance = Plan.Degraded);
    check_bool (what ^ ": not cached") true
      (Braid_cache.Cache_manager.find_exact (Cms.cache cms) q = None)
  in
  answer "lazy" ~prefer_lazy:true (A.conj [ v "Z" ] [ atom "b3" [ v "Z"; s "c-none"; s "y1" ] ]);
  answer "eager" ~prefer_lazy:false
    (A.conj [ v "X" ] [ atom "b2" [ v "X"; v "Z" ]; atom "b3" [ v "Z"; s "c-none"; s "y1" ] ])

(* --- scheduler --- *)

let test_scheduler_fairness_under_hot_session () =
  let _, cms = mk_cms () in
  let policy = { Admission.max_queue = 32; per_session_queue = 2 } in
  let sched = Scheduler.create ~policy ~seed:7 cms in
  let s1 = Scheduler.add_session sched ~sid:"s1" no_advice in
  let s2 = Scheduler.add_session sched ~sid:"s2" no_advice in
  let q = A.conj [ v "X"; v "Z" ] [ atom "b2" [ v "X"; v "Z" ] ] in
  let outcomes = ref [] in
  let submit sid =
    Scheduler.submit sched ~sid ~on_reply:(fun o -> outcomes := o :: !outcomes) q
  in
  (* The hot session floods past its cap; the quiet one stays admitted. *)
  let hot = List.init 6 (fun _ -> submit s1) in
  check_int "hot session: 2 admitted" 2
    (List.length (List.filter (fun r -> r = `Queued) hot));
  check_bool "quiet session admitted" true (submit s2 = `Queued);
  check_bool "quiet session admitted again" true (submit s2 = `Queued);
  ignore (Scheduler.drain sched);
  let view sid =
    match Scheduler.session_view sched sid with
    | Some view -> view
    | None -> Alcotest.fail ("unknown session " ^ sid)
  in
  let v1 = view "s1" and v2 = view "s2" in
  check_int "hot answered its admitted jobs" 2 v1.Scheduler.answered;
  check_int "hot shed the flood" 4 v1.Scheduler.shed;
  check_int "quiet session unaffected" 2 v2.Scheduler.answered;
  check_int "quiet session shed nothing" 0 v2.Scheduler.shed;
  check_int "every submission got a reply" 8 (List.length !outcomes);
  check_int "nothing left queued" 0 (Scheduler.queued sched)

let test_scheduler_session_isolation () =
  let _, cms = mk_cms () in
  let d1 = A.conj [ v "Y" ] [ atom "b1" [ s "c1"; v "Y" ] ] in
  let d2 = A.conj [ v "Z" ] [ atom "b2" [ s "x1"; v "Z" ] ] in
  let advice =
    {
      Adv.specs =
        [
          Adv.spec ~id:"d1" ~bindings:[ Adv.Consumer ] d1;
          Adv.spec ~id:"d2" ~bindings:[ Adv.Consumer ] d2;
        ];
      path =
        Some
          (Adv.Seq
             ( [ Adv.Pattern ("d1", []); Adv.Pattern ("d2", []) ],
               { Adv.lo = 1; hi = Adv.Fin 1 } ));
    }
  in
  let sa = Cms.new_session cms ~sid:"sa" advice in
  let sb = Cms.new_session cms ~sid:"sb" advice in
  let predicted ses =
    List.map (fun sp -> sp.Adv.id) (Advisor.predicted_next (Qpo.session_advisor ses))
  in
  check_bool "both sessions start at d1" true
    (predicted sa = [ "d1" ] && predicted sb = [ "d1" ]);
  ignore (Cms.query cms ~session:sa d1);
  check_bool "sa advanced to d2" true (List.mem "d2" (predicted sa));
  check_bool "sb still expects d1 (no cross-session leak)" true
    (predicted sb = [ "d1" ])

let test_scheduler_journal_attribution () =
  let _, cms = mk_cms () in
  let sched = Scheduler.create ~seed:1 cms in
  let sid = Scheduler.add_session sched ~sid:"s7" no_advice in
  let q = A.conj [ v "X"; v "Z" ] [ atom "b2" [ v "X"; v "Z" ] ] in
  ignore (Scheduler.submit sched ~sid q);
  ignore (Scheduler.drain sched);
  let entries = Journal.entries (Cms.journal cms) in
  check_bool "cache admission journaled under the session id" true
    (List.exists (fun e -> Journal.entry_by e = "s7") entries);
  check_bool "context cleared between waves" true
    (Journal.context (Cms.journal cms) = "")

let test_scheduler_goal_jobs () =
  let server, cms = mk_cms () in
  let sched = Scheduler.create ~seed:5 cms in
  let sid = Scheduler.add_session sched ~sid:"g1" no_advice in
  let kb = Workload.recursive_kb () in
  let eng = Braid_remote.Engine.table (Server.engine server) in
  let truth g =
    (Braid_ie.Datalog.solve kb ~base:(fun p -> Some (eng p)) g)
      .Braid_ie.Datalog.result
  in
  (* Pick a z-key whose closure is non-empty (the generated graph leaves
     some keys without outgoing edges). *)
  let goal =
    List.init 8 (fun k -> atom "zreach" [ s (Printf.sprintf "z%d" k); v "Y" ])
    |> List.find (fun g -> R.Relation.cardinality (truth g) > 0)
  in
  (* No engine installed: goals are refused outright. *)
  (try
     ignore (Scheduler.submit_goal sched ~sid goal);
     Alcotest.fail "expected Invalid_argument without an engine"
   with Invalid_argument _ -> ());
  Scheduler.set_engine sched
    (Some
       (Braid_ie.Engine.create ~strategy:Braid_ie.Strategy.Set_oriented
          ~send_advice:false kb (Cms.qpo cms)));
  let result = ref None in
  ignore (Scheduler.submit_goal sched ~sid ~on_reply:(fun o -> result := Some o) goal);
  ignore (Scheduler.drain sched);
  let rel =
    match !result with
    | Some (Scheduler.Goal_answered rel) -> rel
    | _ -> Alcotest.fail "expected a goal answer"
  in
  (* The scheduler's answer equals a fault-free local fixpoint over the
     server's tables. *)
  let missing, extra =
    Braid_check.Oracle.diff_relations ~expected:(truth goal) ~actual:rel
  in
  check_bool "fixpoint non-empty" true (R.Relation.cardinality rel > 0);
  check_bool "set-equal to the reference fixpoint" true (missing = [] && extra = []);
  (match Scheduler.session_view sched "g1" with
   | Some view -> check_int "goal counted as answered" 1 view.Scheduler.answered
   | None -> Alcotest.fail "unknown session");
  (* The goal's base fetches became cache elements in the shared CMS. *)
  check_bool "goal fetches populated the shared cache" true
    ((Cms.cache_summary cms).Braid_cache.Cache_model.element_count > 0)

(* --- the soak, one case per CI leg --- *)

(* Every serve-soak CI leg at a small wave count and its CI seed. The
   determinism case re-runs every leg in [Soak.legs]; a leg without a
   scale here fails it. *)
let soak_scale =
  [
    ("single-session", (1, 120));
    ("multi-session", (1, 120));
    ("sharded", (1, 120));
    ("chaos", (1, 120));
    ("write-heavy", (1, 300));
    ("recursive", (3, 120));
  ]

let run_leg name =
  let seed, waves = List.assoc name soak_scale in
  Soak.run (List.assoc name Soak.legs) ~seed ~waves

(* The multi-session legs as test cases (the single-session leg is the
   check-soak group in test_check.ml). Each must pass every gate; the
   mid-run crash (the partition, under chaos) must fire, bursts must be
   shed, every session answered and some answers served lazily. *)
let soak_profiles =
  [
    ("multi-session", "multi-session");
    ("4 shards", "sharded");
    ("chaos", "chaos");
    ("write-heavy", "write-heavy");
    ("recursive goals", "recursive");
  ]

let test_soak leg () =
  let r = run_leg leg in
  Alcotest.(check (list string)) "every gate passes" [] (Soak.failures r);
  check_bool "the crash or partition fired" true
    (r.Soak.crash_wave <> None || r.Soak.partition_wave <> None);
  check_bool "admission shed under burst load" true (r.Soak.shed > 0);
  check_bool "every session answered" true
    (List.for_all (fun (s : Soak.session_report) -> s.Soak.answered > 0) r.Soak.per_session);
  check_bool "lazy answers served" true (r.Soak.lazy_answers > 0);
  (* The profile gates live in the report's own verdict, not only in the
     CLI: one failed request after heal must fail it. *)
  let broken = { r with Soak.failed_after_heal = 1 } in
  check_bool "a violated gate fails the run" true (Soak.failures broken <> []);
  check_bool "the rendered report says FAILED" true
    (String.ends_with ~suffix:": FAILED"
       (List.hd (String.split_on_char '\n' (Soak.report_to_string broken))))

let test_soak_deterministic () =
  List.iter
    (fun (name, _) ->
      let r1 = run_leg name and r2 = run_leg name in
      check_bool (name ^ ": byte-identical reports for one seed") true
        (Soak.report_to_string r1 = Soak.report_to_string r2);
      check_bool (name ^ ": identical journals") true
        (r1.Soak.journal_dump = r2.Soak.journal_dump))
    Soak.legs

(* The value rules the profile type cannot express: each broken profile
   raises before the run starts, naming its rule. *)
let test_soak_rejects () =
  let contains needle hay =
    let n = String.length needle in
    let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  let rejects label profile rule =
    match Soak.run profile ~seed:1 ~waves:10 with
    | _ -> Alcotest.failf "%s: accepted" label
    | exception Invalid_argument msg ->
      check_bool (Printf.sprintf "%s: %S names %S" label msg rule) true (contains rule msg)
  in
  let leg = Fun.flip List.assoc Soak.legs in
  let wh = leg "write-heavy" in
  rejects "write-heavy over 4 shards" { wh with shards = 4 } "write-heavy";
  rejects "write-heavy over 2 replicas" { wh with replicas = 2 } "write-heavy";
  rejects "a partition with 1 replica" { (leg "chaos") with replicas = 1 } "partition";
  rejects "no sessions" { (leg "multi-session") with sessions = 0 } "sessions"

let suites =
  [
    ( "serve",
      [
        Alcotest.test_case "coalescer identical" `Quick test_coalescer_identical;
        Alcotest.test_case "coalescer shares a semi-join fetch" `Quick
          test_coalescer_semijoin_identical;
        Alcotest.test_case "coalescer disjoint" `Quick test_coalescer_disjoint;
        Alcotest.test_case "coalescer window scope" `Quick test_coalescer_window_scope;
        Alcotest.test_case "admission decisions" `Quick test_admission_decide;
        Alcotest.test_case "cached-only stale emptiness" `Quick
          test_cached_only_stale_emptiness;
        Alcotest.test_case "qpo stale emptiness degrades" `Quick
          test_qpo_stale_emptiness_degrades;
        Alcotest.test_case "fairness under a hot session" `Quick
          test_scheduler_fairness_under_hot_session;
        Alcotest.test_case "per-session advice isolation" `Quick
          test_scheduler_session_isolation;
        Alcotest.test_case "journal attribution" `Quick
          test_scheduler_journal_attribution;
        Alcotest.test_case "goal jobs through the set-oriented tier" `Quick
          test_scheduler_goal_jobs;
        Alcotest.test_case "soak determinism" `Slow test_soak_deterministic;
      ]
      @ List.map
          (fun (name, leg) -> Alcotest.test_case ("soak " ^ name) `Slow (test_soak leg))
          soak_profiles
      @ [
          Alcotest.test_case "soak rejects invalid profiles" `Quick test_soak_rejects;
          Alcotest.test_case "coalescer shares a failure" `Quick test_coalescer_shares_failure;
          Alcotest.test_case "coalescer keys on the whole query" `Quick test_coalescer_near_misses;
          Alcotest.test_case "coalescer traces the sql" `Quick test_coalescer_trace_sql;
          Alcotest.test_case "qpo stale emptiness is never cached" `Quick
            test_qpo_stale_emptiness_not_cached;
        ] );
  ]
