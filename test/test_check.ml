(* The consistency oracle, the crash-consistent cache journal, and the
   single-session soak that drives both end to end: answer/ground-truth
   diffing, journal replay byte-identity after a crash, recovery
   re-validation, and soak determinism. The multi-session soak profiles
   are tested in test_serve.ml. *)

module R = Braid_relalg
module V = R.Value
module L = Braid_logic
module T = L.Term
module A = Braid_caql.Ast
module TS = Braid_stream.Tuple_stream
module Server = Braid_remote.Server
module Engine = Braid_remote.Engine
module Fault = Braid_remote.Fault
module Qpo = Braid_planner.Qpo
module Plan = Braid_planner.Plan
module CMgr = Braid_cache.Cache_manager
module Journal = Braid_cache.Journal
module Element = Braid_cache.Element
module Cms = Braid.Cms
module Oracle = Braid_check.Oracle
module Soak = Braid_serve.Soak

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let v x = T.Var x
let s x = T.Const (V.Str x)
let atom p args = L.Atom.make p args

let load_server () =
  let server = Server.create () in
  List.iter
    (Engine.load (Server.engine server))
    (Braid_workload.Datagen.paper_example ~size:30 ());
  server

let b2_query = A.conj [ v "X"; v "Z" ] [ atom "b2" [ v "X"; v "Z" ] ]
let b1_sel = A.conj [ v "Y" ] [ atom "b1" [ s "c1"; v "Y" ] ]

let eager = { Qpo.braid_config with Qpo.allow_lazy = false }

(* --- the oracle itself --- *)

let test_oracle_fresh_exact () =
  let server = load_server () in
  let oracle = Oracle.create server in
  let truth = Oracle.ground_truth oracle b2_query in
  check_bool "ground truth non-trivial" true (R.Relation.cardinality truth > 0);
  (* the exact answer passes as Fresh *)
  check_bool "exact passes fresh" true
    (Oracle.check_answer oracle b2_query Plan.Fresh truth = None);
  (* a truncated answer fails Fresh but passes Degraded (subset) *)
  let truncated =
    R.Relation.of_tuples ~name:"t" (R.Relation.schema truth)
      (List.tl (R.Relation.to_list truth))
  in
  check_bool "truncated fails fresh" true
    (Oracle.check_answer oracle b2_query Plan.Fresh truncated <> None);
  check_bool "truncated passes degraded" true
    (Oracle.check_answer oracle b2_query Plan.Degraded truncated = None);
  (* an invented tuple fails both *)
  let invented =
    R.Relation.of_tuples ~name:"t" (R.Relation.schema truth)
      ([| V.Str "nope"; V.Str "nope" |] :: R.Relation.to_list truth)
  in
  check_bool "invented fails fresh" true
    (Oracle.check_answer oracle b2_query Plan.Fresh invented <> None);
  check_bool "invented fails degraded" true
    (Oracle.check_answer oracle b2_query Plan.Degraded invented <> None)

let test_oracle_observer_clean_run () =
  (* Wired into a live CMS, the oracle sees every answer — none diverge. *)
  let server = load_server () in
  let cms = Cms.create ~config:eager server in
  let oracle = Oracle.create server in
  let divergences = ref 0 in
  Cms.set_observer cms
    (Some
       (fun q prov rel ->
         if Oracle.check_answer oracle q prov rel <> None then incr divergences));
  ignore (TS.to_relation (Cms.query cms b2_query).Qpo.stream);
  ignore (TS.to_relation (Cms.query cms b1_sel).Qpo.stream);
  ignore (TS.to_relation (Cms.query cms b2_query).Qpo.stream);
  (* a subsumed instance served from the cached general element *)
  ignore
    (TS.to_relation
       (Cms.query cms (A.conj [ v "Z" ] [ atom "b2" [ s "x0"; v "Z" ] ])).Qpo.stream);
  check_int "no divergences" 0 !divergences

(* --- the journal: every cache transition is logged --- *)

let test_journal_records_transitions () =
  let server = load_server () in
  let cms = Cms.create ~config:eager server in
  ignore (TS.to_relation (Cms.query cms b2_query).Qpo.stream);
  ignore (TS.to_relation (Cms.query cms b1_sel).Qpo.stream);
  let jnl = Cms.journal cms in
  let admits =
    List.filter (function Journal.Admit _ -> true | _ -> false) (Journal.entries jnl)
  in
  check_int "two admissions logged" 2 (List.length admits);
  ignore (Cms.invalidate_table cms ~mode:`Mark_stale "b2");
  check_bool "stale-mark logged" true
    (List.exists
       (function Journal.Mark_stale _ -> true | _ -> false)
       (Journal.entries jnl));
  ignore (Cms.invalidate_table cms "b1");
  check_bool "drop logged" true
    (List.exists (function Journal.Remove _ -> true | _ -> false) (Journal.entries jnl));
  check_int "epoch starts at 0" 0 (Journal.epoch jnl);
  let epoch = Cms.checkpoint cms in
  check_int "checkpoint bumps epoch" 1 epoch;
  let live =
    List.map
      (fun (e : Element.t) -> e.Element.id)
      (Braid_cache.Cache_model.elements (CMgr.model (Cms.cache cms)))
  in
  check_bool "checkpoint re-admits live elements" true
    (match Journal.entries jnl with
     | Journal.Checkpoint { epoch = 1; _ } :: rest ->
       List.map (function Journal.Admit { id; _ } -> Some id | _ -> None) rest
       = List.map Option.some live
     | _ -> false)

(* A read-only telecom session pins and unpins as its tracker moves, so
   without a bound the journal would grow with every goal. The CMS
   checkpoints itself between operations, so after any goal the journal
   holds at most the rule's bound plus what one operation wrote since the
   last check: here one admission, since nothing is evicted. *)
let test_journal_bounded_over_long_session () =
  let offices = 30 and orders = 100 in
  let sys =
    Braid.System.build ~kb:(Braid_workload.Kbgen.telecom ())
      ~data:(Braid_workload.Datagen.telecom ~offices ~customers:100 ~orders ())
      ()
  in
  let cms = Braid.System.cms sys in
  let jnl = Cms.journal cms in
  let worst = ref 0 and worst_at_1000 = ref 0 and within = ref true in
  List.iteri
    (fun i g ->
      ignore (Braid.System.solve_all sys g);
      let len = Journal.length jnl in
      if len > Journal.compact_at jnl + 1 then within := false;
      worst := max !worst len;
      if i = 999 then worst_at_1000 := !worst)
    (Braid_workload.Queries.telecom_batch ~orders ~offices ~n:5000 ());
  check_int "nothing evicted" 0 (CMgr.stats (Cms.cache cms)).CMgr.evictions;
  check_bool "the CMS checkpointed itself" true (Journal.epoch jnl > 1);
  check_bool "within the bound after every goal" true !within;
  check_int "the maximum stops growing" !worst_at_1000 !worst

(* --- crash + recover: byte-identical cache model --- *)

let crash_now server =
  Server.set_faults server (Some { Fault.none with Fault.crash_at = Some 1 })

let run_until_crash cms q =
  match Cms.query cms q with
  | _ -> Alcotest.fail "expected the injected crash"
  | exception Fault.Injected Fault.Crash -> ()

let test_crash_recover_byte_identical () =
  let server = load_server () in
  let cms = Cms.create ~config:eager server in
  ignore (TS.to_relation (Cms.query cms b2_query).Qpo.stream);
  ignore (TS.to_relation (Cms.query cms b1_sel).Qpo.stream);
  ignore (Cms.invalidate_table cms ~mode:`Mark_stale "b2");
  ignore (Cms.checkpoint cms);
  (* one more admission after the checkpoint, then the crash *)
  ignore
    (TS.to_relation
       (Cms.query cms (A.conj [ v "Z" ] [ atom "b3" [ v "Z"; s "c2"; s "y1" ] ])).Qpo.stream);
  crash_now server;
  run_until_crash cms (A.conj [ v "Z" ] [ atom "b3" [ v "Z"; s "c3"; s "y2" ] ]);
  let dead = CMgr.model (Cms.cache cms) in
  let n_dead = List.length (Braid_cache.Cache_model.elements dead) in
  check_bool "cache was populated at death" true (n_dead >= 3);
  Server.set_faults server None;
  let oracle = Oracle.create server in
  let recovered, report =
    Cms.recover ~config:eager ~validate:(Oracle.revalidate oracle)
      ~journal:(Cms.journal cms) server
  in
  check_int "all elements recovered" n_dead report.Cms.replayed;
  check_int "none dropped by validation" 0 (List.length report.Cms.dropped);
  check_int "replay starts at the checkpoint epoch" 1 report.Cms.epoch;
  (match Oracle.same_state dead (CMgr.model (Cms.cache recovered)) with
   | Ok () -> ()
   | Error msg -> Alcotest.fail ("recovered model differs: " ^ msg));
  (* the stale flag survived the crash *)
  check_bool "stale flag recovered" true
    (List.exists
       (fun (e : Element.t) -> e.Element.stale)
       (Braid_cache.Cache_model.elements (CMgr.model (Cms.cache recovered))));
  (* and the recovered CMS still answers correctly *)
  let divergences = ref 0 in
  Cms.set_observer recovered
    (Some
       (fun q prov rel ->
         if Oracle.check_answer oracle q prov rel <> None then incr divergences));
  ignore (TS.to_relation (Cms.query recovered b2_query).Qpo.stream);
  ignore (TS.to_relation (Cms.query recovered b1_sel).Qpo.stream);
  check_int "recovered CMS consistent" 0 !divergences

let test_recovery_validation_drops_outdated () =
  (* A table mutated while the CMS was down makes the recovered element's
     journaled content out of date: re-validation must drop exactly it. *)
  let server = load_server () in
  let cms = Cms.create ~config:eager server in
  ignore (TS.to_relation (Cms.query cms b2_query).Qpo.stream);
  ignore (TS.to_relation (Cms.query cms b1_sel).Qpo.stream);
  crash_now server;
  run_until_crash cms (A.conj [ v "Z" ] [ atom "b3" [ v "Z"; s "c3"; s "y2" ] ]);
  Server.set_faults server None;
  (* the mutation the dead CMS never saw *)
  Engine.insert (Server.engine server) "b2" [| V.Str "xnew"; V.Str "znew" |];
  let oracle = Oracle.create server in
  let recovered, report =
    Cms.recover ~config:eager ~validate:(Oracle.revalidate oracle)
      ~journal:(Cms.journal cms) server
  in
  check_int "both elements replayed" 2 report.Cms.replayed;
  check_int "the b2 element dropped" 1 (List.length report.Cms.dropped);
  check_bool "the b1 element survives" true
    (CMgr.find_exact (Cms.cache recovered) b1_sel <> None);
  check_bool "the outdated b2 element is gone" true
    (CMgr.find_exact (Cms.cache recovered) b2_query = None);
  (* the drop is journaled, so a second replay agrees *)
  check_bool "drop journaled" true
    (List.exists
       (function
         | Journal.Remove { pred = "(recovery-validation)"; _ } -> true
         | _ -> false)
       (Journal.entries (Cms.journal cms)))

(* --- the single-session soak --- *)

let single_session = List.assoc "single-session" Soak.legs

let test_soak_short_run_ok () =
  let r = Soak.run single_session ~seed:1 ~waves:300 in
  Alcotest.(check (list string)) "every gate passes" [] (Soak.failures r);
  check_bool "ran queries" true (r.Soak.answered > 0);
  check_bool "ran mutations" true (r.Soak.inserts > 0);
  check_bool "some answers served lazily" true (r.Soak.lazy_answers > 0);
  check_bool "crash happened" true (r.Soak.crash_wave <> None);
  check_bool "crash found a populated cache" true (r.Soak.elements_at_crash >= 3);
  check_int "no divergences" 0 (List.length r.Soak.divergences)

let test_soak_deterministic () =
  let run () = Soak.run single_session ~seed:9 ~waves:200 in
  let a = run () and b = run () in
  check_bool "identical reports (journal included)" true (a = b)

let suites =
  [
    ( "check-oracle",
      [
        Alcotest.test_case "fresh exact, degraded subset" `Quick test_oracle_fresh_exact;
        Alcotest.test_case "observer sees no divergence" `Quick
          test_oracle_observer_clean_run;
      ] );
    ( "check-journal",
      [
        Alcotest.test_case "transitions are logged" `Quick test_journal_records_transitions;
        Alcotest.test_case "bounded over a long session" `Quick
          test_journal_bounded_over_long_session;
        Alcotest.test_case "crash recovery is byte-identical" `Quick
          test_crash_recover_byte_identical;
        Alcotest.test_case "validation drops outdated elements" `Quick
          test_recovery_validation_drops_outdated;
      ] );
    ( "check-soak",
      [
        Alcotest.test_case "short soak passes" `Quick test_soak_short_run_ok;
        Alcotest.test_case "soak is deterministic" `Quick test_soak_deterministic;
      ] );
  ]
