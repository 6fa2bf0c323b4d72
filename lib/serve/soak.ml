module Server = Braid_remote.Server
module Fault = Braid_remote.Fault
module Rdi = Braid_remote.Rdi
module Router = Braid_remote.Shard_router
module Qpo = Braid_planner.Qpo
module Plan = Braid_planner.Plan
module Prng = Braid_prng.Prng
module Cms = Braid.Cms
module CMgr = Braid_cache.Cache_manager
module Journal = Braid_cache.Journal
module Maintain = Braid_cache.Maintain
module Oracle = Braid_check.Oracle
module Obs = Braid_obs

type faults = Flaky_crash | Flaky | Partition
type mix = Reads | Write_heavy | Recursive

type profile = {
  sessions : int;
  shards : int;  (** 1 = the single-server remote *)
  replicas : int;  (** copies per shard; 1 = unreplicated *)
  faults : faults;
  mix : mix;
}

let legs =
  let base = { sessions = 8; shards = 1; replicas = 1; faults = Flaky_crash; mix = Reads } in
  [
    ("single-session", { base with sessions = 1 });
    ("multi-session", base);
    ("sharded", { base with shards = 4 });
    ("chaos", { base with sessions = 6; shards = 4; replicas = 2; faults = Partition });
    ("write-heavy", { base with mix = Write_heavy });
    ("recursive", { base with sessions = 6; mix = Recursive });
  ]

(* The value rules a profile must meet; the types already rule out the
   feature pairings nobody has given a meaning (recursive with
   write-heavy, a partition with a crash). Shard and replica counts below
   1 are rejected by [Shard_router.create]. *)
let check p =
  List.iter
    (fun (broken, rule) -> if broken then invalid_arg ("Serve.Soak.run: " ^ rule))
    [
      (p.sessions < 1, "sessions must be >= 1");
      (* Delta maintenance under a lagging backup breaks the replica-lag
         Stale-subset story for deletes (docs/CONSISTENCY.md
         §replication), so the write-heavy mix runs against the
         single-server remote only. *)
      ( p.mix = Write_heavy && (p.shards > 1 || p.replicas > 1),
        "the write-heavy mix needs one server (shards = 1, replicas = 1)" );
      ( p.faults = Partition && p.replicas < 2,
        "a partition needs replicas >= 2 (it severs the primary)" );
    ]

type divergence = { wave : int; sid : string; detail : string }

type shard_report = {
  shard : int;
  sh_server : Server.stats;
  sh_rdi : Rdi.stats;
  sh_breaker : Rdi.breaker_state;
  sh_replicas : Router.replica_health list;  (** [] when [replicas = 1] *)
}

type session_report = {
  sid : string;
  submitted : int;
  answered : int;
  shed : int;
  fresh : int;
  degraded : int;
  p95_ms : float;
}

type report = {
  profile : profile;
  seed : int;
  waves : int;
  submitted : int;
  answered : int;
  shed : int;
  lost : int;
  fresh : int;
  degraded : int;
  lazy_answers : int;
  inserts : int;
  deletes : int;  (** write-heavy mix only; 0 otherwise *)
  drops : int;
  stale_marks : int;
  deltas : Braid_cache.Maintain.report;  (** across crash incarnations *)
  checkpoints : int;
  goal_submitted : int;  (** recursive mix only; 0 otherwise *)
  goal_answered : int;
  goal_shed : int;
  goal_solutions : int;  (** fixpoint tuples across all goal answers *)
  goal_complete : int;  (** goal answers set-equal to current ground truth *)
  goal_rounds : int;  (** ie.set.rounds accumulated by goal jobs *)
  goal_fetches : int;  (** ie.set.fetches — conjunctive fetches issued *)
  coalesce : Coalescer.stats;  (** across crash incarnations *)
  remote_requests : int;
  elapsed_ms : float;
  crash_wave : int option;
  elements_at_crash : int;
  recovered_elements : int;
  dropped_on_recovery : int;
  revalidation_failures : int;
  recovery_mismatch : string option;
  divergences : divergence list;
  per_session : session_report list;
  route : Router.counters option;  (** None for the single-server remote *)
  partition_wave : int option;  (** partition: the wave the primary was severed *)
  heal_wave : int option;  (** partition: first wave the partition was observed healed *)
  stale_after_heal : int;  (** RDI stale serves after heal + repair (partition gate) *)
  end_max_lag : int;  (** worst replica lag at end of run — 0 after repair *)
  per_shard : shard_report list;  (** [] when the remote is a single server *)
  journal_entries : int;
  journal_epoch : int;
  journal_dump : string list;
}

(* Every gate a soak run must pass, one message per violated gate. The
   profile gates are keyed on the report's own profile, so a library
   caller and the bench CLI judge a run identically. *)
let failures r =
  let p = r.profile in
  let chaos = p.faults = Partition
  and write_heavy = p.mix = Write_heavy
  and recursive = p.mix = Recursive in
  let routed f = match r.route with Some c -> f c | None -> 0 in
  let d = r.deltas in
  List.filter_map
    (fun (failed, msg) -> if failed then Some msg else None)
    [
      ( r.divergences <> [],
        Printf.sprintf "%d oracle divergence(s)" (List.length r.divergences) );
      ( r.recovery_mismatch <> None,
        "the recovered cache model differs from the one that died" );
      ( r.revalidation_failures > 0,
        Printf.sprintf "%d recovered element(s) failed re-validation"
          r.revalidation_failures );
      ( r.dropped_on_recovery > 0,
        Printf.sprintf "%d recovered element(s) dropped" r.dropped_on_recovery );
      ( r.end_max_lag <> 0,
        Printf.sprintf "replica lag %d at end of run (repair incomplete)" r.end_max_lag );
      (* The coalescer needs two sessions to merge anything, and only sees
         duplicates when fetches fail and stay hot: a fault-free chaos run
         has none, and delta maintenance keeps write-heavy elements Fresh,
         so re-fetches all but disappear there. *)
      ( p.sessions > 1 && (not chaos) && (not write_heavy)
        && r.coalesce.Coalescer.identical_hits + r.coalesce.Coalescer.subsumed_hits = 0,
        "the overlapping-view workload produced no coalesce hits" );
      (* Write-heavy: delta maintenance must actually run — rows moved in
         and deletes exercised (the consistency model's hard case). *)
      ( write_heavy && d.Maintain.maintained = 0,
        "write-heavy run delta-maintained no element (cache.delta.applied = 0)" );
      (write_heavy && d.Maintain.rows_added = 0, "write-heavy run added no delta rows");
      (write_heavy && r.deletes = 0, "write-heavy run issued no deletes");
      (* Recursive: goals answered through multi-round fixpoints, at least
         one complete against ground truth. *)
      (recursive && r.goal_answered = 0, "recursive run answered no goals");
      ( recursive && r.goal_complete = 0,
        "recursive run completed no goal against ground truth" );
      ( recursive && r.goal_rounds < 2 * r.goal_answered,
        "goals did not drive multi-round fixpoints (ie.set.rounds too low)" );
      (recursive && r.goal_fetches = 0, "recursive run issued no set-oriented fetches");
      (* Chaos: the severed primary must force failovers and hinted writes,
         the partition must heal, repair must hand the hints off, and once
         healed + repaired nothing may serve stale. *)
      ( chaos && routed (fun c -> c.Router.failovers) = 0,
        "chaos run recorded no failovers (backup never served)" );
      ( chaos && routed (fun c -> c.Router.hinted_writes) = 0,
        "chaos run recorded no hinted writes (partition never blocked a write)" );
      ( chaos && routed (fun c -> c.Router.handoffs) = 0,
        "chaos run recorded no handoffs (repair never drained the hints)" );
      (chaos && r.heal_wave = None, "the partition never healed");
      ( r.stale_after_heal <> 0,
        Printf.sprintf "%d stale serve(s) after heal + repair" r.stale_after_heal );
    ]

let breaker_to_string = function
  | Rdi.Closed -> "closed"
  | Rdi.Open -> "open"
  | Rdi.Half_open -> "half-open"

let report_to_string r =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  let p = r.profile in
  let fails = failures r in
  line "serve soak seed=%d sessions=%d waves=%d%s%s%s%s: %s" r.seed p.sessions r.waves
    (if p.shards > 1 then Printf.sprintf " shards=%d" p.shards else "")
    (if p.replicas > 1 then Printf.sprintf " replicas=%d" p.replicas else "")
    (if p.mix = Write_heavy then " write-heavy" else "")
    (if p.mix = Recursive then " recursive" else "")
    (if fails = [] then "OK" else "FAILED");
  line "  submitted:   %d (%d answered, %d shed, %d lost at crash)" r.submitted r.answered
    r.shed r.lost;
  line "  answers:     %d fresh, %d degraded, %d served lazily" r.fresh r.degraded
    r.lazy_answers;
  if p.mix = Recursive then
    line
      "  goals:       %d submitted, %d answered (%d complete, %d solutions), %d shed; \
       %d fixpoint rounds, %d set fetches"
      r.goal_submitted r.goal_answered r.goal_complete r.goal_solutions r.goal_shed
      r.goal_rounds r.goal_fetches;
  let co = r.coalesce in
  line "  coalescer:   %d in-flight requests: %d identical + %d subsumed reused, %d to the RDI"
    co.Coalescer.requests co.Coalescer.identical_hits co.Coalescer.subsumed_hits
    co.Coalescer.misses;
  line "  remote:      %d RDI requests, %.1f simulated ms elapsed" r.remote_requests
    r.elapsed_ms;
  (match r.route with
   | Some c when p.shards > 1 ->
     line "  routing:     %d pinned (%d shard-scans pruned), %d fan-outs, %d gathers"
       c.Router.pinned c.Router.shards_pruned c.Router.fanouts c.Router.gathers
   | _ -> ());
  (match r.route with
   | Some c when p.replicas > 1 -> (
     line "  replication: %d failovers, %d hinted writes, %d handoffs, %d repairs; end lag %d"
       c.Router.failovers c.Router.hinted_writes c.Router.handoffs c.Router.repairs
       r.end_max_lag;
     match r.partition_wave with
     | None -> ()
     | Some pw ->
       line "  partition:   shard 0 primary severed @wave %d, %s, %d stale after heal" pw
         (match r.heal_wave with
          | Some hw -> Printf.sprintf "healed @wave %d" hw
          | None -> "NOT HEALED")
         r.stale_after_heal)
   | _ -> ());
  List.iter
    (fun s ->
      line "  shard %d:     %d requests, %d scanned, %d failures, %d stale serves, breaker %s"
        s.shard s.sh_server.Server.requests s.sh_server.Server.tuples_scanned
        s.sh_rdi.Rdi.failures s.sh_rdi.Rdi.stale_serves (breaker_to_string s.sh_breaker);
      List.iter
        (fun (h : Router.replica_health) ->
          line "    r%d@node%d   %s lag=%d hints=%d breaker=%s%s" h.Router.rh_replica
            h.Router.rh_node
            (if h.Router.rh_replica = 0 then "primary" else "backup ")
            h.Router.rh_lag h.Router.rh_hints
            (breaker_to_string h.Router.rh_breaker)
            (if h.Router.rh_partitioned then " PARTITIONED" else ""))
        s.sh_replicas)
    r.per_shard;
  line "  mutations:   %d inserts, %d deletes (%d drop-invalidations, %d stale-marks)"
    r.inserts r.deletes r.drops r.stale_marks;
  if p.mix = Write_heavy then begin
    let d = r.deltas in
    line "  maintenance: %d elements delta-maintained (+%d/-%d rows), %d fallbacks, %d dropped"
      d.Maintain.maintained d.Maintain.rows_added d.Maintain.rows_removed
      d.Maintain.fallbacks d.Maintain.dropped
  end;
  line "  checkpoints: %d (journal: %d entries, epoch %d)" r.checkpoints r.journal_entries
    r.journal_epoch;
  (match r.crash_wave with
   | None -> line "  crash:       none"
   | Some w ->
     line "  crash:       wave %d (%d live elements); recovered %d, dropped %d" w
       r.elements_at_crash r.recovered_elements r.dropped_on_recovery;
     (match r.recovery_mismatch with
      | None -> line "  recovery:    byte-identical cache model, all elements re-validated"
      | Some m -> line "  recovery:    MISMATCH %s" m);
     if r.revalidation_failures > 0 then
       line "  recovery:    %d elements FAILED re-validation" r.revalidation_failures);
  (match r.divergences with
   | [] -> line "  oracle:      0 divergences"
   | ds ->
     line "  oracle:      %d divergence(s):" (List.length ds);
     List.iter (fun d -> line "    wave %d [%s]: %s" d.wave d.sid d.detail) ds);
  List.iter (line "  gate:        FAILED %s") fails;
  List.iter
    (fun s ->
      line "  %-4s submitted=%d answered=%d shed=%d fresh=%d degraded=%d p95=%.1fms" s.sid
        s.submitted s.answered s.shed s.fresh s.degraded s.p95_ms)
    r.per_session;
  Buffer.contents b

(* Per-session accumulators owned by the soak, not the scheduler: they
   must survive the scheduler being rebuilt over the recovered CMS. *)
type acc = {
  a_sid : string;
  hist : Obs.Histogram.t;
  mutable a_submitted : int;
  mutable a_answered : int;
  mutable a_shed : int;
  mutable a_fresh : int;
  mutable a_degraded : int;
}

exception Stop

let empty_advice = { Braid_advice.Ast.specs = []; path = None }

let run profile ~seed ~waves =
  check profile;
  let { sessions = n_sessions; shards; replicas; faults; mix } = profile in
  let chaos = faults = Partition
  and crash = faults = Flaky_crash
  and write_heavy = mix = Write_heavy
  and recursive = mix = Recursive in
  let prng = Prng.create seed in
  (* A quarter of the CAQL jobs ask for a lazy answer. The draw comes from
     its own stream, so the workload's main draw sequence is unchanged. *)
  let lazy_prng = Prng.create (seed + 101) in
  let server = Server.create () in
  Workload.load server;
  (* A brownout RDI profile: per-attempt deadline, nominally one retry,
     but a 20 ms request budget smaller than the first backoff (25 ms+)
     — so every failed fetch budget-stops instead of retrying and is
     counted as a request-level deadline miss. Under the flaky link a
     visible fraction of fetches therefore come back degraded. Degraded
     results are never admitted to the cache (Qpo caches only [`Fresh]),
     so a view whose fetch degrades stays hot: sessions re-fetch it
     until a fetch succeeds, and same-wave duplicates are exactly what
     the coalescer window absorbs. *)
  let rdi_policy =
    {
      Rdi.default_policy with
      Rdi.deadline_ms = Some 250.0;
      max_retries = 1;
      request_budget_ms = Some 20.0;
      seed = seed + 13;
    }
  in
  let router =
    if shards = 1 && replicas = 1 then None
    else begin
      Workload.partition server;
      Some (Router.create ~policy:rdi_policy ~shards ~replicas server)
    end
  in
  (* Chaos runs on an otherwise fault-free link, so every stale serve
     after the heal is the partition's doing, not the flaky link's. *)
  let error_rate = if chaos then 0.0 else 0.35 in
  let base = Fault.flaky ~seed:(seed + 7919) ~error_rate () in
  (* Per-replica brownout profiles: every copy's injector draws from its
     own seed stream, so replica (and shard) fates decorrelate the way
     independent machines' would. [extra] piggybacks the crash trigger. *)
  let set_faults ?(extra = fun c -> c) () =
    match router with
    | None -> Server.set_faults server (Some (extra base))
    | Some r ->
      for i = 0 to shards - 1 do
        for rp = 0 to replicas - 1 do
          let cfg =
            extra { base with Fault.seed = base.Fault.seed + (997 * i) + (7717 * rp) }
          in
          if rp = 0 then Router.set_faults r ~shard:i (Some cfg)
          else Router.set_replica_faults r ~shard:i ~replica:rp (Some cfg)
        done
      done
  in
  set_faults ();
  let capacity_bytes = 48_000 in
  let cms =
    ref (Cms.create ~capacity_bytes ~rdi_policy ?router ~maintain:write_heavy server)
  in
  let ws = Workload.new_write_stream () in
  let oracle = Oracle.create server in
  let per =
    Array.init n_sessions (fun i ->
        {
          a_sid = Printf.sprintf "s%d" (i + 1);
          hist = Obs.Histogram.create ();
          a_submitted = 0;
          a_answered = 0;
          a_shed = 0;
          a_fresh = 0;
          a_degraded = 0;
        })
  in
  let new_scheduler c =
    let sched = Scheduler.create ~seed:(seed + 31) c in
    Array.iter
      (fun a -> ignore (Scheduler.add_session sched ~sid:a.a_sid ~hist:a.hist empty_advice))
      per;
    (* The goal engine is rebuilt with each CMS incarnation: its fetches
       must flow through the incarnation's cache and journal. *)
    if recursive then
      Scheduler.set_engine sched
        (Some
           (Braid_ie.Engine.create ~strategy:Braid_ie.Strategy.Set_oriented
              ~send_advice:false (Workload.recursive_kb ()) (Cms.qpo c)));
    sched
  in
  let sched = ref (new_scheduler !cms) in
  let inserts = ref 0
  and deletes = ref 0
  and drops = ref 0
  and stale_marks = ref 0
  and checkpoints = ref 0
  and lost = ref 0 in
  let divergences = ref [] in
  let crash_wave = ref None
  and elements_at_crash = ref 0
  and recovered_elements = ref 0
  and dropped_on_recovery = ref 0
  and revalidation_failures = ref 0
  and recovery_mismatch = ref None in
  (* Coalescer / RDI / elapsed totals across CMS incarnations: folded in
     when the crash discards an incarnation, and again at the end. *)
  let coalesce = ref (Coalescer.sum [])
  and remote_requests = ref 0
  and lazy_answers = ref 0
  and elapsed_ms = ref 0.0 in
  let deltas = ref Maintain.empty_report in
  let fold_incarnation () =
    coalesce := Coalescer.sum [ !coalesce; Coalescer.stats (Scheduler.coalescer !sched) ];
    remote_requests := !remote_requests + (Cms.rdi_stats !cms).Rdi.requests;
    let m = Cms.metrics !cms in
    lazy_answers := !lazy_answers + m.Qpo.lazy_answers;
    elapsed_ms := !elapsed_ms +. m.Qpo.elapsed_ms;
    let d = Cms.delta_totals !cms and a = !deltas in
    deltas :=
      {
        Maintain.maintained = a.Maintain.maintained + d.Maintain.maintained;
        fallbacks = a.Maintain.fallbacks + d.Maintain.fallbacks;
        dropped = a.Maintain.dropped + d.Maintain.dropped;
        rows_added = a.Maintain.rows_added + d.Maintain.rows_added;
        rows_removed = a.Maintain.rows_removed + d.Maintain.rows_removed;
      }
  in
  let cur_wave = ref 0 in
  let install_observer () =
    Scheduler.set_observer !sched
      (Some
         (fun ~sid q prov rel ->
           match Oracle.check_answer oracle q prov rel with
           | None -> ()
           | Some d ->
             divergences :=
               { wave = !cur_wave; sid; detail = Oracle.divergence_to_string d }
               :: !divergences))
  in
  install_observer ();
  let submit a q =
    a.a_submitted <- a.a_submitted + 1;
    let prefer_lazy = Prng.bool lazy_prng 0.25 in
    let on_reply = function
      | Scheduler.Answered ans ->
        a.a_answered <- a.a_answered + 1;
        (match ans.Qpo.provenance with
         | Plan.Fresh -> a.a_fresh <- a.a_fresh + 1
         | Plan.Degraded -> a.a_degraded <- a.a_degraded + 1)
      | Scheduler.Shed _ -> a.a_shed <- a.a_shed + 1
      | Scheduler.Goal_answered _ -> ()
    in
    ignore (Scheduler.submit !sched ~sid:a.a_sid ~prefer_lazy ~on_reply q)
  in
  let goal_submitted = ref 0
  and goal_answered = ref 0
  and goal_shed = ref 0
  and goal_solutions = ref 0
  and goal_complete = ref 0 in
  let goal_rounds0 = Obs.Metrics.counter_value "ie.set.rounds"
  and goal_fetches0 = Obs.Metrics.counter_value "ie.set.fetches" in
  let goal_kb = Workload.recursive_kb () in
  (* Ground truth for a goal: a fault-free fixpoint straight over the
     coordinator engine's current tables (inserts land there too), read at
     reply time. Under insert-only staleness and monotone rules the served
     fixpoint may miss tuples (degraded fetches) but must never invent
     one — extras are divergences. *)
  let goal_truth g =
    let eng = Server.engine server in
    let base p = Some (Braid_remote.Engine.table eng p) in
    (Braid_ie.Datalog.solve goal_kb ~base g).Braid_ie.Datalog.result
  in
  let submit_goal a g =
    a.a_submitted <- a.a_submitted + 1;
    incr goal_submitted;
    let on_reply = function
      | Scheduler.Goal_answered rel ->
        a.a_answered <- a.a_answered + 1;
        incr goal_answered;
        goal_solutions := !goal_solutions + Braid_relalg.Relation.cardinality rel;
        let missing, extra = Oracle.diff_relations ~expected:(goal_truth g) ~actual:rel in
        if extra <> [] then
          divergences :=
            {
              wave = !cur_wave;
              sid = a.a_sid;
              detail =
                Printf.sprintf "goal %s: %d tuple(s) not in ground truth"
                  (Braid_logic.Atom.to_string g) (List.length extra);
            }
            :: !divergences
        else if missing = [] then incr goal_complete
      | Scheduler.Shed _ ->
        a.a_shed <- a.a_shed + 1;
        incr goal_shed
      | Scheduler.Answered _ -> ()
    in
    ignore (Scheduler.submit_goal !sched ~sid:a.a_sid ~on_reply g)
  in
  let crash_plan =
    if crash && waves >= 3 then Some ((waves / 3) + 1 + Prng.int prng (max 1 (waves / 3)))
    else None
  in
  let partition_plan = if chaos then Some (max 2 (waves / 3)) else None in
  let partition_wave = ref None
  and heal_wave = ref None
  and stale_at_heal = ref None in
  let router_stale () =
    match router with
    | None -> 0
    | Some r -> (Router.rdi_stats r).Rdi.stale_serves
  in
  let live () =
    List.length (Braid_cache.Cache_model.elements (CMgr.model (Cms.cache !cms)))
  in
  let handle_crash wave =
    crash_wave := Some wave;
    lost := !lost + Scheduler.queued !sched;
    fold_incarnation ();
    let dead_model = CMgr.model (Cms.cache !cms) in
    elements_at_crash := List.length (Braid_cache.Cache_model.elements dead_model);
    let journal = Cms.journal !cms in
    set_faults ();
    let validate e =
      let okv = Oracle.revalidate oracle e in
      if not okv then incr revalidation_failures;
      okv
    in
    let recovered, rep =
      Cms.recover ~capacity_bytes ~rdi_policy ?router ~maintain:write_heavy ~validate
        ~journal server
    in
    recovered_elements := rep.Cms.replayed;
    dropped_on_recovery := List.length rep.Cms.dropped;
    (match Oracle.same_state dead_model (CMgr.model (Cms.cache recovered)) with
     | Ok () -> ()
     | Error msg -> recovery_mismatch := Some msg);
    cms := recovered;
    sched := new_scheduler recovered;
    install_observer ()
  in
  (try
     for wave = 1 to waves do
       cur_wave := wave;
       if !divergences <> [] then raise Stop;
       if wave mod 250 = 0 then begin
         incr checkpoints;
         ignore (Cms.checkpoint !cms)
       end;
       (match crash_plan with
        | Some plan when !crash_wave = None && wave >= plan && live () >= 3 ->
          (* arm every shard: whichever is touched next kills the CMS *)
          set_faults ~extra:(fun c -> { c with Fault.crash_at = Some 1 }) ()
        | _ -> ());
       (match (partition_plan, router) with
        | Some pw, Some r when wave = pw ->
          (* chaos: sever shard 0's primary. Reads fail over to the most
             caught-up backup; writes to the primary become hints. The
             partition heals on the shared clock after 150 system-wide
             requests, and anti-entropy repair (below) then replays the
             hinted writes. *)
          partition_wave := Some wave;
          Router.set_replica_faults r ~shard:0 ~replica:0
            (Some (Fault.severed ~seed:(seed + 4242) ~heal_after:150 ()))
        | _ -> ());
       try
         (* The wave's hot view: sessions that draw low submit the same
            query, lighting up the coalescer window; a middle band submits
            a strictly narrower variant of it when the family has one (the
            subsumption-reuse pair); the rest mix in independent draws or
            sit the wave out. *)
         let hot = Workload.gen_query prng in
         let special = Workload.specialize prng hot in
         Array.iter
           (fun a ->
             let r = Prng.int prng 100 in
             if r < 45 then submit a hot
             else if r < 60 then
               submit a
                 (match special with Some q -> q | None -> Workload.gen_query prng)
             else if r < 75 then submit a (Workload.gen_query prng))
           per;
         (* Hot-session burst: the first session occasionally floods past
            its admission cap, deterministically exercising load-shedding
            and per-session fairness. *)
         if Prng.int prng 100 < 15 then
           for _ = 1 to Admission.default_policy.Admission.per_session_queue + 2 do
             submit per.(0) hot
           done;
         (* Recursive leg: a few sessions per wave pose an AI goal; the
            scheduler resolves it through the set-oriented IE tier in the
            same wave, sharing the coalescer window with the CAQL jobs. *)
         if recursive then
           Array.iter
             (fun a -> if Prng.int prng 100 < 30 then submit_goal a (Workload.gen_goal prng))
             per;
         if write_heavy then begin
           (* The maintenance profile: a write burst most waves — inserts
              and deletes through the CMS write path, delta-propagated into
              dependent elements instead of invalidating them. *)
           for _ = 1 to 3 do
             if Prng.int prng 100 < 70 then
               match Workload.gen_write prng ws !cms with
               | `Insert -> incr inserts
               | `Delete -> incr deletes
           done
         end
         else if Prng.int prng 100 < 20 then begin
           incr inserts;
           match Workload.gen_insert prng ?router server !cms with
           | `Drop -> incr drops
           | `Mark_stale -> incr stale_marks
         end;
         ignore (Scheduler.step !sched);
         (* One anti-entropy round per wave: reachable lagging replicas
            replay the replication log, hinted writes hand off. *)
         (match router with
          | Some r when replicas > 1 ->
            ignore (Router.tick_repair r);
            (match (!partition_wave, !heal_wave) with
             | Some _, None ->
               let healed =
                 List.for_all
                   (fun h -> not h.Router.rh_partitioned)
                   (Router.replica_health r 0)
               in
               if healed then begin
                 heal_wave := Some wave;
                 (* snapshot after the first post-heal repair: from here on
                    every replica is at the log head, so any further stale
                    serve is a bug the chaos gate catches *)
                 stale_at_heal := Some (router_stale ())
               end
             | _ -> ())
          | _ -> ())
       with Fault.Injected Fault.Crash -> handle_crash wave
     done;
     (* Drain the backlog (the crash may also land here, on a queued
        job's remote round trip). *)
     try ignore (Scheduler.drain !sched)
     with Fault.Injected Fault.Crash ->
       handle_crash waves;
       ignore (Scheduler.drain !sched)
   with Stop -> ());
  fold_incarnation ();
  let journal = Cms.journal !cms in
  let per_session =
    Array.to_list per
    |> List.map (fun a ->
           {
             sid = a.a_sid;
             submitted = a.a_submitted;
             answered = a.a_answered;
             shed = a.a_shed;
             fresh = a.a_fresh;
             degraded = a.a_degraded;
             p95_ms =
               (if Obs.Histogram.count a.hist = 0 then 0.0
                else Obs.Histogram.quantile a.hist 0.95);
           })
  in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 per_session in
  let per_shard =
    match router with
    | None -> []
    | Some r ->
      List.mapi
        (fun i sh_server ->
          {
            shard = i;
            sh_server;
            sh_rdi = Rdi.stats (Router.rdi r i);
            sh_breaker = Rdi.breaker (Router.rdi r i);
            sh_replicas = (if replicas = 1 then [] else Router.replica_health r i);
          })
        (Router.shard_stats r)
  in
  let end_max_lag =
    List.fold_left
      (fun acc s ->
        List.fold_left (fun acc h -> Int.max acc h.Router.rh_lag) acc s.sh_replicas)
      0 per_shard
  in
  let stale_after_heal =
    match !stale_at_heal with Some s -> router_stale () - s | None -> 0
  in
  {
    profile;
    seed;
    waves;
    submitted = sum (fun s -> s.submitted);
    answered = sum (fun s -> s.answered);
    shed = sum (fun s -> s.shed);
    lost = !lost;
    fresh = sum (fun s -> s.fresh);
    degraded = sum (fun s -> s.degraded);
    lazy_answers = !lazy_answers;
    inserts = !inserts;
    deletes = !deletes;
    drops = !drops;
    stale_marks = !stale_marks;
    deltas = !deltas;
    checkpoints = !checkpoints;
    goal_submitted = !goal_submitted;
    goal_answered = !goal_answered;
    goal_shed = !goal_shed;
    goal_solutions = !goal_solutions;
    goal_complete = !goal_complete;
    goal_rounds = Obs.Metrics.counter_value "ie.set.rounds" - goal_rounds0;
    goal_fetches = Obs.Metrics.counter_value "ie.set.fetches" - goal_fetches0;
    coalesce = !coalesce;
    remote_requests = !remote_requests;
    elapsed_ms = !elapsed_ms;
    crash_wave = !crash_wave;
    elements_at_crash = !elements_at_crash;
    recovered_elements = !recovered_elements;
    dropped_on_recovery = !dropped_on_recovery;
    revalidation_failures = !revalidation_failures;
    recovery_mismatch = !recovery_mismatch;
    divergences = List.rev !divergences;
    per_session;
    (* Router accounting survives crash/recovery (the fleet is connection
       state, not cache state), so end-of-run totals need no folding. *)
    route = Option.map Router.counters router;
    partition_wave = !partition_wave;
    heal_wave = !heal_wave;
    stale_after_heal;
    end_max_lag;
    per_shard;
    journal_entries = Journal.length journal;
    journal_epoch = Journal.epoch journal;
    journal_dump = List.map Journal.entry_to_string (Journal.entries journal);
  }
