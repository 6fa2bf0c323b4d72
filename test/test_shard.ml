(* The shard router: partition-pruned routing, scatter-gather equivalence
   with the unsharded engine, per-shard fault isolation and breaker
   independence, and deterministic placement. *)

module R = Braid_relalg
module V = R.Value
module Sql = Braid_remote.Sql
module Server = Braid_remote.Server
module Catalog = Braid_remote.Catalog
module Fault = Braid_remote.Fault
module Rdi = Braid_remote.Rdi
module Router = Braid_remote.Shard_router
module Trace = Braid_obs.Trace

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* The serving workload's partition keys: b1/b2 on their first column, b3
   on its third. *)
let partition_keys = [ ("b1", 0); ("b2", 0); ("b3", 2) ]

let make_router ?(size = 60) ?policy ?replicas shards =
  let server = Server.create () in
  List.iter
    (Braid_remote.Engine.load (Server.engine server))
    (Braid_workload.Datagen.paper_example ~size ());
  List.iter
    (fun (t, column) ->
      Catalog.set_partitioning (Server.catalog server) t
        (Some (Catalog.Hash { column })))
    partition_keys;
  Router.create ?policy ?replicas ~shards server

let col src attr = Sql.Col { Sql.src; attr }
let const v = Sql.Const v
let eq a b = (R.Row_pred.Eq, a, b)
let src table alias = { Sql.table; alias }

(* b3 rows whose partition key (third column) is the given constant. *)
let pinned_b3 y =
  {
    Sql.distinct = false;
    columns = [];
    from = [ src "b3" "t" ];
    where = [ eq (col "t" "c") (const (V.Str y)) ];
    semijoins = [];
  }

(* Filters a non-key column: no pruning possible. *)
let fanout_b1 y =
  {
    Sql.distinct = false;
    columns = [];
    from = [ src "b1" "t" ];
    where = [ eq (col "t" "b") (const (V.Str y)) ];
    semijoins = [];
  }

(* The paper's d2 shape: joins b2.b = b3.a with b3's key pinned — the
   shards cannot equate Z locally, so the router must gather. *)
let gather_join y =
  {
    Sql.distinct = false;
    columns = [ col "l" "a" ];
    from = [ src "b2" "l"; src "b3" "r" ];
    where =
      [
        eq (col "l" "b") (col "r" "a");
        eq (col "r" "b") (const (V.Str "c2"));
        eq (col "r" "c") (const (V.Str y));
      ];
    semijoins = [];
  }

(* Equates the two partition keys (b1.a = b2.a): co-partitioned, so every
   shard can join its own slices locally. *)
let colocated_join =
  {
    Sql.distinct = true;
    columns = [ col "l" "b" ];
    from = [ src "b1" "l"; src "b2" "r" ];
    where = [ eq (col "l" "a") (col "r" "a") ];
    semijoins = [];
  }

let sorted_rows rel = List.sort R.Tuple.compare (R.Relation.to_list rel)

let relation_of = function
  | Rdi.Fresh r | Rdi.Stale (r, _) -> r
  | Rdi.Failed f -> Alcotest.failf "unexpected Failed: %s" (Rdi.failure_to_string f)

let unsharded router q =
  fst (Braid_remote.Engine.execute (Server.engine (Router.coordinator router)) q)

let check_equivalent name router q =
  let sharded = relation_of (Router.exec router q) in
  check_bool name true (sorted_rows sharded = sorted_rows (unsharded router q))

(* --- routing decisions --- *)

let test_pinned_exactly_one_shard () =
  let r = make_router 4 in
  let q = pinned_b3 "y1" in
  (match Router.route r q with
   | Router.Pinned { reason = `Key; shard } ->
     check_bool "shard in range" true (shard >= 0 && shard < 4)
   | other -> Alcotest.failf "expected key-pinned, got %s" (Router.route_to_string other));
  let before = List.map (fun (s : Server.stats) -> s.Server.requests) (Router.shard_stats r) in
  ignore (Router.exec r q);
  let after = List.map (fun (s : Server.stats) -> s.Server.requests) (Router.shard_stats r) in
  let touched =
    List.fold_left2 (fun acc b a -> acc + (a - b)) 0 before after
  in
  check_int "exactly one shard absorbed the request" 1 touched;
  let c = Router.counters r in
  check_int "pinned counted" 1 c.Router.pinned;
  check_int "three shards pruned" 3 c.Router.shards_pruned

let test_pinned_charges_only_owner_scan () =
  let r = make_router 4 in
  let q = pinned_b3 "y2" in
  let owner =
    match Router.route r q with
    | Router.Pinned { shard; _ } -> shard
    | other -> Alcotest.failf "expected pinned, got %s" (Router.route_to_string other)
  in
  ignore (Router.exec r q);
  List.iteri
    (fun i (s : Server.stats) ->
      if i = owner then check_int "owner absorbed the request" 1 s.Server.requests
      else begin
        check_int (Printf.sprintf "shard %d untouched" i) 0 s.Server.requests;
        check_int (Printf.sprintf "shard %d scanned nothing" i) 0 s.Server.tuples_scanned
      end)
    (Router.shard_stats r)

let test_unpartitioned_home_shard () =
  let r = make_router 4 in
  let extra =
    R.Relation.of_tuples ~name:"lone"
      (R.Schema.make [ ("k", V.Tstr) ])
      [ [| V.Str "a" |]; [| V.Str "b" |] ]
  in
  Router.load r extra;
  let q = Sql.select_all "lone" in
  (match Router.route r q with
   | Router.Pinned { reason = `Home; shard } ->
     check_int "home is deterministic" (Router.home r "lone") shard
   | other -> Alcotest.failf "expected home-pinned, got %s" (Router.route_to_string other));
  check_int "whole table on its home shard" 2
    (R.Relation.cardinality (relation_of (Router.exec r q)))

let test_fanout_route_and_merge () =
  let r = make_router 4 in
  let q = fanout_b1 "y1" in
  (match Router.route r q with
   | Router.Fanout targets -> check_int "all shards targeted" 4 (List.length targets)
   | other -> Alcotest.failf "expected fan-out, got %s" (Router.route_to_string other));
  check_equivalent "fan-out union equals unsharded" r q

let test_fanout_distinct_re_deduplicates () =
  let r = make_router 4 in
  let q =
    { (Sql.select_all "b3") with Sql.distinct = true; columns = [ col "b3" "b" ] }
  in
  check_equivalent "distinct fan-out equals unsharded" r q

let test_gather_route_and_equivalence () =
  let r = make_router 4 in
  let q = gather_join "y1" in
  (match Router.route r q with
   | Router.Gather per_source ->
     check_int "both sources placed" 2 (List.length per_source);
     let targets_of name =
       List.assoc_opt name
         (List.map (fun (s, ts) -> (s.Sql.table, ts)) per_source)
     in
     check_bool "pinned side targets one shard" true
       (match targets_of "b3" with Some [ _ ] -> true | _ -> false);
     check_bool "scattered side targets all shards" true
       (match targets_of "b2" with Some ts -> List.length ts = 4 | None -> false)
   | other -> Alcotest.failf "expected gather, got %s" (Router.route_to_string other));
  check_equivalent "gather join equals unsharded" r q;
  let c = Router.counters r in
  check_int "counted as a gather" 1 c.Router.gathers;
  check_int "pinned side pruned three shards" 3 c.Router.shards_pruned;
  check_int "five shard fetches in total" 5 c.Router.shards_touched

let test_colocated_join_stays_local () =
  let r = make_router 4 in
  (match Router.route r colocated_join with
   | Router.Fanout _ | Router.Pinned { reason = `Colocated; _ } -> ()
   | other ->
     Alcotest.failf "expected a shard-local join, got %s" (Router.route_to_string other));
  check_equivalent "co-partitioned join equals unsharded" r colocated_join

let test_route_signature_stable () =
  let r = make_router 4 in
  let signature q = Router.route_to_string (Router.route r q) in
  let q = pinned_b3 "y1" in
  check_string "signature is stable" (signature q) (signature q);
  check_bool "different keys, different pins" true
    (signature (pinned_b3 "y0") = signature (pinned_b3 "y0"))

(* --- sharded == unsharded, across shard counts and query shapes --- *)

let test_property_sharded_equals_unsharded () =
  List.iter
    (fun shards ->
      let r = make_router ~size:80 shards in
      let queries =
        List.concat_map
          (fun k ->
            let y = Printf.sprintf "y%d" k in
            [ pinned_b3 y; fanout_b1 y; gather_join y ])
          [ 0; 1; 2; 3; 4; 5 ]
        @ [ colocated_join; Sql.select_all "b2"; Sql.select_all "b3" ]
      in
      List.iteri
        (fun i q ->
          check_equivalent
            (Printf.sprintf "shards=%d query %d equivalent" shards i) r q)
        queries)
    [ 1; 2; 3; 4; 8 ]

(* --- determinism --- *)

let test_placement_deterministic () =
  let a = make_router 4 and b = make_router 4 in
  List.iter
    (fun (t, _) ->
      List.iter
        (fun i ->
          check_int
            (Printf.sprintf "%s slice %d same cardinality" t i)
            (R.Relation.cardinality
               (Braid_remote.Engine.table (Server.engine (Router.shard a i)) t))
            (R.Relation.cardinality
               (Braid_remote.Engine.table (Server.engine (Router.shard b i)) t)))
        [ 0; 1; 2; 3 ])
    partition_keys

let test_insert_routes_to_owner () =
  let r = make_router 4 in
  let row = [| V.Str "zz"; V.Str "c2"; V.Str "y1" |] in
  let owner = Router.owner_of_row r "b3" row in
  let card i =
    R.Relation.cardinality
      (Braid_remote.Engine.table (Server.engine (Router.shard r i)) "b3")
  in
  let before = List.init 4 card in
  Router.insert r "b3" row;
  let after = List.init 4 card in
  List.iteri
    (fun i b ->
      check_int
        (Printf.sprintf "shard %d delta" i)
        (if i = owner then 1 else 0)
        (List.nth after i - b))
    before;
  (* The pinned fetch sees the new row without touching other shards. *)
  check_bool "pinned fetch sees the insert" true
    (List.exists
       (fun t -> R.Tuple.equal t row)
       (R.Relation.to_list (relation_of (Router.exec r (pinned_b3 "y1")))))

(* --- fault isolation --- *)

let sick_and_healthy r =
  (* A key owned by each of two different shards, so the test is
     independent of where the hash lands. *)
  let owner y =
    match Router.route r (pinned_b3 y) with
    | Router.Pinned { shard; _ } -> shard
    | _ -> Alcotest.fail "pinned query did not pin"
  in
  let sick_key = "y0" in
  let sick = owner sick_key in
  let rec find k =
    let y = Printf.sprintf "y%d" k in
    if owner y <> sick then y else find (k + 1)
  in
  (sick_key, sick, find 1)

let test_one_shard_down_isolation () =
  let r = make_router 4 in
  let sick_key, sick, healthy_key = sick_and_healthy r in
  Router.set_faults r ~shard:sick
    (Some { Fault.none with Fault.error_rate = 1.0; seed = 3 });
  (match Router.exec r (pinned_b3 healthy_key) with
   | Rdi.Fresh _ -> ()
   | _ -> Alcotest.fail "healthy partition must stay Fresh");
  (match Router.exec r (pinned_b3 sick_key) with
   | Rdi.Fresh _ -> Alcotest.fail "sick partition cannot be Fresh"
   | Rdi.Stale _ | Rdi.Failed _ -> ());
  (* A fan-out touching the sick shard degrades to the merged healthy
     subset rather than failing outright. *)
  match Router.exec r (Sql.select_all "b3") with
  | Rdi.Stale (subset, _) ->
    let full = R.Relation.cardinality (unsharded r (Sql.select_all "b3")) in
    let got = R.Relation.cardinality subset in
    check_bool "merged subset is partial but non-empty" true (got > 0 && got < full)
  | Rdi.Fresh _ -> Alcotest.fail "fan-out over a sick shard cannot be Fresh"
  | Rdi.Failed _ -> Alcotest.fail "healthy slices must still be served"

let test_breaker_independence () =
  let policy = { Rdi.default_policy with Rdi.breaker_threshold = 2; max_retries = 0 } in
  let r = make_router ~policy 4 in
  let sick_key, sick, _ = sick_and_healthy r in
  Router.set_faults r ~shard:sick
    (Some { Fault.none with Fault.error_rate = 1.0; seed = 3 });
  for _ = 1 to 4 do
    ignore (Router.exec r (pinned_b3 sick_key))
  done;
  List.iteri
    (fun i state ->
      if i = sick then
        check_bool "sick breaker tripped" true (state = Rdi.Open)
      else check_bool (Printf.sprintf "shard %d breaker closed" i) true (state = Rdi.Closed))
    (Router.breakers r)

(* --- replication: failover, provenance honesty, anti-entropy --- *)

let test_property_replicated_equals_unreplicated () =
  List.iter
    (fun (shards, replicas) ->
      let r = make_router ~size:80 ~replicas shards in
      let queries =
        List.concat_map
          (fun k ->
            let y = Printf.sprintf "y%d" k in
            [ pinned_b3 y; fanout_b1 y; gather_join y ])
          [ 0; 1; 2; 3 ]
        @ [ colocated_join; Sql.select_all "b2"; Sql.select_all "b3" ]
      in
      List.iteri
        (fun i q ->
          match Router.exec r q with
          | Rdi.Fresh rel ->
            check_bool
              (Printf.sprintf "shards=%d R=%d query %d equivalent" shards
                 replicas i)
              true
              (sorted_rows rel = sorted_rows (unsharded r q))
          | _ ->
            Alcotest.failf "shards=%d R=%d query %d: fault-free read not Fresh"
              shards replicas i)
        queries;
      check_int
        (Printf.sprintf "shards=%d R=%d fault-free reads never fail over"
           shards replicas)
        0 (Router.counters r).Router.failovers;
      (* Fault-free writes apply inline on every copy: no lag anywhere. *)
      Router.insert r "b3" [| V.Str "zz"; V.Str "c2"; V.Str "y1" |];
      List.iter
        (fun i ->
          List.iter
            (fun (h : Router.replica_health) ->
              check_int
                (Printf.sprintf "shards=%d R=%d shard %d r%d lag-free" shards
                   replicas i h.Router.rh_replica)
                0 h.Router.rh_lag)
            (Router.replica_health r i))
        (List.init shards Fun.id))
    [ (1, 2); (2, 2); (4, 2); (4, 3) ]

let test_failover_when_breaker_open () =
  let policy =
    { Rdi.default_policy with Rdi.breaker_threshold = 2; max_retries = 0 }
  in
  let r = make_router ~policy ~replicas:2 1 in
  Router.set_replica_faults r ~shard:0 ~replica:0
    (Some { Fault.none with Fault.error_rate = 1.0; seed = 3 });
  (* Every read stays Fresh: the first two fail over after the primary's
     error; once its breaker opens the serving order demotes it and the
     backup is offered the read outright. *)
  for i = 1 to 4 do
    match Router.exec r (pinned_b3 "y0") with
    | Rdi.Fresh _ -> ()
    | _ -> Alcotest.failf "exec %d not Fresh despite a healthy backup" i
  done;
  let primary = List.hd (Router.replica_health r 0) in
  check_bool "primary breaker open" true (primary.Router.rh_breaker = Rdi.Open);
  let choice, why = Router.replica_choice r 0 in
  check_int "reads offered to the backup first" 1 choice;
  check_string "explained by the open breaker" "primary breaker open" why;
  check_int "every read cost a failover" 4 (Router.counters r).Router.failovers

let test_lagging_backup_serves_stale_subset () =
  let policy = { Rdi.default_policy with Rdi.max_retries = 0 } in
  let r = make_router ~policy ~replicas:2 1 in
  let full = R.Relation.cardinality (unsharded r (Sql.select_all "b3")) in
  (* Sever the backup and land writes: the replication log moves past it. *)
  Router.set_replica_faults r ~shard:0 ~replica:1
    (Some (Fault.severed ~seed:5 ~heal_after:max_int ()));
  let writes = 3 in
  for w = 1 to writes do
    Router.insert r "b3"
      [| V.Str (Printf.sprintf "zz%d" w); V.Str "c2"; V.Str "y0" |]
  done;
  (* Rejoin without repair (still lagging), then fail the primary: the
     read falls back to the lagging backup, which must answer honestly. *)
  Router.set_replica_faults r ~shard:0 ~replica:1 None;
  Router.set_replica_faults r ~shard:0 ~replica:0
    (Some { Fault.none with Fault.error_rate = 1.0; seed = 3 });
  (match Router.exec r (Sql.select_all "b3") with
   | Rdi.Stale (rel, Rdi.Replica_lag lag) ->
     check_int "declared lag equals the missed writes" writes lag;
     check_int "subset misses exactly the lagged writes" full
       (R.Relation.cardinality rel)
   | Rdi.Stale (_, f) ->
     Alcotest.failf "stale for the wrong reason: %s" (Rdi.failure_to_string f)
   | Rdi.Fresh _ -> Alcotest.fail "a lagging backup cannot serve Fresh"
   | Rdi.Failed _ -> Alcotest.fail "the reachable backup should have served");
  (* One anti-entropy round catches the backup up; the same read is Fresh
     again — still served by the backup, the primary is still down. *)
  check_int "one replica repaired" 1 (Router.tick_repair r);
  match Router.exec r (Sql.select_all "b3") with
  | Rdi.Fresh rel ->
    check_int "caught-up backup serves the full slice" (full + writes)
      (R.Relation.cardinality rel)
  | _ -> Alcotest.fail "a caught-up backup must serve Fresh"

let test_hinted_handoff_drains_on_rejoin () =
  let r = make_router ~replicas:2 1 in
  Router.set_replica_faults r ~shard:0 ~replica:1
    (Some (Fault.severed ~seed:5 ~heal_after:max_int ()));
  let writes = 4 in
  for w = 1 to writes do
    Router.insert r "b3"
      [| V.Str (Printf.sprintf "hh%d" w); V.Str "c2"; V.Str "y0" |]
  done;
  let c = Router.counters r in
  check_int "every missed write was hinted" writes c.Router.hinted_writes;
  let backup () = List.nth (Router.replica_health r 0) 1 in
  check_int "hints queued for the severed copy" writes (backup ()).Router.rh_hints;
  check_int "lag equals the hints" writes (backup ()).Router.rh_lag;
  (* While severed, anti-entropy cannot reach it. *)
  check_int "no repair across the partition" 0 (Router.tick_repair r);
  (* Rejoin: one round replays the log suffix and hands the hints off. *)
  Router.set_replica_faults r ~shard:0 ~replica:1 None;
  check_int "one replica repaired on rejoin" 1 (Router.tick_repair r);
  let c = Router.counters r in
  check_int "hints became handoffs" writes c.Router.handoffs;
  check_int "one repair recorded" 1 c.Router.repairs;
  check_int "no hints left" 0 (backup ()).Router.rh_hints;
  check_int "no lag left" 0 (backup ()).Router.rh_lag;
  let card rep =
    R.Relation.cardinality
      (Braid_remote.Engine.table (Server.engine (Router.replica r ~shard:0 rep)) "b3")
  in
  check_int "backup holds the primary's rows" (card 0) (card 1)

let test_crash_recovers_applied_offset () =
  let r = make_router ~replicas:2 1 in
  let card rep =
    R.Relation.cardinality
      (Braid_remote.Engine.table (Server.engine (Router.replica r ~shard:0 rep)) "b3")
  in
  (* Phase 1: fault-free writes — both copies apply inline. *)
  for w = 1 to 2 do
    Router.insert r "b3"
      [| V.Str (Printf.sprintf "ck%d" w); V.Str "c2"; V.Str "y0" |]
  done;
  check_int "backup applied the replicated writes" 2
    (Router.applied r ~shard:0 ~replica:1);
  (* Phase 2: sever the backup — further writes are log-only for it. *)
  Router.set_replica_faults r ~shard:0 ~replica:1
    (Some (Fault.severed ~seed:5 ~heal_after:max_int ()));
  for w = 3 to 5 do
    Router.insert r "b3"
      [| V.Str (Printf.sprintf "ck%d" w); V.Str "c2"; V.Str "y0" |]
  done;
  let before = card 1 in
  check_int "applied offset stops at the partition" 2
    (Router.applied r ~shard:0 ~replica:1);
  (* Crash: the engine is rebuilt from the base snapshot plus the log
     prefix below the applied offset — exactly the pre-partition state. *)
  Router.crash_replica r ~shard:0 ~replica:1;
  check_int "applied offset survives the crash" 2
    (Router.applied r ~shard:0 ~replica:1);
  check_int "recovered state = snapshot + applied log prefix" before (card 1);
  check_int "still lagging the unreplayed suffix" 3
    (List.nth (Router.replica_health r 0) 1).Router.rh_lag;
  (* Heal + repair: replay from the recovered offset catches it up. *)
  Router.set_replica_faults r ~shard:0 ~replica:1 None;
  check_int "one replica repaired" 1 (Router.tick_repair r);
  check_int "fully caught up" (card 0) (card 1)

(* The router's fleet totals are the owners' sums over every replica —
   backups included — under a faulted primary and a read/write mix. *)
let test_fleet_totals_sum_every_replica () =
  let policy = { Rdi.default_policy with Rdi.max_retries = 1 } in
  let r = make_router ~policy ~replicas:2 2 in
  Router.set_replica_faults r ~shard:1 ~replica:0
    (Some { Fault.none with Fault.error_rate = 0.5; seed = 11 });
  for k = 0 to 11 do
    let y = Printf.sprintf "y%d" (k mod 4) in
    if k mod 3 = 2 then
      Router.insert r "b3" [| V.Str (Printf.sprintf "mx%d" k); V.Str "c2"; V.Str y |]
    else ignore (Router.exec r (if k mod 2 = 0 then pinned_b3 y else fanout_b1 y));
    ignore (Router.tick_repair r)
  done;
  let each f =
    List.concat_map (fun shard -> List.map (f ~shard) [ 0; 1 ]) [ 0; 1 ]
  in
  check_bool "the faulted primary cost failovers" true
    ((Router.counters r).Router.failovers > 0);
  check_bool "Router.stats = Server.sum over every replica" true
    (Router.stats r = Server.sum (each (fun ~shard i -> Server.stats (Router.replica r ~shard i))));
  check_bool "Router.rdi_stats = Rdi.sum over every replica" true
    (Router.rdi_stats r
    = Rdi.sum (each (fun ~shard i -> Rdi.stats (Router.replica_rdi r ~shard i))))

(* The trace is the remote path's only per-request record, so it must say
   which copy every RDI request went to: each [rdi.exec] of the chaos leg
   sits directly under a [shard.read] naming one shard and one replica,
   and no [shard.read] holds more than one request. *)
let test_chaos_reads_attributed () =
  let profile = List.assoc "chaos" Braid_serve.Soak.legs in
  let tr = Trace.create () in
  Trace.install tr;
  Fun.protect ~finally:Trace.uninstall (fun () ->
      ignore (Braid_serve.Soak.run profile ~seed:1 ~waves:120));
  check_int "nothing dropped" 0 (Trace.dropped tr);
  let spans = Trace.spans tr in
  let by_id = Hashtbl.create 4096 in
  List.iter (fun (sp : Trace.span) -> Hashtbl.replace by_id sp.Trace.id sp) spans;
  let int_arg (sp : Trace.span) key =
    match List.filter (fun (k, _) -> k = key) sp.Trace.args with
    | [ (_, Trace.Int n) ] -> Some n
    | _ -> None
  in
  let reads_used = Hashtbl.create 1024 in
  let copies = Hashtbl.create 8 in
  let execs = List.filter (fun (sp : Trace.span) -> sp.Trace.name = "rdi.exec") spans in
  check_bool "the leg issued RDI requests" true (List.length execs > 100);
  List.iter
    (fun (sp : Trace.span) ->
      match Option.bind sp.Trace.parent (Hashtbl.find_opt by_id) with
      | Some (read : Trace.span) when read.Trace.name = "shard.read" ->
        (match (int_arg read "shard", int_arg read "replica") with
         | Some shard, Some replica ->
           check_bool "shard in range" true (shard >= 0 && shard < profile.Braid_serve.Soak.shards);
           check_bool "replica in range" true
             (replica >= 0 && replica < profile.Braid_serve.Soak.replicas);
           check_bool "one request per shard.read" false (Hashtbl.mem reads_used read.Trace.id);
           Hashtbl.replace reads_used read.Trace.id ();
           Hashtbl.replace copies (shard, replica) ()
         | _ -> Alcotest.fail "shard.read without exactly one shard and replica")
      | _ -> Alcotest.failf "rdi.exec #%d is not under a shard.read" sp.Trace.id)
    execs;
  check_bool "every shard's primary was read" true
    (List.for_all (fun i -> Hashtbl.mem copies (i, 0)) [ 0; 1; 2; 3 ]);
  check_bool "a backup served while the primary was severed" true
    (Hashtbl.to_seq_keys copies |> Seq.exists (fun (_, r) -> r > 0))

(* The single server is a one-shard, one-replica router whose only
   replica is the coordinator: one copy of the data, one application of
   each write (a coordinator replica that re-applied it would count the
   row twice) and one RDI, whose stats are the CMS's. *)
let test_single_server_is_coordinator () =
  let data () = Braid_workload.Datagen.paper_example ~size:20 () in
  let sys = Braid.System.build ~kb:(Braid_logic.Kb.create ()) ~data:(data ()) () in
  let r = Braid.System.router sys in
  check_int "one shard" 1 (Router.shard_count r);
  check_int "one replica" 1 (Router.replica_count r);
  check_bool "the only replica is the coordinator" true
    (Router.replica r ~shard:0 0 == Router.coordinator r);
  check_bool "the coordinator is the system's server" true
    (Router.coordinator r == Braid.System.server sys);
  let server = Server.create () in
  List.iter (Braid_remote.Engine.load (Server.engine server)) (data ());
  let cms = Braid.Cms.create ~config:Braid_planner.Qpo.no_advice_config ~maintain:true server in
  let r = Braid.Cms.router cms in
  check_bool "the CMS's router reads the server itself" true (Router.replica r ~shard:0 0 == server);
  let b2 =
    Braid_caql.Ast.conj
      [ Braid_logic.Term.Var "X"; Braid_logic.Term.Var "Z" ]
      [ Braid_logic.Atom.make "b2" [ Braid_logic.Term.Var "X"; Braid_logic.Term.Var "Z" ] ]
  in
  ignore (Braid_stream.Tuple_stream.to_relation (Braid.Cms.query cms b2).Braid_planner.Qpo.stream);
  check_int "one fetch" 1 (Braid.Cms.rdi_stats cms).Rdi.requests;
  check_bool "Cms.rdi_stats = the replica's own RDI stats" true
    (Braid.Cms.rdi_stats cms = Rdi.stats (Router.rdi r 0));
  check_bool "Cms.remote_stats = the server's own stats" true
    (Braid.Cms.remote_stats cms = Server.stats server);
  let card () = R.Relation.cardinality (Braid_remote.Engine.table (Server.engine server) "b2") in
  let before = card () in
  Braid.Cms.apply_insert cms "b2" [| V.Str "x-new"; V.Str "z-new" |];
  check_int "the coordinator took the row once" (before + 1) (card ());
  check_int "maintenance ran once" 1
    (Braid.Cms.delta_totals cms).Braid_cache.Maintain.maintained;
  check_int "no replication log" 0 (Router.log_length r 0)

let suites : unit Alcotest.test list =
  [
    ( "shard router",
      [
        Alcotest.test_case "pinned touches exactly one shard" `Quick
          test_pinned_exactly_one_shard;
        Alcotest.test_case "pinned charges only the owner's scan" `Quick
          test_pinned_charges_only_owner_scan;
        Alcotest.test_case "unpartitioned tables live on a home shard" `Quick
          test_unpartitioned_home_shard;
        Alcotest.test_case "fan-out routes and merges" `Quick test_fanout_route_and_merge;
        Alcotest.test_case "fan-out re-deduplicates DISTINCT" `Quick
          test_fanout_distinct_re_deduplicates;
        Alcotest.test_case "gather pins one side, scatters the other" `Quick
          test_gather_route_and_equivalence;
        Alcotest.test_case "co-partitioned joins stay shard-local" `Quick
          test_colocated_join_stays_local;
        Alcotest.test_case "route signatures are stable" `Quick test_route_signature_stable;
        Alcotest.test_case "sharded == unsharded across shapes and counts" `Quick
          test_property_sharded_equals_unsharded;
        Alcotest.test_case "placement is deterministic" `Quick test_placement_deterministic;
        Alcotest.test_case "inserts route to the owning shard" `Quick
          test_insert_routes_to_owner;
        Alcotest.test_case "one shard down degrades only its slice" `Quick
          test_one_shard_down_isolation;
        Alcotest.test_case "breakers trip independently" `Quick test_breaker_independence;
        Alcotest.test_case "the single server is a 1x1 router over the coordinator" `Quick
          test_single_server_is_coordinator;
      ] );
    ( "replication",
      [
        Alcotest.test_case "replicated == unreplicated when fault-free" `Quick
          test_property_replicated_equals_unreplicated;
        Alcotest.test_case "open breaker fails reads over to the backup" `Quick
          test_failover_when_breaker_open;
        Alcotest.test_case "lagging backup serves an honest Stale subset" `Quick
          test_lagging_backup_serves_stale_subset;
        Alcotest.test_case "hinted writes hand off on rejoin" `Quick
          test_hinted_handoff_drains_on_rejoin;
        Alcotest.test_case "crash recovery replays to the applied offset" `Quick
          test_crash_recovers_applied_offset;
        Alcotest.test_case "fleet totals sum every replica" `Quick
          test_fleet_totals_sum_every_replica;
        Alcotest.test_case "every chaos read names its shard and replica" `Quick
          test_chaos_reads_attributed;
      ] );
  ]
