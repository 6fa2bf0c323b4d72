(* The benchmark harness.

   With no argument, runs every experiment of Braid_experiments.All (one
   per architectural claim / figure of the paper — see DESIGN.md §5 and
   EXPERIMENTS.md) and prints its result table, then the bechamel
   microbenchmarks.

     dune exec bench/main.exe                       # everything
     dune exec bench/main.exe e5 e8                 # selected experiments
     dune exec bench/main.exe micro                 # microbenchmarks only
     dune exec bench/main.exe -- --json PATH        # perf trajectory JSON
     dune exec bench/main.exe -- --check PATH       # CI gate (see below)
     dune exec bench/main.exe -- --seed 5 --json p  # explicit PRNG seed
     dune exec bench/main.exe -- --serve single-session --seed 1 --waves 2000 --check
                                                    # one serve-soak leg as a CI gate
     dune exec bench/main.exe -- --seed 1 --trace out.json
                                                    # Chrome-loadable span trace

   The --json mode writes the bechamel estimates plus hardware-independent
   experiment counters to PATH (schema documented in EXPERIMENTS.md); the
   committed BENCH_relalg.json is a snapshot of that output. --check
   regenerates only the deterministic counters and fails (exit 1) if the
   snapshot at PATH disagrees — the CI bench-smoke job runs this; timings
   are uploaded as artifacts but never gated on. --seed overrides the
   experiments' default PRNG seeds (the snapshot uses the defaults).

   --trace PATH installs the Braid_obs span tracer for the run and writes
   every recorded span on exit: Chrome trace_event JSON by default,
   one-object-per-line JSONL when PATH ends in .jsonl (formats documented
   in docs/OBSERVABILITY.md). Spans use a logical tick clock, so the span
   count for a fixed --seed is identical across runs. *)

module L = Braid_logic
module T = L.Term
module R = Braid_relalg
module V = R.Value
module A = Braid_caql.Ast
module Sub = Braid_subsume.Subsumption

(* --- bechamel microbenchmarks: the hot primitives --- *)

let v x = T.Var x
let s x = T.Const (V.Str x)
let atom p args = L.Atom.make p args

let bench_unify =
  let a = atom "p" [ v "X"; s "c"; v "Y"; v "Z" ] in
  let b = atom "p" [ s "a"; s "c"; v "W"; s "d" ] in
  Bechamel.Test.make ~name:"unify_atoms"
    (Bechamel.Staged.stage (fun () -> ignore (L.Unify.atoms L.Subst.empty a b)))

let bench_match =
  let general = atom "p" [ v "X"; v "Y"; v "Z"; v "W" ] in
  let specific = atom "p" [ s "a"; v "Q"; s "b"; v "R" ] in
  Bechamel.Test.make ~name:"one_way_match"
    (Bechamel.Staged.stage (fun () ->
         ignore (L.Unify.match_atoms L.Subst.empty ~general ~specific)))

let bench_subsumption =
  let element =
    {
      Sub.id = "e";
      def =
        A.conj [ v "X"; v "Z" ]
          [ atom "b" [ v "X"; v "Y" ]; atom "c" [ v "Y"; v "Z" ] ];
    }
  in
  let query =
    A.conj [ v "U" ] [ atom "b" [ v "U"; v "V" ]; atom "c" [ v "V"; s "k" ] ]
  in
  Bechamel.Test.make ~name:"subsumption_covers"
    (Bechamel.Staged.stage (fun () -> ignore (Sub.covers element query)))

let bench_hash_join =
  let schema = R.Schema.make [ ("x", V.Tint); ("y", V.Tint) ] in
  let rel n seed =
    R.Relation.of_tuples ~name:"r" schema
      (List.init n (fun i -> [| V.Int ((i * seed) mod 97); V.Int i |]))
  in
  let a = rel 1000 7 and b = rel 1000 13 in
  Bechamel.Test.make ~name:"hash_join_1k_x_1k"
    (Bechamel.Staged.stage (fun () ->
         ignore (R.Ops.hash_join ~left_cols:[ 0 ] ~right_cols:[ 0 ] a b)))

let bench_index_nl_join =
  let schema = R.Schema.make [ ("x", V.Tint); ("y", V.Tint) ] in
  (* unique join keys (7 and 13 are coprime with 1000), so every probe
     touches exactly one single-tuple bucket — the access-path win the
     enumerator exploits over building a hash table per execution *)
  let rel n seed name =
    R.Relation.of_tuples ~name schema
      (List.init n (fun i -> [| V.Int (i * seed mod n); V.Int i |]))
  in
  let a = rel 1000 7 "l" and b = rel 1000 13 "r" in
  let ix = R.Index.build b [ 0 ] in
  Bechamel.Test.make ~name:"index_nl_join_1k_x_1k"
    (Bechamel.Staged.stage (fun () ->
         ignore (R.Ops.index_nl_join_count ~left_cols:[ 0 ] ix a b)))

let bench_merge_join_sorted =
  let schema = R.Schema.make [ ("x", V.Tint); ("y", V.Tint) ] in
  let sorted name = R.Relation.of_tuples ~name schema (List.init 1000 (fun i -> [| V.Int i; V.Int (i * 2) |])) in
  let a = sorted "l" and b = sorted "r" in
  Bechamel.Test.make ~name:"merge_join_sorted_1k_x_1k"
    (Bechamel.Staged.stage (fun () ->
         ignore (R.Ops.merge_join ~left_cols:[ 0 ] ~right_cols:[ 0 ] a b)))

let sel_schema = R.Schema.make [ ("k", V.Tint); ("v", V.Tint) ]

(* 10k rows, 100 distinct keys: an equality selection matches 100 rows. *)
let sel_relation =
  R.Relation.of_tuples ~name:"s" sel_schema
    (List.init 10_000 (fun i -> [| V.Int (i mod 100); V.Int i |]))

let bench_select_scan =
  let pred = R.Row_pred.Cmp (R.Row_pred.Eq, R.Row_pred.Col 0, R.Row_pred.Lit (V.Int 42)) in
  Bechamel.Test.make ~name:"select_scan_10k"
    (Bechamel.Staged.stage (fun () -> ignore (R.Ops.select pred sel_relation)))

let bench_select_indexed =
  let ix = R.Index.build sel_relation [ 0 ] in
  Bechamel.Test.make ~name:"select_indexed_10k"
    (Bechamel.Staged.stage (fun () ->
         ignore (R.Ops.select_indexed ix [ V.Int 42 ] sel_relation)))

let bench_covering_index_scan =
  let ix = R.Index.build sel_relation [ 0 ] in
  let key_schema = R.Schema.make [ ("k", V.Tint) ] in
  Bechamel.Test.make ~name:"covering_index_scan_10k"
    (Bechamel.Staged.stage (fun () ->
         ignore (R.Ops.index_only_scan ix key_schema ~distinct:true ())))

let bench_semijoin_fetch =
  (* 10k rows over 50 keys; the IN-filter keeps 3 of them, so the engine's
     bitmap path touches ~600 rows instead of shipping all 10k *)
  let server = Braid_remote.Server.create () in
  let eng = Braid_remote.Server.engine server in
  Braid_remote.Engine.load eng
    (R.Relation.of_tuples ~name:"f" sel_schema
       (List.init 10_000 (fun i -> [| V.Int (i mod 50); V.Int i |])));
  let q =
    Braid_remote.Sql.with_semijoins
      {
        Braid_remote.Sql.distinct = false;
        columns = [];
        from = [ { Braid_remote.Sql.table = "f"; alias = "f" } ];
        where = [];
        semijoins = [];
      }
      [ ({ Braid_remote.Sql.src = "f"; attr = "k" }, [ V.Int 1; V.Int 2; V.Int 3 ]) ]
  in
  Bechamel.Test.make ~name:"semijoin_reduced_fetch"
    (Bechamel.Staged.stage (fun () -> ignore (Braid_remote.Engine.execute eng q)))

(* The serve_rw remote hot spot: a covering index-only scan over 2,500
   string keys (two rows each) whose semi-join filter lists 256 values, 250
   of them present. Planning picks the index-only path; every key is tested
   against the IN residual. *)
let bench_semijoin_index_only =
  let eng = Braid_remote.Engine.create () in
  let key i = V.Str (Printf.sprintf "sup%04d" i) in
  Braid_remote.Engine.load eng
    (R.Relation.of_tuples ~name:"supplies"
       (R.Schema.make [ ("k", V.Tstr); ("v", V.Tint) ])
       (List.init 5_000 (fun i -> [| key (i mod 2_500); V.Int i |])));
  let k = { Braid_remote.Sql.src = "s"; attr = "k" } in
  let q =
    Braid_remote.Sql.with_semijoins
      {
        Braid_remote.Sql.distinct = false;
        columns = [ Braid_remote.Sql.Col k ];
        from = [ { Braid_remote.Sql.table = "supplies"; alias = "s" } ];
        where = [];
        semijoins = [];
      }
      [ (k, List.init 256 (fun i -> key (i * 10))) ]
  in
  Bechamel.Test.make ~name:"semijoin_index_only_2500x256"
    (Bechamel.Staged.stage (fun () -> ignore (Braid_remote.Engine.execute eng q)))

(* serve_rw's remote write shape: one insert and one delete of a new
   (supplier, part) key, then a covering index-only scan over the ~2,550
   composite keys of a 2,650-shipment supplies table. The writes leave the
   table as it was, so every run does the same work. *)
let bench_index_only_after_write =
  let eng = Braid_remote.Engine.create () in
  List.iter (Braid_remote.Engine.load eng)
    (Braid_workload.Datagen.supplier_parts ~suppliers:100 ~parts:400 ~shipments:2_650 ());
  let col attr = Braid_remote.Sql.Col { Braid_remote.Sql.src = "s"; attr } in
  let q =
    {
      Braid_remote.Sql.distinct = false;
      columns = [ col "supplier"; col "part" ];
      from = [ { Braid_remote.Sql.table = "supplies"; alias = "s" } ];
      where = [];
      semijoins = [];
    }
  in
  let row = [| V.Str "sup100"; V.Str "prt400"; V.Int 1 |] in
  Bechamel.Test.make ~name:"index_only_after_write_2500"
    (Bechamel.Staged.stage (fun () ->
         Braid_remote.Engine.insert eng "supplies" row;
         ignore (Braid_remote.Engine.delete eng "supplies" row);
         ignore (Braid_remote.Engine.execute eng q)))

let bench_stream_pull =
  let schema = R.Schema.make [ ("n", V.Tint) ] in
  Bechamel.Test.make ~name:"stream_pull_1k"
    (Bechamel.Staged.stage (fun () ->
         let stream =
           Braid_stream.Tuple_stream.of_list schema
             (List.init 1000 (fun i -> [| V.Int i |]))
         in
         let c = Braid_stream.Tuple_stream.cursor stream in
         let rec drain () =
           match Braid_stream.Tuple_stream.next c with Some _ -> drain () | None -> ()
         in
         drain ()))

let bench_parser =
  let text = "eligible(S, C) :- prereq(C, R) & completed(S, R) & S <> C." in
  Bechamel.Test.make ~name:"caql_parse"
    (Bechamel.Staged.stage (fun () -> ignore (Braid_caql.Parser.parse_clause text)))

let bench_tracker =
  let path =
    Braid_advice.Ast.Seq
      ( [
          Braid_advice.Ast.Pattern ("d1", []);
          Braid_advice.Ast.Alt
            ([ Braid_advice.Ast.Pattern ("d2", []); Braid_advice.Ast.Pattern ("d3", []) ], Some 1);
        ],
        { Braid_advice.Ast.lo = 0; hi = Braid_advice.Ast.Inf } )
  in
  let nfa = Braid_advice.Tracker.compile path in
  Bechamel.Test.make ~name:"path_tracking_step"
    (Bechamel.Staged.stage (fun () ->
         let tr = Braid_advice.Tracker.start nfa in
         ignore (Braid_advice.Tracker.advance tr "d1");
         ignore (Braid_advice.Tracker.advance tr "d2");
         ignore (Braid_advice.Tracker.next_possible tr)))

(* Exact-match lookup in a cache of 256 two-atom elements: one probe with
   a renamed variant of a cached definition (hit), one with a definition
   nothing caches (miss). *)
let bench_find_exact =
  let module CMgr = Braid_cache.Cache_manager in
  let def i x y z =
    A.conj [ v x; v y ]
      [ atom "route" [ v x; v z ]; atom "link" [ v z; v y; T.Const (V.Int i) ] ]
  in
  let cache = CMgr.create ~capacity_bytes:max_int () in
  let schema = R.Schema.make [ ("x", V.Tint); ("y", V.Tint) ] in
  for i = 0 to 255 do
    ignore
      (CMgr.insert cache ~def:(def i "X" "Y" "Z")
         (Braid_cache.Element.Extension (R.Relation.create schema)))
  done;
  let hit = def 200 "A" "B" "C" and miss = def 256 "A" "B" "C" in
  Bechamel.Test.make ~name:"cache_find_exact_256"
    (Bechamel.Staged.stage (fun () ->
         ignore (CMgr.find_exact cache hit);
         ignore (CMgr.find_exact cache miss)))

(* One magic-set fixpoint: ancestor("p0", Y), magic-transformed, solved
   semi-naively over the extensions of a 200-person family forest. *)
let bench_datalog_ancestor =
  let rels = Braid_workload.Datagen.family ~persons:200 ~fanout:3 () in
  let base p = List.find_opt (fun r -> R.Relation.name r = p) rels in
  let m =
    Option.get
      (Braid_ie.Magic.transform (Braid_workload.Kbgen.ancestor ())
         (atom "ancestor" [ s "p0"; v "Y" ]))
  in
  Bechamel.Test.make ~name:"datalog_ancestor_root_200"
    (Bechamel.Staged.stage (fun () ->
         ignore (Braid_ie.Datalog.solve m.Braid_ie.Magic.kb ~base m.Braid_ie.Magic.query)))

let micro_tests =
  [
    bench_unify;
    bench_match;
    bench_subsumption;
    bench_hash_join;
    bench_index_nl_join;
    bench_merge_join_sorted;
    bench_select_scan;
    bench_select_indexed;
    bench_covering_index_scan;
    bench_semijoin_fetch;
    bench_semijoin_index_only;
    bench_index_only_after_write;
    bench_stream_pull;
    bench_parser;
    bench_tracker;
    bench_find_exact;
    bench_datalog_ancestor;
  ]

(* Run every microbenchmark and return [(name, ns_per_run)] in declaration
   order; a test bechamel could not estimate reports [nan]. Each test is
   measured over several independent bechamel rounds and reports the
   minimum OLS estimate: scheduler preemption and GC slices only ever push
   a round's estimate *up*, so the per-round minimum is the low-noise
   estimator of the true cost. *)
let micro_rounds = 3

let micro_estimates () =
  let benchmark test =
    let open Bechamel in
    (* Start each round from a settled heap so one benchmark's floating
       garbage does not show up as a major-GC slice in the next one's
       samples. *)
    Gc.compact ();
    let instances = [ Toolkit.Instance.monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 100) () in
    let raw = Benchmark.all cfg instances test in
    let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
    Analyze.all ols (Toolkit.Instance.monotonic_clock) raw
  in
  let round test =
    Hashtbl.fold
      (fun name ols acc ->
        let est =
          match Bechamel.Analyze.OLS.estimates ols with
          | Some [ est ] -> est
          | Some _ | None -> Float.nan
        in
        (name, est) :: acc)
      (benchmark test) []
  in
  List.concat_map
    (fun test ->
      let rounds = List.init micro_rounds (fun _ -> round test) in
      match rounds with
      | [] -> []
      | first :: rest ->
        List.map
          (fun (name, est) ->
            let best =
              List.fold_left
                (fun best r ->
                  match List.assoc_opt name r with
                  | Some e when not (Float.is_nan e) ->
                    if Float.is_nan best then e else Float.min best e
                  | Some _ | None -> best)
                est rest
            in
            (name, best))
          first)
    micro_tests

let run_micro () =
  print_endline "== microbenchmarks (bechamel) ==";
  List.iter
    (fun (name, est) ->
      if Float.is_nan est then Printf.printf "%-24s (no estimate)\n" name
      else Printf.printf "%-24s %12.1f ns/run\n" name est)
    (micro_estimates ())

(* --- perf trajectory (--json) --- *)

(* Hardware-independent counters demonstrating the index-accelerated remote
   scan path: the same equality query answered with and against a full
   scan must agree on the result while scanning far fewer rows. *)
let remote_scan_counters () =
  let server = Braid_remote.Server.create () in
  let eng = Braid_remote.Server.engine server in
  let n = 10_000 in
  Braid_remote.Engine.load eng
    (R.Relation.of_tuples ~name:"t" sel_schema
       (List.init n (fun i -> [| V.Int (i mod 100); V.Int i |])));
  let q =
    {
      Braid_remote.Sql.distinct = false;
      columns = [];
      from = [ { Braid_remote.Sql.table = "t"; alias = "t" } ];
      where =
        [ (R.Row_pred.Eq, Braid_remote.Sql.Col { Braid_remote.Sql.src = "t"; attr = "k" },
           Braid_remote.Sql.Const (V.Int 42)) ];
      semijoins = [];
    }
  in
  let result, scanned = Braid_remote.Engine.execute eng q in
  (n, R.Relation.cardinality result, scanned)

(* Deterministic plan-choice counters: a fixed query mix through one engine
   must pick the same access paths and join strategies on every machine. *)
let plan_choice_counters () =
  let server = Braid_remote.Server.create () in
  let eng = Braid_remote.Server.engine server in
  Braid_remote.Engine.load eng
    (R.Relation.of_tuples ~name:"cust"
       (R.Schema.make [ ("ck", V.Tint); ("region", V.Tint) ])
       (List.init 800 (fun i -> [| V.Int i; V.Int (i mod 8) |])));
  Braid_remote.Engine.load eng
    (R.Relation.of_tuples ~name:"ord"
       (R.Schema.make [ ("ck", V.Tint); ("pk", V.Tint) ])
       (List.init 2000 (fun i -> [| V.Int (i * 7 mod 800); V.Int (i mod 50) |])));
  Braid_remote.Engine.load eng
    (R.Relation.of_tuples ~name:"prod"
       (R.Schema.make [ ("pk", V.Tint); ("cat", V.Tint) ])
       (List.init 50 (fun i -> [| V.Int i; V.Int (i mod 5) |])));
  let col src attr = Braid_remote.Sql.Col { Braid_remote.Sql.src; attr } in
  let three_way =
    {
      Braid_remote.Sql.distinct = false;
      columns = [ col "c" "ck"; col "p" "cat" ];
      from =
        [
          { Braid_remote.Sql.table = "ord"; alias = "o" };
          { Braid_remote.Sql.table = "prod"; alias = "p" };
          { Braid_remote.Sql.table = "cust"; alias = "c" };
        ];
      where =
        [
          (R.Row_pred.Eq, col "o" "ck", col "c" "ck");
          (R.Row_pred.Eq, col "o" "pk", col "p" "pk");
          (R.Row_pred.Eq, col "c" "region", Braid_remote.Sql.Const (V.Int 3));
        ];
      semijoins = [];
    }
  in
  let covering =
    {
      Braid_remote.Sql.distinct = true;
      columns = [ col "c" "region" ];
      from = [ { Braid_remote.Sql.table = "cust"; alias = "c" } ];
      where = [];
      semijoins = [];
    }
  in
  let filtered =
    Braid_remote.Sql.with_semijoins
      { covering with Braid_remote.Sql.distinct = false; columns = [] }
      [ ({ Braid_remote.Sql.src = "c"; attr = "region" }, [ V.Int 1; V.Int 5 ]) ]
  in
  ignore (Braid_remote.Engine.execute eng three_way);
  ignore (Braid_remote.Engine.execute eng covering);
  ignore (Braid_remote.Engine.execute eng filtered);
  Braid_remote.Engine.plan_counters eng

(* The deterministic "experiments" member of the JSON: hardware-independent
   counters only. Every number here derives from fixed (or --seed-supplied)
   PRNG seeds and the simulated cost model, so the emitted text is
   byte-identical across runs and machines — which is what lets CI gate on
   it (--check) while the bechamel timings above it are reported but never
   compared. *)
let experiments_json ?seed () =
  let e10_rows, _ = Braid_experiments.Exp_indexing.run ?seed ~probes:60 ~size:120 () in
  let e13_rows, _ = Braid_experiments.Exp_faults.run ?seed () in
  let e14_rows, _ = Braid_experiments.Exp_serve.run ?seed () in
  let e15_rows, _ = Braid_experiments.Exp_join_planning.run ?seed () in
  let (e16_mix, e16_soak, e16_avail), _ = Braid_experiments.Exp_sharding.run ?seed () in
  let e17_rows, _ = Braid_experiments.Exp_replication.run ?seed () in
  let (e18_rows, e18_rec), _ = Braid_experiments.Exp_ivm.run ?seed () in
  let (e19_rows, e19_set), _ = Braid_experiments.Exp_set_oriented.run ?seed () in
  let table_card, result_rows, scanned = remote_scan_counters () in
  let pc = plan_choice_counters () in
  let b = Buffer.create 4096 in
  let out fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  out "  \"experiments\": {\n";
  out "    \"remote_indexed_scan\": {\"table_cardinality\": %d, \"result_rows\": %d, \"rows_scanned\": %d},\n"
    table_card result_rows scanned;
  out "    \"e10_indexing\": [\n";
  List.iteri
    (fun i (r : Braid_experiments.Exp_indexing.row) ->
      out
        "      {\"label\": \"%s\", \"probes\": %d, \"tuples_touched\": %d, \"local_ms\": %.1f}%s\n"
        (Braid_obs.Trace.escape r.Braid_experiments.Exp_indexing.label)
        r.Braid_experiments.Exp_indexing.probes
        r.Braid_experiments.Exp_indexing.tuples_touched
        r.Braid_experiments.Exp_indexing.local_ms
        (if i = List.length e10_rows - 1 then "" else ","))
    e10_rows;
  out "    ],\n";
  out "    \"e13_faults\": [\n";
  List.iteri
    (fun i (r : Braid_experiments.Exp_faults.row) ->
      let open Braid_experiments.Exp_faults in
      out
        "      {\"error_rate\": %.2f, \"queries\": %d, \"answered\": %d, \"fresh\": %d, \
         \"degraded\": %d, \"requests\": %d, \"retries\": %d, \"trips\": %d, \
         \"deadline_misses\": %d, \"stale_serves\": %d, \"fast_fails\": %d}%s\n"
        r.error_rate r.queries r.answered r.fresh r.degraded r.requests r.retries
        r.trips r.deadline_misses r.stale_serves r.fast_fails
        (if i = List.length e13_rows - 1 then "" else ","))
    e13_rows;
  out "    ],\n";
  out "    \"e14_serve\": [\n";
  List.iteri
    (fun i (r : Braid_experiments.Exp_serve.row) ->
      let open Braid_experiments.Exp_serve in
      out
        "      {\"sessions\": %d, \"submitted\": %d, \"answered\": %d, \"shed\": %d, \
         \"coalesce_identical\": %d, \"coalesce_subsumed\": %d, \"remote_requests\": %d, \
         \"elapsed_ms\": %.1f}%s\n"
        r.sessions r.submitted r.answered r.shed r.coalesce_identical
        r.coalesce_subsumed r.remote_requests r.elapsed_ms
        (if i = List.length e14_rows - 1 then "" else ","))
    e14_rows;
  out "    ],\n";
  out "    \"e15_join_planning\": [\n";
  List.iteri
    (fun i (r : Braid_experiments.Exp_join_planning.row) ->
      let open Braid_experiments.Exp_join_planning in
      out
        "      {\"label\": \"%s\", \"scanned\": %d, \"transferred\": %d, \
         \"modeled_ms\": %.1f, \"rows\": %d}%s\n"
        (Braid_obs.Trace.escape r.label) r.scanned r.transferred r.modeled_ms r.rows_out
        (if i = List.length e15_rows - 1 then "" else ","))
    e15_rows;
  out "    ],\n";
  out "    \"e16_sharding_mix\": [\n";
  List.iteri
    (fun i (r : Braid_experiments.Exp_sharding.row) ->
      let open Braid_experiments.Exp_sharding in
      out
        "      {\"shards\": %d, \"queries\": %d, \"pinned\": %d, \"fanouts\": %d, \
         \"gathers\": %d, \"shards_touched\": %d, \"shards_pruned\": %d, \
         \"scanned\": %d, \"fresh\": %d, \"degraded\": %d}%s\n"
        r.shards r.queries r.pinned r.fanouts r.gathers r.shards_touched
        r.shards_pruned r.scanned r.fresh r.degraded
        (if i = List.length e16_mix - 1 then "" else ","))
    e16_mix;
  out "    ],\n";
  out "    \"e16_sharding_soak\": [\n";
  List.iteri
    (fun i (r : Braid_experiments.Exp_sharding.soak_row) ->
      let open Braid_experiments.Exp_sharding in
      out
        "      {\"shards\": %d, \"answered\": %d, \"fresh\": %d, \"degraded\": %d, \
         \"pinned\": %d, \"fanouts\": %d, \"gathers\": %d, \"shards_pruned\": %d, \
         \"remote_requests\": %d}%s\n"
        r.sk_shards r.sk_answered r.sk_fresh r.sk_degraded r.sk_pinned
        r.sk_fanouts r.sk_gathers r.sk_pruned r.sk_remote_requests
        (if i = List.length e16_soak - 1 then "" else ","))
    e16_soak;
  out "    ],\n";
  (let a = e16_avail in
   let open Braid_experiments.Exp_sharding in
   out
     "    \"e16_one_shard_down\": {\"shards\": %d, \"sick_shard\": %d, \
      \"pinned_queries\": %d, \"healthy_fresh\": %d, \"healthy_degraded\": %d, \
      \"sick_queries\": %d, \"sick_degraded\": %d, \"scatter_queries\": %d, \
      \"scatter_degraded\": %d},\n"
     a.av_shards a.sick_shard a.pinned_queries a.healthy_fresh
     a.healthy_degraded a.sick_queries a.sick_degraded a.scatter_queries
     a.scatter_degraded);
  out "    \"e17_replication\": [\n";
  List.iteri
    (fun i (r : Braid_experiments.Exp_replication.row) ->
      let open Braid_experiments.Exp_replication in
      out
        "      {\"replicas\": %d, \"scenario\": \"%s\", \"down_replica\": %d, \
         \"affected_queries\": %d, \"affected_fresh\": %d, \"healthy_queries\": %d, \
         \"healthy_fresh\": %d, \"failovers\": %d, \"hinted\": %d, \
         \"lag_before\": %d, \"repairs\": %d, \"lag_after\": %d}%s\n"
        r.rp_replicas (Braid_obs.Trace.escape r.rp_scenario) r.rp_down_replica
        r.rp_affected_queries r.rp_affected_fresh r.rp_healthy_queries
        r.rp_healthy_fresh r.rp_failovers r.rp_hinted r.rp_lag_before r.rp_repairs
        r.rp_lag_after
        (if i = List.length e17_rows - 1 then "" else ","))
    e17_rows;
  out "    ],\n";
  out "    \"e18_ivm\": [\n";
  List.iteri
    (fun i (r : Braid_experiments.Exp_ivm.row) ->
      let open Braid_experiments.Exp_ivm in
      out
        "      {\"mode\": \"%s\", \"rate\": %d, \"inserts\": %d, \"deletes\": %d, \
         \"queries\": %d, \"cache_fresh\": %d, \"refetches\": %d, \"maintained\": %d, \
         \"fallbacks\": %d, \"oracle_mismatches\": %d}%s\n"
        (Braid_obs.Trace.escape r.iv_mode) r.iv_rate r.iv_inserts r.iv_deletes r.iv_queries
        r.iv_cache_fresh r.iv_refetches r.iv_maintained r.iv_fallbacks
        r.iv_oracle_mismatches
        (if i = List.length e18_rows - 1 then "" else ","))
    e18_rows;
  out "    ],\n";
  (let r = e18_rec in
   let open Braid_experiments.Exp_ivm in
   out
     "    \"e18_recovery\": {\"deltas\": %d, \"epoch\": %d, \"elements\": %d, \
      \"replayed\": %d, \"byte_identical\": %b},\n"
     r.rc_deltas r.rc_epoch r.rc_elements r.rc_replayed r.rc_byte_identical);
  out "    \"e19_set_oriented\": [\n";
  List.iteri
    (fun i (r : Braid_experiments.Exp_set_oriented.row) ->
      let open Braid_experiments.Exp_set_oriented in
      out
        "      {\"strategy\": \"%s\", \"remote_requests\": %d, \"caql_queries\": %d, \
         \"resolutions\": %d, \"tuples_moved\": %d, \"solutions\": %d, \
         \"identical\": %b}%s\n"
        (Braid_obs.Trace.escape r.strategy) r.requests r.caql_queries r.resolutions
        r.tuples_moved r.solutions r.identical
        (if i = List.length e19_rows - 1 then "" else ","))
    e19_rows;
  out "    ],\n";
  (let s = e19_set in
   let open Braid_experiments.Exp_set_oriented in
   out
     "    \"e19_set_counters\": {\"rounds\": %d, \"fetches\": %d, \
      \"fetched_tuples\": %d, \"magic_tuples\": %d, \"reference_resolutions\": %d},\n"
     s.rounds s.fetches s.fetched_tuples s.magic_tuples s.reference_resolutions);
  out
    "    \"plan_choices\": {\"hash_joins\": %d, \"merge_joins\": %d, \"inlj_joins\": %d, \
     \"products\": %d, \"seq_scans\": %d, \"index_probes\": %d, \"index_only_scans\": %d, \
     \"bitmap_scans\": %d, \"semijoin_filters\": %d}\n"
    pc.Braid_remote.Qplan.hash_joins pc.Braid_remote.Qplan.merge_joins
    pc.Braid_remote.Qplan.inlj_joins pc.Braid_remote.Qplan.products
    pc.Braid_remote.Qplan.seq_scans pc.Braid_remote.Qplan.index_probes
    pc.Braid_remote.Qplan.index_only_scans pc.Braid_remote.Qplan.bitmap_scans
    pc.Braid_remote.Qplan.semijoin_filters;
  out "  }\n";
  Buffer.contents b

let write_json ?seed path =
  let micro = micro_estimates () in
  let experiments = experiments_json ?seed () in
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"schema_version\": 1,\n";
  out "  \"suite\": \"relalg\",\n";
  out "  \"micro\": [\n";
  List.iteri
    (fun i (name, est) ->
      out "    {\"name\": \"%s\", \"ns_per_run\": %s}%s\n" (Braid_obs.Trace.escape name)
        (if Float.is_nan est then "null" else Printf.sprintf "%.1f" est)
        (if i = List.length micro - 1 then "" else ","))
    micro;
  out "  ],\n";
  out "%s" experiments;
  out "}\n";
  close_out oc;
  Printf.printf "wrote %s\n" path

(* Flattens a JSON text into [(path, scalar-as-text)] pairs — e.g.
   [("experiments.e13_faults[2].retries", "14")] — so --check can report
   exactly which counters drifted instead of dumping the whole fragment.
   Minimal recursive-descent parser covering the harness's own output
   (objects, arrays, strings, numbers, null); raises [Failure] on anything
   else, in which case the caller falls back to printing the fragment. *)
let flatten_json text =
  let n = String.length text in
  let pos = ref 0 in
  let fail msg = failwith (Printf.sprintf "json: %s at offset %d" msg !pos) in
  let peek () = if !pos < n then text.[!pos] else fail "unexpected end" in
  let skip_ws () =
    while
      !pos < n && (match text.[!pos] with ' ' | '\n' | '\t' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let parse_string () =
    let b = Buffer.create 16 in
    incr pos;
    let rec go () =
      match peek () with
      | '"' -> incr pos
      | '\\' ->
        Buffer.add_char b text.[!pos];
        incr pos;
        Buffer.add_char b (peek ());
        incr pos;
        go ()
      | c ->
        Buffer.add_char b c;
        incr pos;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let out = ref [] in
  let rec value path =
    skip_ws ();
    match peek () with
    | '{' ->
      incr pos;
      skip_ws ();
      if peek () = '}' then incr pos
      else
        let rec members () =
          skip_ws ();
          if peek () <> '"' then fail "expected a key";
          let k = parse_string () in
          skip_ws ();
          if peek () <> ':' then fail "expected ':'";
          incr pos;
          value (if path = "" then k else path ^ "." ^ k);
          skip_ws ();
          match peek () with
          | ',' ->
            incr pos;
            members ()
          | '}' -> incr pos
          | _ -> fail "expected ',' or '}'"
        in
        members ()
    | '[' ->
      incr pos;
      skip_ws ();
      if peek () = ']' then incr pos
      else
        let rec elems i =
          value (Printf.sprintf "%s[%d]" path i);
          skip_ws ();
          match peek () with
          | ',' ->
            incr pos;
            elems (i + 1)
          | ']' -> incr pos
          | _ -> fail "expected ',' or ']'"
        in
        elems 0
    | '"' -> out := (path, Printf.sprintf "%S" (parse_string ())) :: !out
    | _ ->
      let start = !pos in
      while
        !pos < n
        && (match text.[!pos] with
            | ',' | '}' | ']' | ' ' | '\n' | '\t' | '\r' -> false
            | _ -> true)
      do
        incr pos
      done;
      if !pos = start then fail "expected a value";
      out := (path, String.sub text start (!pos - start)) :: !out
  in
  value "";
  List.rev !out

let experiment_counters text =
  List.filter
    (fun (p, _) ->
      String.length p >= 12 && String.sub p 0 12 = "experiments.")
    (flatten_json text)

(* CI gate: regenerate the deterministic experiment counters and require
   the committed snapshot to contain exactly that text. Timing estimates
   drift with hardware and are deliberately not compared. On a mismatch the
   failure output lists only the drifted counters, one per line, as
   path: snapshot vs regenerated — so the CI log pinpoints the drift
   instead of burying it in the full fragment. *)
let check_json ?seed path =
  let committed =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  let expected = experiments_json ?seed () in
  let contains haystack needle =
    let nh = String.length haystack and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
    nn = 0 || go 0
  in
  if contains committed expected then begin
    Printf.printf "check ok: %s matches the deterministic experiment counters\n" path;
    true
  end
  else begin
    Printf.eprintf
      "check FAILED: %s does not contain the regenerated experiment counters.\n"
      path;
    (match
       ( experiment_counters committed,
         experiment_counters ("{\n" ^ expected ^ "}\n") )
     with
     | exception Failure _ ->
       (* Unparseable snapshot (or harness bug): fall back to the fragment. *)
       Printf.eprintf
         "Expected this fragment (regenerate the snapshot with --json if the \
          change is intended):\n%s"
         expected
     | snapshot, regenerated ->
       let drifted =
         List.filter_map
           (fun (p, want) ->
             match List.assoc_opt p snapshot with
             | Some got when got = want -> None
             | Some got -> Some (Printf.sprintf "  %s: snapshot %s, regenerated %s" p got want)
             | None -> Some (Printf.sprintf "  %s: missing from snapshot, regenerated %s" p want))
           regenerated
         @ List.filter_map
             (fun (p, got) ->
               if List.mem_assoc p regenerated then None
               else
                 Some
                   (Printf.sprintf
                      "  %s: snapshot %s, absent from the regenerated counters" p got))
             snapshot
       in
       if drifted = [] then
         Printf.eprintf
           "Every counter agrees but the snapshot's experiments block is \
            formatted differently; regenerate it with --json.\n"
       else begin
         Printf.eprintf "%d drifted counter(s) (of %d regenerated):\n"
           (List.length drifted) (List.length regenerated);
         List.iter prerr_endline drifted;
         Printf.eprintf
           "Regenerate the snapshot with --json if the change is intended.\n"
       end);
    false
  end

(* --- span tracing (--trace) --- *)

(* Install a fresh tracer around [f]; on the way out write every recorded
   span to [path] (Chrome trace_event, or JSONL for a .jsonl path). *)
let with_trace trace_path f =
  match trace_path with
  | None -> f ()
  | Some path ->
    let tracer = Braid_obs.Trace.create () in
    Braid_obs.Trace.install tracer;
    Fun.protect
      ~finally:(fun () ->
        Braid_obs.Trace.uninstall ();
        Braid_obs.Trace.write tracer path;
        Printf.printf "wrote %s (%d spans)\n" path (Braid_obs.Trace.span_count tracer))
      f

(* --- serve mode (--serve) --- *)

(* Randomized consistency soak (see Braid_serve.Soak): one leg of
   Braid_serve.Soak.legs by name, its sessions over one shared CMS, driven
   by the deterministic cooperative scheduler with admission control and
   in-flight fetch coalescing, every answer diffed against ground truth.
   In this mode --check takes no argument: it re-runs the identical
   configuration and requires (a) a byte-identical report — the
   determinism contract — and (b) no violated gate
   (Braid_serve.Soak.failures: clean oracle and recovery plus the
   profile's own invariants). The report and the surviving cache journal
   are written as files for CI to upload on failure. *)
let run_serve argv =
  let leg_names = String.concat ", " (List.map fst Braid_serve.Soak.legs) in
  let leg = ref None
  and seed = ref 1
  and waves = ref 400
  and gate = ref false
  and report_path = ref "serve-report.txt"
  and journal_path = ref "serve-journal.txt"
  and trace_path = ref None in
  let int_arg flag n tl k =
    match int_of_string_opt n with
    | Some v -> k v tl
    | None ->
      Printf.eprintf "%s requires an integer, got %S\n" flag n;
      exit 1
  in
  let rec parse = function
    | [] -> ()
    | "--seed" :: n :: tl -> int_arg "--seed" n tl (fun v tl -> seed := v; parse tl)
    | "--waves" :: n :: tl -> int_arg "--waves" n tl (fun v tl -> waves := v; parse tl)
    | "--check" :: tl ->
      gate := true;
      parse tl
    | "--report" :: p :: tl ->
      report_path := p;
      parse tl
    | "--journal" :: p :: tl ->
      journal_path := p;
      parse tl
    | "--trace" :: p :: tl ->
      trace_path := Some p;
      parse tl
    | [ ("--seed" | "--waves" | "--report" | "--journal" | "--trace") ] ->
      prerr_endline "--seed/--waves require an integer, --report/--journal/--trace a path";
      exit 1
    | name :: tl when !leg = None && List.mem_assoc name Braid_serve.Soak.legs ->
      leg := Some (List.assoc name Braid_serve.Soak.legs);
      parse tl
    | arg :: _ ->
      Printf.eprintf
        "unknown serve argument %S (expected one leg of %s, then --seed N, --waves N, \
         --check, --report PATH, --journal PATH, --trace PATH)\n"
        arg leg_names;
      exit 1
  in
  parse argv;
  let profile =
    match !leg with
    | Some p -> p
    | None ->
      Printf.eprintf "--serve needs a leg: one of %s\n" leg_names;
      exit 1
  in
  let go () = Braid_serve.Soak.run profile ~seed:!seed ~waves:!waves in
  let report = with_trace !trace_path go in
  let text = Braid_serve.Soak.report_to_string report in
  print_string text;
  let write path lines =
    let oc = open_out path in
    List.iter (fun l -> output_string oc (l ^ "\n")) lines;
    close_out oc
  in
  write !report_path (String.split_on_char '\n' text);
  write !journal_path report.Braid_serve.Soak.journal_dump;
  (* One request journal per shard — and per replica when replicated (CI
     uploads them on failure, so a sick copy's exact fetch sequence is
     reconstructible from the artifacts). *)
  List.iter
    (fun (suffix, lines) -> write (!journal_path ^ suffix) lines)
    (Braid_serve.Soak.shard_journals report);
  Printf.printf "wrote %s, %s\n" !report_path !journal_path;
  if !gate then begin
    let text2 = Braid_serve.Soak.report_to_string (go ()) in
    if text2 <> text then begin
      prerr_endline
        "serve check FAILED: a second run of the same configuration produced a \
         different report (determinism violation)";
      exit 1
    end;
    match Braid_serve.Soak.failures report with
    | [] -> print_endline "serve check ok: deterministic report, every gate passed"
    | fails ->
      List.iter (fun m -> prerr_endline ("serve check FAILED: " ^ m)) fails;
      exit 1
  end

(* --- entry point --- *)

let () =
  (* --serve has its own flag grammar (its --check is a boolean gate, not
     a path), so it is dispatched before the generic parser. *)
  (match Array.to_list Sys.argv with
   | _ :: rest when List.mem "--serve" rest ->
     run_serve (List.filter (fun a -> a <> "--serve") rest);
     exit 0
   | _ -> ());
  let rec split_flags json check seed trace rest = function
    | [] -> (json, check, seed, trace, List.rev rest)
    | "--json" :: path :: tl -> split_flags (Some path) check seed trace rest tl
    | "--check" :: path :: tl -> split_flags json (Some path) seed trace rest tl
    | "--trace" :: path :: tl -> split_flags json check seed (Some path) rest tl
    | "--seed" :: n :: tl ->
      (match int_of_string_opt n with
       | Some s -> split_flags json check (Some s) trace rest tl
       | None ->
         Printf.eprintf "--seed requires an integer, got %S\n" n;
         exit 1)
    | [ ("--json" | "--check" | "--seed" | "--trace") ] ->
      prerr_endline "--json/--check/--trace require a path argument, --seed an integer";
      exit 1
    | arg :: tl -> split_flags json check seed trace (arg :: rest) tl
  in
  let json, check, seed, trace, args =
    split_flags None None None None [] (List.tl (Array.to_list Sys.argv))
  in
  with_trace trace (fun () ->
      (match json, check, args with
       | Some path, _, _ -> write_json ?seed path
       | None, Some path, _ -> if not (check_json ?seed path) then exit 1
       | None, None, [] ->
         Braid_experiments.All.run_all ?seed ();
         run_micro ()
       | None, None, _ -> ());
      if json = None && check = None then
        List.iter
          (fun arg ->
            match String.lowercase_ascii arg with
            | "micro" -> run_micro ()
            | id ->
              if not (Braid_experiments.All.run_one ?seed id) then begin
                Printf.eprintf
                  "unknown experiment %S (expected %s, micro, --seed N, --json PATH, \
                   --check PATH or --trace PATH)\n"
                  arg Braid_experiments.All.id_range;
                exit 1
              end)
          args)
