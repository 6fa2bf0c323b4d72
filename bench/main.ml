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
   are uploaded as artifacts but never gated on. --json and --check exclude
   each other and take no experiment ids. --seed overrides the
   experiments' default PRNG seeds (the snapshot uses the defaults). Every
   path is opened or checked before any work starts.

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

(* The serve_rw remote hot spot: a projection over 2,500 string keys (two
   rows each) whose semi-join filter lists 256 values, 250 of them present.
   Planning picks the IN probe: one probe of the key column's index per
   listed value, reaching the 500 matching rows. The covering index-only
   path it replaced tested all 2,500 keys against the IN residual. *)
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
    ignore (CMgr.insert cache ~def:(def i "X" "Y" "Z") (R.Relation.create schema))
  done;
  let hit = def 200 "A" "B" "C" and miss = def 256 "A" "B" "C" in
  Bechamel.Test.make ~name:"cache_find_exact_256"
    (Bechamel.Staged.stage (fun () ->
         ignore (CMgr.find_exact cache hit);
         ignore (CMgr.find_exact cache miss)))

(* The subsumption probe of one query in a cache of 256 elements: 40 of
   them mention the query's predicate, each with its own constant in the
   third column, and only the one whose constant the query names covers
   it; the other 216 are over another predicate. Times the query's form
   pass and the form-index lookups, which skip the 39 elements whose
   constant differs without looking at them. *)
let bench_relevant_covers =
  let module CMgr = Braid_cache.Cache_manager in
  let cache = CMgr.create ~capacity_bytes:max_int () in
  let schema = R.Schema.make [ ("x", V.Tint); ("y", V.Tint) ] in
  for i = 0 to 255 do
    let def =
      if i mod 6 = 0 && i / 6 < 40 then
        A.conj [ v "X"; v "Y" ] [ atom "link" [ v "X"; v "Y"; T.Const (V.Int (i / 6)) ] ]
      else A.conj [ v "X"; v "Y" ] [ atom "route" [ v "X"; v "Y"; T.Const (V.Int i) ] ]
    in
    ignore (CMgr.insert cache ~def (R.Relation.create schema))
  done;
  let query = A.conj [ v "A"; v "B" ] [ atom "link" [ v "A"; v "B"; T.Const (V.Int 17) ] ] in
  let covers () = CMgr.relevant_covers cache (Braid_subsume.Form.of_conj query) in
  assert (List.length (covers ()) = 1);
  Bechamel.Test.make ~name:"cache_relevant_covers_256"
    (Bechamel.Staged.stage (fun () -> ignore (covers ())))

(* One-column index over 1k rows of string keys, 100 distinct: the shape of
   the set-oriented tier's indexes over a fetched [parent]. *)
let str_relation_1k =
  R.Relation.of_tuples ~name:"s"
    (R.Schema.make [ ("k", V.Tstr); ("v", V.Tint) ])
    (List.init 1_000 (fun i -> [| V.Str (Printf.sprintf "k%03d" (i mod 100)); V.Int i |]))

let bench_index_build_str =
  Bechamel.Test.make ~name:"index_build_str_1k"
    (Bechamel.Staged.stage (fun () -> ignore (R.Index.build str_relation_1k [ 0 ])))

(* 1k cursor probes into that index, each walking its whole bucket (ten
   rows, or none for the 28 absent keys): the fixpoint's inner loop over a
   string-keyed static relation. *)
let bench_index_probe_str =
  let ix = R.Index.build str_relation_1k [ 0 ] in
  let keys = Array.init 1_000 (fun i -> V.Str (Printf.sprintf "k%03d" (i mod 128))) in
  Bechamel.Test.make ~name:"index_probe_str_1k"
    (Bechamel.Staged.stage (fun () ->
         let rows = ref 0 in
         for i = 0 to Array.length keys - 1 do
           let p = ref (R.Index.first1 ix keys.(i)) in
           while !p >= 0 do
             rows := !rows + R.Tuple.arity (R.Index.tuple_at ix !p);
             p := R.Index.next ix !p
           done
         done;
         ignore (Sys.opaque_identity !rows)))

(* A QPO exact hit over a cached 199-row [parent] element, through to a
   relation: the set-oriented tier's per-goal fetch once [parent] is
   cached. *)
let bench_cache_exact_hit =
  let server = Braid_remote.Server.create () in
  List.iter
    (Braid_remote.Engine.load (Braid_remote.Server.engine server))
    (Braid_workload.Datagen.family ~persons:200 ~fanout:3 ());
  let qpo = Braid.Cms.qpo (Braid.Cms.create server) in
  let q = A.conj [ v "X"; v "Y" ] [ atom "parent" [ v "X"; v "Y" ] ] in
  let answer () =
    Braid_stream.Tuple_stream.to_relation (Braid_planner.Qpo.answer_conj qpo q).stream
  in
  assert (R.Relation.cardinality (answer ()) = 199);
  let requests = (Braid_remote.Server.stats server).requests in
  ignore (answer ());
  assert ((Braid_remote.Server.stats server).requests = requests);
  Bechamel.Test.make ~name:"cache_exact_hit_199"
    (Bechamel.Staged.stage (fun () -> ignore (answer ())))

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

(* The IE front end for one telecom [provisionable] goal: a cold compile
   (extract, shape, advise) against an instantiation of the form's
   template. *)
let bench_ie_front_end =
  let sys =
    Braid.System.build ~kb:(Braid_workload.Kbgen.telecom ())
      ~data:(Braid_workload.Datagen.telecom ~offices:30 ~customers:100 ~orders:100 ())
      ()
  in
  let engine = Braid.System.engine sys in
  let goal = atom "provisionable" [ s "ord7" ] in
  ignore (Braid_ie.Engine.front_end engine (atom "provisionable" [ s "ord1" ]));
  Bechamel.Test.make_grouped ~name:"ie_front_end_goal" ~fmt:"%s/%s"
    [
      Bechamel.Test.make ~name:"cold_compile"
        (Bechamel.Staged.stage (fun () -> ignore (Braid_ie.Engine.compile engine goal)));
      Bechamel.Test.make ~name:"template_hit"
        (Bechamel.Staged.stage (fun () -> ignore (Braid_ie.Engine.front_end engine goal)));
    ]

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
    bench_relevant_covers;
    bench_index_build_str;
    bench_index_probe_str;
    bench_cache_exact_hit;
    bench_datalog_ancestor;
    bench_ie_front_end;
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

module J = Braid_obs.Json
module X = Braid_experiments

(* The deterministic "experiments" member of the JSON: hardware-independent
   counters only. Every number here derives from fixed (or --seed-supplied)
   PRNG seeds and the simulated cost model, so the printed text is
   byte-identical across runs and machines — which is what lets CI gate on
   it (--check) while the bechamel timings beside it are reported but never
   compared. Each table is a list of flat rows, printed one per line. *)
let experiments_json ?seed () =
  let e1_rows, _ = X.Exp_coupling.run () in
  let e5_rows, _ = X.Exp_reuse.run ?seed () in
  let e10_rows, _ = X.Exp_indexing.run ?seed ~probes:60 ~size:120 () in
  let e13_rows, _ = X.Exp_faults.run ?seed () in
  let e14_rows, _ = X.Exp_serve.run ?seed () in
  let e15_rows, _ = X.Exp_join_planning.run ?seed () in
  let (e16_mix, e16_soak, a), _ = X.Exp_sharding.run ?seed () in
  let e17_rows, _ = X.Exp_replication.run ?seed () in
  let (e18_rows, rc), _ = X.Exp_ivm.run ?seed () in
  let (e19_rows, sc), _ = X.Exp_set_oriented.run ?seed () in
  let table_card, result_rows, scanned = remote_scan_counters () in
  let (pc : Braid_remote.Qplan.counters) = plan_choice_counters () in
  let table row rows = J.List (List.map row rows) in
  let ints fields = J.Obj (List.map (fun (k, n) -> (k, J.int n)) fields) in
  let i = J.int and ms = J.float ~decimals:1 in
  J.Obj
    [
      ( "remote_indexed_scan",
        ints [ ("table_cardinality", table_card); ("result_rows", result_rows); ("rows_scanned", scanned) ] );
      ( "e1_coupling",
        table
          (fun (r : X.Runner.result) ->
            J.Obj
              [ ("label", J.Str r.label); ("remote_requests", i r.requests);
                ("tuples_moved", i r.tuples_returned); ("comm_ms", ms r.comm_ms);
                ("total_ms", ms r.total_ms); ("solutions", i r.solutions) ])
          e1_rows );
      ( "e5_reuse",
        table
          (fun (r : X.Exp_reuse.row) ->
            J.Obj
              [ ("label", J.Str r.label); ("queries", i r.queries); ("full_hits", i r.full_hits);
                ("partial_hits", i r.partial_hits); ("requests", i r.requests);
                ("tuples_moved", i r.tuples_moved) ])
          e5_rows );
      ( "e10_indexing",
        table
          (fun (r : X.Exp_indexing.row) ->
            J.Obj
              [ ("label", J.Str r.label); ("probes", i r.probes);
                ("tuples_touched", i r.tuples_touched); ("local_ms", ms r.local_ms) ])
          e10_rows );
      ( "e13_faults",
        table
          (fun (r : X.Exp_faults.row) ->
            J.Obj
              [ ("error_rate", J.float ~decimals:2 r.error_rate); ("queries", i r.queries);
                ("answered", i r.answered); ("fresh", i r.fresh); ("degraded", i r.degraded);
                ("requests", i r.requests); ("retries", i r.retries); ("trips", i r.trips);
                ("deadline_misses", i r.deadline_misses); ("fast_fails", i r.fast_fails) ])
          e13_rows );
      ( "e14_serve",
        table
          (fun (r : X.Exp_serve.row) ->
            J.Obj
              [ ("sessions", i r.sessions); ("submitted", i r.submitted); ("answered", i r.answered);
                ("shed", i r.shed); ("coalesce_identical", i r.coalesce_identical);
                ("remote_requests", i r.remote_requests); ("elapsed_ms", ms r.elapsed_ms) ])
          e14_rows );
      ( "e15_join_planning",
        table
          (fun (r : X.Exp_join_planning.row) ->
            J.Obj
              [ ("label", J.Str r.label); ("scanned", i r.scanned); ("transferred", i r.transferred);
                ("modeled_ms", ms r.modeled_ms); ("rows", i r.rows_out) ])
          e15_rows );
      ( "e16_sharding_mix",
        table
          (fun (r : X.Exp_sharding.row) ->
            ints
              [ ("shards", r.shards); ("queries", r.queries); ("pinned", r.pinned);
                ("fanouts", r.fanouts); ("gathers", r.gathers); ("shards_touched", r.shards_touched);
                ("shards_pruned", r.shards_pruned); ("scanned", r.scanned); ("fresh", r.fresh);
                ("degraded", r.degraded) ])
          e16_mix );
      ( "e16_sharding_soak",
        table
          (fun (r : X.Exp_sharding.soak_row) ->
            ints
              [ ("shards", r.sk_shards); ("answered", r.sk_answered); ("fresh", r.sk_fresh);
                ("degraded", r.sk_degraded); ("pinned", r.sk_pinned); ("fanouts", r.sk_fanouts);
                ("gathers", r.sk_gathers); ("shards_pruned", r.sk_pruned);
                ("remote_requests", r.sk_remote_requests) ])
          e16_soak );
      ( "e16_one_shard_down",
        ints
          [ ("shards", a.X.Exp_sharding.av_shards); ("sick_shard", a.sick_shard);
            ("pinned_queries", a.pinned_queries); ("healthy_fresh", a.healthy_fresh);
            ("healthy_degraded", a.healthy_degraded); ("sick_queries", a.sick_queries);
            ("sick_degraded", a.sick_degraded); ("scatter_queries", a.scatter_queries);
            ("scatter_degraded", a.scatter_degraded) ] );
      ( "e17_replication",
        table
          (fun (r : X.Exp_replication.row) ->
            J.Obj
              [ ("replicas", i r.rp_replicas); ("scenario", J.Str r.rp_scenario);
                ("down_replica", i r.rp_down_replica); ("affected_queries", i r.rp_affected_queries);
                ("affected_fresh", i r.rp_affected_fresh); ("healthy_queries", i r.rp_healthy_queries);
                ("healthy_fresh", i r.rp_healthy_fresh); ("failovers", i r.rp_failovers);
                ("hinted", i r.rp_hinted); ("lag_before", i r.rp_lag_before);
                ("repairs", i r.rp_repairs); ("lag_after", i r.rp_lag_after) ])
          e17_rows );
      ( "e18_ivm",
        table
          (fun (r : X.Exp_ivm.row) ->
            J.Obj
              [ ("mode", J.Str r.iv_mode); ("rate", i r.iv_rate); ("inserts", i r.iv_inserts);
                ("deletes", i r.iv_deletes); ("queries", i r.iv_queries);
                ("cache_fresh", i r.iv_cache_fresh); ("refetches", i r.iv_refetches);
                ("maintained", i r.iv_maintained); ("fallbacks", i r.iv_fallbacks);
                ("oracle_mismatches", i r.iv_oracle_mismatches) ])
          e18_rows );
      ( "e18_recovery",
        J.Obj
          [ ("deltas", i rc.X.Exp_ivm.rc_deltas); ("epoch", i rc.rc_epoch);
            ("elements", i rc.rc_elements); ("replayed", i rc.rc_replayed);
            ("byte_identical", J.Bool rc.rc_byte_identical) ] );
      ( "e19_set_oriented",
        table
          (fun (r : X.Exp_set_oriented.row) ->
            J.Obj
              [ ("strategy", J.Str r.strategy); ("remote_requests", i r.requests);
                ("caql_queries", i r.caql_queries); ("resolutions", i r.resolutions);
                ("tuples_moved", i r.tuples_moved); ("solutions", i r.solutions);
                ("identical", J.Bool r.identical) ])
          e19_rows );
      ( "e19_set_counters",
        ints
          [ ("rounds", sc.X.Exp_set_oriented.rounds); ("fetches", sc.fetches);
            ("fetched_tuples", sc.fetched_tuples); ("magic_tuples", sc.magic_tuples);
            ("reference_resolutions", sc.reference_resolutions) ] );
      ( "plan_choices",
        ints
          [ ("hash_joins", pc.hash_joins); ("merge_joins", pc.merge_joins);
            ("inlj_joins", pc.inlj_joins); ("products", pc.products); ("seq_scans", pc.seq_scans);
            ("index_probes", pc.index_probes); ("index_only_scans", pc.index_only_scans);
            ("bitmap_scans", pc.bitmap_scans); ("semijoin_filters", pc.semijoin_filters) ] );
    ]

(* Every command-line error: one line on stderr, exit 1. *)
let usage_error msg =
  prerr_endline msg;
  exit 1

(* Fails unless [path] can be opened for writing. Called before any work
   starts, so a bad output path costs nothing; an existing file is not
   truncated until the run writes it. *)
let ensure_writable path =
  try close_out (open_out_gen [ Open_wronly; Open_creat ] 0o666 path)
  with Sys_error msg -> usage_error ("cannot write " ^ msg)

let write_json ?seed path =
  let micro = micro_estimates () in
  let experiments = experiments_json ?seed () in
  let micro_row (name, est) = J.Obj [ ("name", J.Str name); ("ns_per_run", J.float ~decimals:1 est) ] in
  let doc =
    J.Obj
      [ ("schema_version", J.int 1); ("suite", J.Str "relalg");
        ("micro", J.List (List.map micro_row micro)); ("experiments", experiments) ]
  in
  Out_channel.with_open_text path (fun oc -> output_string oc (J.to_string doc ^ "\n"));
  Printf.printf "wrote %s\n" path

(* ["key": value] as (key, value text); any other text is keyed by itself. *)
let key_value text =
  let t = String.trim text in
  try Scanf.sscanf t "%S: %[^\n]" (fun k v -> (k, v))
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> (t, t)

(* The rows of every member of a printed "experiments" object, as
   [(row id, row text)] in order — e.g. [("e13_faults[2]", "{...}")] for a
   table row, [("plan_choices", "{...}")] for a one-row member. Reads only
   the printer's layout: the block runs from the [  "experiments": {] line
   to the [  }] line, a table member opens with a line ending in "[" and
   holds one row per line up to its "]" line, and any other member is one
   line. *)
let experiment_rows text =
  let strip line =
    let l = String.trim line in
    if String.ends_with ~suffix:"," l then String.sub l 0 (String.length l - 1) else l
  in
  let rec members acc = function
    | [] | "  }" :: _ -> List.rev acc
    | line :: rest ->
      (match key_value (strip line) with
       | name, "[" ->
         let rec table i acc = function
           | l :: rest when strip l <> "]" ->
             table (i + 1) ((Printf.sprintf "%s[%d]" name i, strip l) :: acc) rest
           | _ :: rest -> members acc rest
           | [] -> members acc []
         in
         table 0 acc rest
       | row -> members (row :: acc) rest)
  in
  let rec block = function
    | [] -> []
    | "  \"experiments\": {" :: rest -> members [] rest
    | _ :: rest -> block rest
  in
  block (String.split_on_char '\n' text)

(* The [(key, value text)] fields of a one-line object row, split at the
   commas outside string literals. *)
let row_fields row =
  let fields = ref [] and b = Buffer.create 64 and in_str = ref false and esc = ref false in
  String.iter
    (fun c ->
      if c = ',' && not !in_str then begin
        fields := Buffer.contents b :: !fields;
        Buffer.clear b
      end
      else begin
        Buffer.add_char b c;
        if !esc then esc := false
        else if c = '\\' then esc := !in_str
        else if c = '"' then in_str := not !in_str
      end)
    (String.sub row 1 (String.length row - 2));
  List.rev_map key_value (Buffer.contents b :: !fields)

(* The entries of two assoc lists whose values differ, as "name: ...": in
   [regenerated] order, then the names only [snapshot] has. *)
let diff_assoc ~describe snapshot regenerated =
  List.filter_map
    (fun (name, want) ->
      match List.assoc_opt name snapshot with
      | Some got when got = want -> None
      | Some got -> Some (name ^ ": " ^ describe got want)
      | None -> Some (Printf.sprintf "%s: missing from the snapshot, regenerated %s" name want))
    regenerated
  @ List.filter_map
      (fun (name, got) ->
        if List.mem_assoc name regenerated then None
        else Some (Printf.sprintf "%s: snapshot %s, not regenerated" name got))
      snapshot

(* One line per drifted row: its id and, field by field, the snapshot and
   regenerated values; rows only one side has are listed whole. *)
let drift ~snapshot ~regenerated =
  let whole got want = Printf.sprintf "snapshot %s, regenerated %s" got want in
  let is_object r = String.starts_with ~prefix:"{" r && String.ends_with ~suffix:"}" r in
  let fields got want =
    if not (is_object got && is_object want) then whole got want
    else
      match diff_assoc ~describe:whole (row_fields got) (row_fields want) with
      | [] -> whole got want
      | diffs -> String.concat "; " diffs
  in
  List.map (fun line -> "  " ^ line) (diff_assoc ~describe:fields snapshot regenerated)

(* CI gate: regenerate the deterministic experiment counters and require
   the committed snapshot to contain exactly their printed "experiments"
   member. Timing estimates drift with hardware and are deliberately not
   compared. On a mismatch the failure output lists only the drifted rows,
   one per line as "id: field: snapshot X, regenerated Y", so the CI log
   pinpoints the drift instead of burying it in the full fragment. *)
let check_json ?seed committed path =
  let printed = J.to_string (J.Obj [ ("experiments", experiments_json ?seed ()) ]) in
  (* the member as the snapshot document prints it: drop the "{\n" and "\n}"
     that wrap it here *)
  let expected = String.sub printed 2 (String.length printed - 4) in
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
      "check FAILED: %s does not contain the regenerated experiment counters.\n" path;
    let regenerated = experiment_rows printed in
    (match drift ~snapshot:(experiment_rows committed) ~regenerated with
     | [] ->
       Printf.eprintf
         "Every row agrees but the snapshot's experiments block is formatted \
          differently; regenerate it with --json.\n"
     | drifted ->
       Printf.eprintf "%d drifted row(s) (of %d regenerated):\n" (List.length drifted)
         (List.length regenerated);
       List.iter prerr_endline drifted;
       Printf.eprintf "Regenerate the snapshot with --json if the change is intended.\n");
    false
  end

(* --- span tracing (--trace) --- *)

(* Install a fresh tracer around [f]; on the way out write every recorded
   span to [path] (Chrome trace_event, or JSONL for a .jsonl path). The path
   is checked before [f] runs. *)
let with_trace trace_path f =
  match trace_path with
  | None -> f ()
  | Some path ->
    ensure_writable path;
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
   are written as files for CI to upload on failure, and so is the
   --trace file when given: the run's per-request record, where every
   replica read is a shard.read span naming its shard and replica, so a
   sick copy's exact fetch sequence can be rebuilt from it. The --check
   re-run is untraced, so a passing gate also shows that tracing does not
   perturb the leg. *)
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
    | None -> usage_error (Printf.sprintf "%s requires an integer, got %S" flag n)
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
      usage_error "--seed/--waves require an integer, --report/--journal/--trace a path"
    | name :: tl when !leg = None && List.mem_assoc name Braid_serve.Soak.legs ->
      leg := Some (List.assoc name Braid_serve.Soak.legs);
      parse tl
    | arg :: _ ->
      usage_error
        (Printf.sprintf
           "unknown serve argument %S (expected one leg of %s, then --seed N, --waves N, \
            --check, --report PATH, --journal PATH, --trace PATH)"
           arg leg_names)
  in
  parse argv;
  let profile =
    match !leg with
    | Some p -> p
    | None -> usage_error ("--serve needs a leg: one of " ^ leg_names)
  in
  ensure_writable !report_path;
  ensure_writable !journal_path;
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
       | None -> usage_error (Printf.sprintf "--seed requires an integer, got %S" n))
    | [ ("--json" | "--check" | "--seed" | "--trace") ] ->
      usage_error "--json/--check/--trace require a path argument, --seed an integer"
    | arg :: tl -> split_flags json check seed trace (arg :: rest) tl
  in
  let json, check, seed, trace, args =
    split_flags None None None None [] (List.tl (Array.to_list Sys.argv))
  in
  let run =
    match (json, check, args) with
    | Some _, Some _, _ -> usage_error "--json and --check cannot be combined: pass one of them"
    | (Some _, _, arg :: _ | _, Some _, arg :: _) ->
      usage_error (Printf.sprintf "--json and --check take no experiment ids or micro: drop %S" arg)
    | Some path, None, [] ->
      ensure_writable path;
      fun () -> write_json ?seed path
    | None, Some path, [] ->
      (match In_channel.with_open_bin path In_channel.input_all with
       | committed -> fun () -> if not (check_json ?seed committed path) then exit 1
       | exception Sys_error msg -> usage_error ("cannot read " ^ msg))
    | None, None, [] ->
      fun () ->
        Braid_experiments.All.run_all ?seed ();
        run_micro ()
    | None, None, args ->
      fun () ->
        List.iter
          (fun arg ->
            match String.lowercase_ascii arg with
            | "micro" -> run_micro ()
            | id ->
              if not (Braid_experiments.All.run_one ?seed id) then
                usage_error
                  (Printf.sprintf
                     "unknown experiment %S (expected %s, micro, --seed N, --json PATH, \
                      --check PATH or --trace PATH)"
                     arg Braid_experiments.All.id_range))
          args
  in
  with_trace trace run
