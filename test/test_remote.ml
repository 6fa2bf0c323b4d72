(* The simulated remote DBMS: SQL executor, catalog statistics, cost
   accounting. *)

module R = Braid_relalg
module V = R.Value
module Sql = Braid_remote.Sql
module Engine = Braid_remote.Engine
module Server = Braid_remote.Server
module Catalog = Braid_remote.Catalog
module CM = Braid_remote.Cost_model
module Fault = Braid_remote.Fault
module Trace = Braid_obs.Trace

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let emp_rows =
  [ ("alice", "sales", 50); ("bob", "sales", 40); ("carol", "eng", 70); ("dave", "eng", 60) ]

let load_server () =
  let server = Server.create () in
  let eng = Server.engine server in
  Engine.load eng
    (R.Relation.of_tuples ~name:"emp"
       (R.Schema.make [ ("name", V.Tstr); ("dept", V.Tstr); ("sal", V.Tint) ])
       (List.map (fun (n, d, s) -> [| V.Str n; V.Str d; V.Int s |]) emp_rows));
  Engine.load eng
    (R.Relation.of_tuples ~name:"dept"
       (R.Schema.make [ ("id", V.Tstr); ("city", V.Tstr) ])
       [ [| V.Str "sales"; V.Str "nyc" |]; [| V.Str "eng"; V.Str "sf" |] ]);
  server

let col src attr = Sql.Col { Sql.src; attr }

let test_select_star () =
  let server = load_server () in
  let r = Server.exec server (Sql.select_all "emp") in
  check_int "all rows" 4 (R.Relation.cardinality r)

let test_where_and_projection () =
  let server = load_server () in
  let q =
    {
      Sql.distinct = false;
      columns = [ col "e" "name" ];
      from = [ { Sql.table = "emp"; alias = "e" } ];
      where = [ (R.Row_pred.Gt, col "e" "sal", Sql.Const (V.Int 45)) ];
      semijoins = [];
    }
  in
  let r = Server.exec server q in
  check_int "three above 45" 3 (R.Relation.cardinality r);
  check_int "one column" 1 (R.Schema.arity (R.Relation.schema r))

let test_join () =
  let server = load_server () in
  let q =
    {
      Sql.distinct = false;
      columns = [ col "e" "name"; col "d" "city" ];
      from = [ { Sql.table = "emp"; alias = "e" }; { Sql.table = "dept"; alias = "d" } ];
      where = [ (R.Row_pred.Eq, col "e" "dept", col "d" "id") ];
      semijoins = [];
    }
  in
  let r = Server.exec server q in
  check_int "all emps matched" 4 (R.Relation.cardinality r)

let test_self_join () =
  let server = load_server () in
  let q =
    {
      Sql.distinct = false;
      columns = [ col "a" "name"; col "b" "name" ];
      from = [ { Sql.table = "emp"; alias = "a" }; { Sql.table = "emp"; alias = "b" } ];
      where =
        [
          (R.Row_pred.Eq, col "a" "dept", col "b" "dept");
          (R.Row_pred.Lt, col "a" "name", col "b" "name");
        ];
      semijoins = [];
    }
  in
  let r = Server.exec server q in
  (* same-dept unordered pairs: (alice,bob), (carol,dave) *)
  check_int "pairs" 2 (R.Relation.cardinality r)

let test_distinct () =
  let server = load_server () in
  let q =
    {
      Sql.distinct = true;
      columns = [ col "e" "dept" ];
      from = [ { Sql.table = "emp"; alias = "e" } ];
      where = [];
      semijoins = [];
    }
  in
  check_int "two departments" 2 (R.Relation.cardinality (Server.exec server q))

let test_errors () =
  let server = load_server () in
  check_bool "unknown table" true
    (try
       ignore (Server.exec server (Sql.select_all "nope"));
       false
     with Invalid_argument _ -> true);
  let q =
    {
      Sql.distinct = false;
      columns = [ col "e" "nocol" ];
      from = [ { Sql.table = "emp"; alias = "e" } ];
      where = [];
      semijoins = [];
    }
  in
  check_bool "unknown column" true
    (try
       ignore (Server.exec server q);
       false
     with Invalid_argument _ -> true)

let test_sql_printing () =
  let q =
    {
      Sql.distinct = false;
      columns = [ col "e" "name" ];
      from = [ { Sql.table = "emp"; alias = "e" } ];
      where = [ (R.Row_pred.Eq, col "e" "dept", Sql.Const (V.Str "sales")) ];
      semijoins = [];
    }
  in
  Alcotest.(check string)
    "sql text" "SELECT e.name FROM emp e WHERE e.dept = 'sales'" (Sql.to_string q)

let test_catalog_stats () =
  let server = load_server () in
  let cat = Server.catalog server in
  check_int "emp cardinality" 4 (Catalog.cardinality cat "emp");
  check_bool "dept column has 2 distinct" true
    (match Catalog.stats_of cat "emp" with
     | Some s -> s.Catalog.distinct_per_column.(1) = 2
     | None -> false);
  check_bool "selectivity" true (abs_float (Catalog.eq_selectivity cat "emp" 1 -. 0.5) < 1e-9);
  check_bool "unknown defaults" true (abs_float (Catalog.eq_selectivity cat "zz" 0 -. 0.1) < 1e-9)

let test_accounting () =
  let server = load_server () in
  let _ = Server.exec server (Sql.select_all "emp") in
  let st = Server.stats server in
  check_int "one request" 1 st.Server.requests;
  check_int "four returned" 4 st.Server.tuples_returned;
  check_bool "comm charged" true
    (st.Server.comm_ms >= (Server.cost_model server).CM.request_overhead_ms);
  (* [stats] is a snapshot: the earlier read keeps its counts. *)
  let _ = Server.exec server (Sql.select_all "emp") in
  check_int "earlier read unchanged" 1 st.Server.requests;
  check_int "fresh read counts both" 2 (Server.stats server).Server.requests

(* The request record is the [remote.exec] span: a faulted request keeps
   its SQL text next to the injected fault. *)
let test_exec_span_records_sql_and_fault () =
  let server = load_server () in
  Server.set_faults server (Some { Fault.none with Fault.error_rate = 1.0; seed = 3 });
  let tr = Trace.create () in
  Trace.install tr;
  let kind =
    Fun.protect ~finally:Trace.uninstall (fun () ->
        match Server.exec server (Sql.select_all "emp") with
        | _ -> Alcotest.fail "an always-failing link answered"
        | exception Fault.Injected k -> k)
  in
  match Trace.spans tr with
  | [ sp ] ->
    Alcotest.(check string) "span name" "remote.exec" sp.Trace.name;
    check_bool "sql recorded" true
      (List.assoc_opt "sql" sp.Trace.args = Some (Trace.Str "SELECT * FROM emp"));
    check_bool "fault recorded" true
      (List.assoc_opt "fault" sp.Trace.args = Some (Trace.Str (Fault.kind_to_string kind)))
  | spans -> Alcotest.failf "expected one remote.exec span, got %d" (List.length spans)

let test_cost_model () =
  let m = CM.default in
  let c1 = CM.remote_query_cost m ~scanned:0 ~returned:0 in
  let c2 = CM.remote_query_cost m ~scanned:100 ~returned:10 in
  check_bool "overhead only" true (abs_float (c1 -. m.CM.request_overhead_ms) < 1e-9);
  check_bool "monotone" true (c2 > c1);
  check_bool "local only is free" true
    (CM.remote_query_cost CM.local_only ~scanned:1000 ~returned:1000 = 0.0)

let suites : unit Alcotest.test list =
  [
    ( "remote",
      [
        Alcotest.test_case "select star" `Quick test_select_star;
        Alcotest.test_case "where and projection" `Quick test_where_and_projection;
        Alcotest.test_case "join" `Quick test_join;
        Alcotest.test_case "self join with aliases" `Quick test_self_join;
        Alcotest.test_case "distinct" `Quick test_distinct;
        Alcotest.test_case "error reporting" `Quick test_errors;
        Alcotest.test_case "sql printing" `Quick test_sql_printing;
        Alcotest.test_case "catalog statistics" `Quick test_catalog_stats;
        Alcotest.test_case "request accounting" `Quick test_accounting;
        Alcotest.test_case "faulted request span records sql and fault" `Quick
          test_exec_span_records_sql_and_fault;
        Alcotest.test_case "cost model" `Quick test_cost_model;
      ] );
  ]

(* --- pushdown --- *)

let test_condition_classes () =
  let server = load_server () in
  (* constant condition pushed into the source + join + post-join filter *)
  let q =
    {
      Sql.distinct = false;
      columns = [ col "e" "name" ];
      from = [ { Sql.table = "emp"; alias = "e" }; { Sql.table = "dept"; alias = "d" } ];
      where =
        [
          (R.Row_pred.Eq, col "e" "dept", col "d" "id");
          (R.Row_pred.Eq, col "d" "city", Sql.Const (V.Str "sf"));
          (R.Row_pred.Gt, col "e" "sal", Sql.Const (V.Int 65));
        ];
      semijoins = [];
    }
  in
  let r = Server.exec server q in
  (* sf = eng; eng with sal > 65 = carol *)
  check_int "one row" 1 (R.Relation.cardinality r);
  check_bool "it is carol" true
    (V.equal (R.Tuple.get (R.Relation.get r 0) 0) (V.Str "carol"))

let test_product_when_no_join_condition () =
  let server = load_server () in
  let q =
    {
      Sql.distinct = false;
      columns = [];
      from = [ { Sql.table = "emp"; alias = "e" }; { Sql.table = "dept"; alias = "d" } ];
      where = [];
      semijoins = [];
    }
  in
  check_int "cartesian product" 8 (R.Relation.cardinality (Server.exec server q))

let test_unresolvable_condition_rejected () =
  let server = load_server () in
  let q =
    {
      Sql.distinct = false;
      columns = [];
      from = [ { Sql.table = "emp"; alias = "e" } ];
      where = [ (R.Row_pred.Eq, col "zz" "col", Sql.Const (V.Int 1)) ];
      semijoins = [];
    }
  in
  check_bool "unknown alias rejected" true
    (try
       ignore (Server.exec server q);
       false
     with Invalid_argument _ -> true)

let test_indexed_equality_scans_less () =
  let server = load_server () in
  let eng = Server.engine server in
  let q =
    {
      Sql.distinct = false;
      columns = [];
      from = [ { Sql.table = "emp"; alias = "e" } ];
      where = [ (R.Row_pred.Eq, col "e" "dept", Sql.Const (V.Str "eng")) ];
      semijoins = [];
    }
  in
  let r, scanned = Engine.execute eng q in
  check_int "two eng rows" 2 (R.Relation.cardinality r);
  check_bool "scanned below full cardinality" true
    (scanned < Catalog.cardinality (Server.catalog server) "emp");
  check_int "scanned exactly the bucket" 2 scanned;
  (* residual on top of the probe: dept = eng AND sal > 65 *)
  let q' = { q with Sql.where = (R.Row_pred.Gt, col "e" "sal", Sql.Const (V.Int 65)) :: q.Sql.where } in
  let r', scanned' = Engine.execute eng q' in
  check_int "carol only" 1 (R.Relation.cardinality r');
  check_int "residual does not change rows scanned" 2 scanned'

let test_insert_maintains_indexes () =
  let server = load_server () in
  let eng = Server.engine server in
  let catalog = Server.catalog server in
  let q =
    {
      Sql.distinct = false;
      columns = [];
      from = [ { Sql.table = "emp"; alias = "e" } ];
      where = [ (R.Row_pred.Eq, col "e" "dept", Sql.Const (V.Str "eng")) ];
      semijoins = [];
    }
  in
  let r, _ = Engine.execute eng q in
  check_int "two eng rows before insert" 2 (R.Relation.cardinality r);
  let card_before = Catalog.cardinality catalog "emp" in
  Engine.insert eng "emp" [| V.Str "erin"; V.Str "eng"; V.Int 55 |];
  check_bool "index survives the insert" true
    (Catalog.index_on catalog "emp" [ 1 ] <> None);
  check_int "cardinality advanced with the row" (card_before + 1)
    (Catalog.cardinality catalog "emp");
  let r', scanned' = Engine.execute eng q in
  check_int "maintained index sees the new row" 3 (R.Relation.cardinality r');
  check_int "and scans only the bucket" 3 scanned'

let extra_cases =
  [
    Alcotest.test_case "condition classes" `Quick test_condition_classes;
    Alcotest.test_case "product without join condition" `Quick
      test_product_when_no_join_condition;
    Alcotest.test_case "unresolvable condition" `Quick test_unresolvable_condition_rejected;
    Alcotest.test_case "indexed equality scans only the bucket" `Quick
      test_indexed_equality_scans_less;
    Alcotest.test_case "insert maintains catalog indexes" `Quick
      test_insert_maintains_indexes;
  ]

let suites = match suites with
  | [ (name, cases) ] -> [ (name, cases @ extra_cases) ]
  | other -> other

(* --- composite / covering indexes and semi-join filters --- *)

module Qplan = Braid_remote.Qplan

let test_composite_index_probe () =
  let server = load_server () in
  let eng = Server.engine server in
  let q =
    {
      Sql.distinct = false;
      columns = [];
      from = [ { Sql.table = "emp"; alias = "e" } ];
      where =
        [
          (R.Row_pred.Eq, col "e" "dept", Sql.Const (V.Str "eng"));
          (R.Row_pred.Eq, col "e" "sal", Sql.Const (V.Int 70));
        ];
      semijoins = [];
    }
  in
  let r, scanned = Engine.execute eng q in
  check_int "carol only" 1 (R.Relation.cardinality r);
  check_int "touches only the composite bucket" 1 scanned;
  check_bool "composite index persisted" true
    (Catalog.index_on (Server.catalog server) "emp" [ 1; 2 ] <> None)

let test_covering_index_only_scan () =
  let server = load_server () in
  let eng = Server.engine server in
  let q =
    {
      Sql.distinct = true;
      columns = [ col "e" "dept" ];
      from = [ { Sql.table = "emp"; alias = "e" } ];
      where = [];
      semijoins = [];
    }
  in
  let r, scanned = Engine.execute eng q in
  check_int "two departments" 2 (R.Relation.cardinality r);
  check_int "touches one key per department" 2 scanned;
  check_bool "index-only path chosen" true
    ((Engine.plan_counters eng).Qplan.index_only_scans > 0);
  (* bag semantics without DISTINCT: one output row per base row, still
     answered from the key directory alone *)
  let r', scanned' = Engine.execute eng { q with Sql.distinct = false } in
  check_int "four rows" 4 (R.Relation.cardinality r');
  check_int "still only the key directory" 2 scanned'

let test_semijoin_filter_execution_and_printing () =
  let server = load_server () in
  let eng = Server.engine server in
  let dept = { Sql.src = "e"; attr = "dept" } in
  let q0 =
    {
      Sql.distinct = false;
      columns = [];
      from = [ { Sql.table = "emp"; alias = "e" } ];
      where = [];
      semijoins = [];
    }
  in
  let q = Sql.with_semijoins q0 [ (dept, [ V.Str "eng" ]) ] in
  check_bool "filter registered" true (Sql.has_semijoin q);
  let r, scanned = Engine.execute eng q in
  check_int "only eng rows survive the filter" 2 (R.Relation.cardinality r);
  check_bool "filter also reduces scanning" true (scanned <= 2);
  (* the printed filter is a digest over the sorted value set: the text is
     deterministic and independent of the order values were gathered in *)
  let a = Sql.with_semijoins q0 [ (dept, [ V.Str "eng"; V.Str "sales" ]) ] in
  let b = Sql.with_semijoins q0 [ (dept, [ V.Str "sales"; V.Str "eng" ]) ] in
  Alcotest.(check string) "order-insensitive text" (Sql.to_string a) (Sql.to_string b);
  check_bool "filtered text differs from unfiltered" true
    (Sql.to_string a <> Sql.to_string q0)

let test_explain_reports_estimates_and_actuals () =
  let server = load_server () in
  let eng = Server.engine server in
  let q =
    {
      Sql.distinct = false;
      columns = [ col "e" "name"; col "d" "city" ];
      from = [ { Sql.table = "emp"; alias = "e" }; { Sql.table = "dept"; alias = "d" } ];
      where = [ (R.Row_pred.Eq, col "e" "dept", col "d" "id") ];
      semijoins = [];
    }
  in
  let text = Engine.explain eng q in
  let contains needle =
    let nl = String.length needle and tl = String.length text in
    let rec at i = i + nl <= tl && (String.sub text i nl = needle || at (i + 1)) in
    at 0
  in
  check_bool "shows the plan signature" true (contains "plan:");
  check_bool "shows estimates" true (contains "est=");
  check_bool "shows actual cardinalities" true (contains "actual=4")

let planner_cases =
  [
    Alcotest.test_case "composite index probe" `Quick test_composite_index_probe;
    Alcotest.test_case "covering index-only scan" `Quick test_covering_index_only_scan;
    Alcotest.test_case "semi-join filter execution and printing" `Quick
      test_semijoin_filter_execution_and_printing;
    Alcotest.test_case "explain reports estimates and actuals" `Quick
      test_explain_reports_estimates_and_actuals;
  ]

let suites = match suites with
  | [ (name, cases) ] -> [ (name, cases @ planner_cases) ]
  | other -> other

(* --- semi-join filters on every access path that carries one --- *)

(* [parts] has 400 rows over 200 string keys [k], five groups [grp] (few
   enough for a bitmap), 100 ints [n] and eight tags [tag]. The IN-lists
   repeat values and mix ints with floats ([7.0] matches [7], [7.5] matches
   nothing); [Sql.with_semijoins] would de-duplicate them, so the filters
   are set directly. Each case checks the planner took the intended path,
   then compares the answer, as a bag, with [Ops.select] of the explicit
   [Or]-of-[Eq] filter over the base relation. A short list on [k] or [n]
   makes probing the column's index per value the cheapest path, so the
   cases for the other paths filter those columns with [key_most] and
   [num_most], which cover all but one key each. *)
let parts_schema =
  R.Schema.make [ ("k", V.Tstr); ("grp", V.Tstr); ("n", V.Tint); ("tag", V.Tstr) ]

let parts_rows =
  List.init 400 (fun i ->
      [| V.Str (Printf.sprintf "k%03d" (i mod 200)); V.Str (Printf.sprintf "g%d" (i mod 5));
         V.Int (i mod 100); V.Str (Printf.sprintf "t%d" (i mod 8)) |])

let semi_engine () =
  let eng = Engine.create () in
  Engine.load eng (R.Relation.of_tuples ~name:"parts" parts_schema parts_rows);
  Engine.load eng
    (R.Relation.of_tuples ~name:"probes"
       (R.Schema.make [ ("pk", V.Tstr) ])
       (List.map (fun k -> [| V.Str k |]) [ "k001"; "k005"; "k042"; "k404" ]));
  eng

let key_in = [ V.Str "k005"; V.Str "k001"; V.Str "k005"; V.Str "k150"; V.Str "k999"; V.Str "k042" ]
let num_in = [ V.Int 5; V.Float 1.0; V.Float 42.0; V.Float 7.5; V.Int 5; V.Int 50; V.Int 1 ]
let grp_in = [ V.Str "g1"; V.Str "g0"; V.Str "g1" ]
let key_most = key_in @ List.init 199 (fun i -> V.Str (Printf.sprintf "k%03d" i))
let num_most = num_in @ List.init 99 (fun i -> V.Float (float_of_int i))

let parts_col = function "k" -> 0 | "grp" -> 1 | "n" -> 2 | _ -> 3

(* The filter as the executor used to build it: one [Eq] per listed value. *)
let explicit_in col values =
  R.Row_pred.Or (List.map (fun v -> R.Row_pred.Cmp (R.Row_pred.Eq, Col col, Lit v)) values)

let bag r = List.sort compare (List.map R.Tuple.to_list (R.Relation.to_list r))

let rec labels (e : Qplan.explain) = e.Qplan.label :: List.concat_map labels e.Qplan.children

let contains ~needle text =
  let nl = String.length needle and tl = String.length text in
  let rec at i = i + nl <= tl && (String.sub text i nl = needle || at (i + 1)) in
  at 0

let check_semi_case eng ~name ~path ~columns ~from ~where ~semis ~expected =
  let q =
    { Sql.distinct = false; columns; from; where;
      semijoins = List.map (fun (src, attr, vs) -> ({ Sql.src; attr }, vs)) semis }
  in
  let r, _, explain, _ = Engine.execute_explained eng q in
  check_bool (name ^ ": plan uses " ^ path) true
    (List.exists (fun l -> contains ~needle:path l) (labels explain));
  check_bool (name ^ ": answer is non-empty") true (R.Relation.cardinality expected > 0);
  check_bool (name ^ ": answer = explicit Or-of-Eq select") true (bag r = bag expected);
  r

let one_parts = [ { Sql.table = "parts"; alias = "p" } ]
let pk_semis = [ ("p", "k", key_most); ("p", "n", num_most) ]
let pk_preds = [ explicit_in 0 key_most; explicit_in 2 num_most ]
let select_parts eng preds = R.Ops.select (R.Row_pred.conj preds) (Engine.table eng "parts")

let test_semi_seq_scan () =
  let eng = semi_engine () in
  ignore
    (check_semi_case eng ~name:"seq scan" ~path:"[seq]" ~columns:[] ~from:one_parts ~where:[]
       ~semis:pk_semis ~expected:(select_parts eng pk_preds))

let test_semi_index_probe () =
  let eng = semi_engine () in
  let t1 = R.Row_pred.Cmp (R.Row_pred.Eq, Col 3, Lit (V.Str "t1")) in
  ignore
    (check_semi_case eng ~name:"index probe" ~path:"[index probe" ~columns:[] ~from:one_parts
       ~where:[ (R.Row_pred.Eq, col "p" "tag", Sql.Const (V.Str "t1")) ]
       ~semis:pk_semis ~expected:(select_parts eng (t1 :: pk_preds)))

let test_semi_index_only () =
  let eng = semi_engine () in
  List.iter
    (fun (attr, values) ->
      let c = parts_col attr in
      let r =
        check_semi_case eng ~name:("index-only on " ^ attr) ~path:"[index-only"
          ~columns:[ col "p" attr ] ~from:one_parts ~where:[]
          ~semis:[ ("p", attr, values) ]
          ~expected:(R.Ops.project [ c ] (select_parts eng [ explicit_in c values ]))
      in
      let rows = List.map R.Tuple.to_list (R.Relation.to_list r) in
      check_bool ("index-only on " ^ attr ^ ": key order") true
        (rows = List.stable_sort (List.compare V.compare) rows))
    [ ("k", key_most); ("n", num_most) ]

let test_semi_bitmap_in () =
  let eng = semi_engine () in
  ignore
    (check_semi_case eng ~name:"bitmap IN + second semi" ~path:"[bitmap col 1 in"
       ~columns:[] ~from:one_parts ~where:[]
       ~semis:[ ("p", "grp", grp_in); ("p", "k", key_most) ]
       ~expected:(select_parts eng [ explicit_in 1 grp_in; explicit_in 0 key_most ]))

(* Plan estimates count an IN-set's distinct members: [grp_in] lists three
   values but names two of the five groups, so the bitmap scan on [grp] is
   expected to touch and return 2/5 of the 400 rows, 160 — not the 240 the
   raw list length gives — and to cost what the de-duplicated list does. *)
let test_semi_estimate_distinct () =
  let eng = semi_engine () in
  let scan values =
    let _, _, explain, plan =
      Engine.execute_explained eng
        { Sql.distinct = false; columns = []; from = one_parts; where = [];
          semijoins = [ ({ Sql.src = "p"; attr = "grp" }, values) ] }
    in
    check_bool "bitmap scan chosen" true (Qplan.plan_signature plan = "p+bitmap");
    (explain.Qplan.est_rows, Qplan.modeled_cost plan)
  in
  let est, cost = scan grp_in in
  check_int "estimated rows" 160 est;
  check_bool "cost = 160 touched rows" true
    (Float.abs (cost -. (CM.default.CM.server_scan_ms *. 160.0)) < 1e-9);
  check_bool "cost = the distinct list's" true
    (scan [ V.Str "g1"; V.Str "g0" ] = (est, cost))

(* [num_in] names five distinct values of [n] ([5] twice, [1.0] and [1]
   equal, [7.5] absent): one probe each, so each of the four present
   values' four rows is reached once, and [grp] is the residual, which
   keeps the rows of [5], [1] and [50]. *)
let test_semi_in_probe () =
  let eng = semi_engine () in
  let before = (Engine.plan_counters eng).Qplan.index_probes in
  let q =
    { Sql.distinct = false; columns = []; from = one_parts; where = [];
      semijoins =
        [ ({ Sql.src = "p"; attr = "n" }, num_in); ({ Sql.src = "p"; attr = "grp" }, grp_in) ] }
  in
  let r, scanned, _, plan = Engine.execute_explained eng q in
  check_bool "IN probe: plan" true (Qplan.plan_signature plan = "p+probe-in");
  check_int "IN probe: counted as one index probe" 1
    ((Engine.plan_counters eng).Qplan.index_probes - before);
  check_int "IN probe: scanned = the probed buckets' rows" 16 scanned;
  check_int "IN probe: output" 12 (R.Relation.cardinality r);
  ignore
    (check_semi_case eng ~name:"IN probe + second semi" ~path:"[index in col 2, 5 values]"
       ~columns:[] ~from:one_parts ~where:[]
       ~semis:[ ("p", "n", num_in); ("p", "grp", grp_in) ]
       ~expected:(select_parts eng [ explicit_in 2 num_in; explicit_in 1 grp_in ]))

(* An IN probe that beats an equality probe (50 rows for [tag = "t1"]
   against 28 estimated for [num_in]) keeps that equality as a residual
   filter. *)
let test_semi_in_probe_over_equality () =
  let eng = semi_engine () in
  let t1 = R.Row_pred.Cmp (R.Row_pred.Eq, Col 3, Lit (V.Str "t1")) in
  ignore
    (check_semi_case eng ~name:"IN probe over an equality" ~path:"[index in col 2, 5 values]"
       ~columns:[] ~from:one_parts
       ~where:[ (R.Row_pred.Eq, Sql.Const (V.Str "t1"), col "p" "tag") ]
       ~semis:[ ("p", "n", num_in) ]
       ~expected:(select_parts eng [ t1; explicit_in 2 num_in ]))

(* The right side's filters, its bitmap or IN-probe path's included,
   become a residual over the concatenated tuple. With [key_most] and
   [num_most] the right scan's path is the bitmap on [grp]; with the short
   lists it is the IN probe on [k]. *)
let test_semi_index_nl_residual () =
  List.iter
    (fun (keys, nums, right) ->
      let eng = semi_engine () in
      let join_pred =
        R.Row_pred.conj
          (R.Row_pred.Cmp (R.Row_pred.Eq, Col 0, Col 1)
          :: List.map (R.Row_pred.shift 1)
               [ explicit_in 1 grp_in; explicit_in 2 nums; explicit_in 0 keys ])
      in
      let from = [ { Sql.table = "probes"; alias = "q" }; { Sql.table = "parts"; alias = "p" } ]
      and where = [ (R.Row_pred.Eq, col "q" "pk", col "p" "k") ]
      and semis = [ ("p", "grp", grp_in); ("p", "n", nums); ("p", "k", keys) ] in
      let name = "index-NL right residual over " ^ right in
      ignore
        (check_semi_case eng ~name ~path:"index-nl join" ~columns:[] ~from ~where ~semis
           ~expected:
             (R.Ops.nested_join join_pred (Engine.table eng "probes") (Engine.table eng "parts")));
      let _, _, _, plan =
        Engine.execute_explained eng
          { Sql.distinct = false; columns = []; from; where;
            semijoins = List.map (fun (src, attr, vs) -> ({ Sql.src; attr }, vs)) semis }
      in
      check_bool (name ^ ": plan") true (Qplan.plan_signature plan = "inlj(q,p" ^ right ^ ")"))
    [ (key_most, num_most, "+bitmap"); (key_in, num_in, "+probe-in") ]

(* An IN probe emits its rows in probe order, not in the base table's, so
   it reports no sort order: a merge join above it must sort it first.
   Both tables are stored sorted on [k] (100 keys, 50 rows each); one
   side's IN-list names [70] before [20], the other's [20] before [70].
   Taking probe output as sorted makes a merge join without sorts the
   cheapest plan, and that merge drops the [20] matches; sorting both
   sides costs more than a hash join. *)
let test_in_probe_not_sorted () =
  let eng = Engine.create () in
  let sorted name =
    R.Relation.of_tuples ~name
      (R.Schema.make [ ("k", V.Tint); ("x", V.Tint) ])
      (List.init 5_000 (fun i -> [| V.Int (i / 50); V.Int i |]))
  in
  Engine.load eng (sorted "ma");
  Engine.load eng (sorted "mb");
  let q =
    { Sql.distinct = false; columns = [];
      from = [ { Sql.table = "ma"; alias = "a" }; { Sql.table = "mb"; alias = "b" } ];
      where = [ (R.Row_pred.Eq, col "a" "k", col "b" "k") ];
      semijoins =
        [ ({ Sql.src = "a"; attr = "k" }, [ V.Int 70; V.Int 20 ]);
          ({ Sql.src = "b"; attr = "k" }, [ V.Int 20; V.Int 70 ]) ] }
  in
  let r, _, _, plan = Engine.execute_explained eng q in
  let expected, _ = Engine.execute_naive eng q in
  check_bool ("IN-probed join inputs: " ^ Qplan.plan_signature plan) true
    (contains ~needle:"+probe-in" (Qplan.plan_signature plan));
  check_int "IN-probed join: every match" (2 * 50 * 50) (R.Relation.cardinality r);
  check_bool "IN-probed join = naive plan" true (bag r = bag expected)

let semi_cases =
  [
    Alcotest.test_case "semi-join filter on a seq scan" `Quick test_semi_seq_scan;
    Alcotest.test_case "semi-join filter on an index probe" `Quick test_semi_index_probe;
    Alcotest.test_case "semi-join filter on an index-only scan" `Quick test_semi_index_only;
    Alcotest.test_case "semi-join filter on a bitmap IN scan" `Quick test_semi_bitmap_in;
    Alcotest.test_case "semi-join filter on an IN probe" `Quick test_semi_in_probe;
    Alcotest.test_case "semi-join estimates count distinct members" `Quick
      test_semi_estimate_distinct;
    Alcotest.test_case "IN probe keeps equality filters" `Quick test_semi_in_probe_over_equality;
    Alcotest.test_case "IN-probed input reports no sort order" `Quick
      test_in_probe_not_sorted;
    Alcotest.test_case "semi-join filter in an index-NL residual" `Quick
      test_semi_index_nl_residual;
  ]

let suites = match suites with
  | [ (name, cases) ] -> [ (name, cases @ semi_cases) ]
  | other -> other

(* --- writes maintain the remote's indexes in place --- *)

let supplies_schema = R.Schema.make [ ("sup", V.Tstr); ("part", V.Tint); ("qty", V.Tint) ]

let supplies_row (s, p, q) = [| V.Str s; V.Int p; V.Int q |]

let supplies_engine rows =
  let eng = Engine.create () in
  Engine.load eng (R.Relation.of_tuples ~name:"supplies" supplies_schema rows);
  eng

(* A delete and an insert keep the very same index objects alive, and the
   index-only scan (a covering [(sup, part)] directory, in key order) and
   the index probe answer exactly as a freshly loaded engine does, with the
   same [scanned]. *)
let test_writes_maintain_indexes_in_place () =
  let eng =
    supplies_engine
      (List.map supplies_row
         [ ("s2", 1, 10); ("s1", 2, 20); ("s2", 1, 30); ("s3", 4, 40); ("s1", 3, 50);
           ("s2", 2, 60); ("s4", 5, 70) ])
  in
  let s = { Sql.table = "supplies"; alias = "s" } in
  let c attr = Sql.Col { Sql.src = "s"; attr } in
  let covering =
    { Sql.distinct = false; columns = [ c "sup"; c "part" ]; from = [ s ]; where = [];
      semijoins = [] }
  in
  let probe =
    { covering with
      Sql.columns = [];
      where = [ (R.Row_pred.Eq, c "sup", Sql.Const (V.Str "s2")) ] }
  in
  let run eng q =
    let before = (Engine.plan_counters eng).Braid_remote.Qplan.index_only_scans in
    let r, scanned = Engine.execute eng q in
    ( List.map R.Tuple.to_list (R.Relation.to_list r),
      scanned,
      (Engine.plan_counters eng).Braid_remote.Qplan.index_only_scans - before )
  in
  let agrees_with_fresh what =
    let fresh = supplies_engine (R.Relation.to_list (Engine.table eng "supplies")) in
    List.iter
      (fun (name, q) ->
        check_bool (Printf.sprintf "%s: %s = freshly loaded engine" what name) true
          (run eng q = run fresh q))
      [ ("index-only scan", covering); ("index probe", probe) ]
  in
  let _, _, only = run eng covering in
  check_int "index-only path" 1 only;
  ignore (run eng probe);
  let catalog = Engine.catalog eng in
  let ix_sup = Option.get (Catalog.index_on catalog "supplies" [ 0 ]) in
  let ix_pair = Option.get (Catalog.index_on catalog "supplies" [ 0; 1 ]) in
  check_bool "delete one of two equal-key rows" true
    (Engine.delete eng "supplies" (supplies_row ("s2", 1, 10)));
  Engine.insert eng "supplies" (supplies_row ("s0", 9, 80));
  List.iter
    (fun (name, cols, ix) ->
      check_bool (name ^ ": same index object after the writes") true
        (match Catalog.index_on catalog "supplies" cols with Some ix' -> ix' == ix | None -> false))
    [ ("sup", [ 0 ], ix_sup); ("(sup, part)", [ 0; 1 ], ix_pair) ];
  agrees_with_fresh "after delete + insert";
  check_bool "delete a key's last row" true
    (Engine.delete eng "supplies" (supplies_row ("s4", 5, 70)));
  let rows, _, _ = run eng covering in
  check_bool "emptied key leaves the index-only output" false
    (List.mem [ V.Str "s4"; V.Int 5 ] rows);
  check_bool "output in key order" true
    (rows = List.sort (List.compare V.compare) rows);
  agrees_with_fresh "after emptying a key";
  check_bool "removing an absent tuple is refused" true
    (match R.Index.remove ix_sup (supplies_row ("s9", 0, 0)) with
     | () -> false
     | exception Invalid_argument _ -> true)

(* [note_insert] bumps a column's distinct count only for a value new to
   it; after random inserts (ints, equal integral floats, strings, Null)
   the counts and cardinality equal a full [refresh_stats] rescan. The
   sorted prefix is left out: inserts clear it conservatively. *)
let test_note_insert_distinct_counts () =
  let rng = Random.State.make [| 7 |] in
  let value () =
    match Random.State.int rng 4 with
    | 0 -> V.Int (Random.State.int rng 30)
    | 1 -> V.Float (float_of_int (Random.State.int rng 30))
    | 2 -> V.Str (string_of_int (Random.State.int rng 10))
    | _ -> V.Null
  in
  let eng = supplies_engine [] in
  for _ = 1 to 300 do
    Engine.insert eng "supplies" [| value (); value (); value () |]
  done;
  let rescanned = Catalog.create () in
  Catalog.register rescanned "supplies" supplies_schema;
  Catalog.refresh_stats rescanned "supplies" (Engine.table eng "supplies");
  let stats catalog =
    let st = Option.get (Catalog.stats_of catalog "supplies") in
    (st.Catalog.cardinality, Array.to_list st.Catalog.distinct_per_column)
  in
  check_bool "incremental stats = rescan" true (stats (Engine.catalog eng) = stats rescanned)

let write_cases =
  [
    Alcotest.test_case "note_insert distinct counts = rescan" `Quick
      test_note_insert_distinct_counts;
    Alcotest.test_case "writes maintain indexes in place" `Quick
      test_writes_maintain_indexes_in_place;
  ]

let suites = match suites with
  | [ (name, cases) ] -> [ (name, cases @ write_cases) ]
  | other -> other
