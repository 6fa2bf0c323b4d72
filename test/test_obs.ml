(* The observability layer: histogram percentiles on known inputs, the
   metrics registry, span-tree well-formedness over a real end-to-end run,
   the JSON printer, export formats, and span-count determinism across two
   seeded runs. *)

module Obs = Braid_obs
module H = Braid_obs.Histogram
module M = Braid_obs.Metrics
module T = Braid_obs.Trace
module J = Braid_obs.Json
module L = Braid_logic
module V = Braid_relalg.Value

let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let contains needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* --- histograms --- *)

let test_hist_known_percentiles () =
  let h = H.create () in
  for i = 1 to 100 do
    H.observe h (float_of_int i)
  done;
  check_int "count" 100 (H.count h);
  check_float "sum" 5050.0 (H.sum h);
  check_float "min" 1.0 (H.min_value h);
  check_float "max" 100.0 (H.max_value h);
  check_float "mean" 50.5 (H.mean h);
  (* rank 50 is reached in the 64-bucket; ranks 95 and 99 fall in the
     128-bucket, clamped to the observed max. *)
  check_float "p50" 64.0 (H.quantile h 0.50);
  check_float "p95" 100.0 (H.quantile h 0.95);
  check_float "p99" 100.0 (H.quantile h 0.99);
  check_float "p100 = max" 100.0 (H.quantile h 1.0)

let test_hist_single_and_exact () =
  let h = H.create () in
  H.observe h 3.0;
  check_float "single p50 clamps to max" 3.0 (H.quantile h 0.5);
  check_float "single p99" 3.0 (H.quantile h 0.99);
  let h2 = H.create () in
  List.iter (H.observe h2) [ 0.5; 1.0; 2.0; 4.0 ];
  (* exact powers of two sit on bucket bounds: quantiles are exact *)
  check_float "on-bound p25" 0.5 (H.quantile h2 0.25);
  check_float "on-bound p50" 1.0 (H.quantile h2 0.50);
  check_float "on-bound p75" 2.0 (H.quantile h2 0.75);
  check_float "on-bound p100" 4.0 (H.quantile h2 1.0)

let test_hist_empty_and_overflow () =
  let h = H.create () in
  check_bool "empty quantile is nan" true (Float.is_nan (H.quantile h 0.5));
  check_bool "empty mean is nan" true (Float.is_nan (H.mean h));
  H.observe h 2e12;
  (* beyond the last bound: lands in the overflow bucket, quantile
     reports the observed max *)
  check_float "overflow p50" 2e12 (H.quantile h 0.5);
  check_bool "overflow bucket bound" true
    (List.exists (fun (b, n) -> b = Float.infinity && n = 1) (H.buckets h))

let test_hist_buckets_increasing () =
  let h = H.create () in
  List.iter (H.observe h) [ 0.3; 5.0; 5.0; 900.0 ];
  let bs = H.buckets h in
  check_int "observations preserved" 4 (List.fold_left (fun a (_, n) -> a + n) 0 bs);
  let rec increasing = function
    | (a, _) :: ((b, _) :: _ as tl) -> a < b && increasing tl
    | _ -> true
  in
  check_bool "bounds increasing" true (increasing bs)

(* --- the metrics registry --- *)

let test_metrics_registry () =
  M.incr "testobs.a";
  M.incr ~by:4 "testobs.a";
  check_int "counter accumulates" 5 (M.counter_value "testobs.a");
  check_int "absent counter is 0" 0 (M.counter_value "testobs.nope");
  M.set_gauge "testobs.g" 2.5;
  M.observe "testobs.h_ms" 10.0;
  M.observe "testobs.h_ms" 20.0;
  (match M.histogram "testobs.h_ms" with
   | Some h -> check_int "histogram count" 2 (H.count h)
   | None -> Alcotest.fail "histogram not registered");
  check_bool "kind mismatch raises" true
    (try
       M.observe "testobs.a" 1.0;
       false
     with Invalid_argument _ -> true);
  let text = M.render () in
  check_bool "render lists counter" true (contains "testobs.a" text);
  check_bool "render lists histogram" true (contains "testobs.h_ms" text);
  check_bool "render has percentile header" true (contains "p95" text)

(* --- the span tracer --- *)

let with_tracer f =
  let tr = T.create () in
  T.install tr;
  Fun.protect ~finally:T.uninstall (fun () -> f tr)

let test_tracer_off_is_noop () =
  T.uninstall ();
  check_bool "disabled" false (T.enabled ());
  (* none of these may raise or record anywhere *)
  T.instant ~cat:"x" "x.i";
  T.add_arg "k" (T.Int 1);
  check_int "with_span is just f ()" 7 (T.with_span ~cat:"x" "x.s" (fun () -> 7))

let test_span_nesting_and_args () =
  with_tracer (fun tr ->
      T.with_span ~cat:"a" "outer" (fun () ->
          T.add_arg "k" (T.Int 1);
          T.add_arg "k" (T.Int 2);
          T.with_span ~cat:"a" "inner" (fun () -> T.instant ~cat:"a" "tick"));
      let spans = T.spans tr in
      check_int "three spans" 3 (List.length spans);
      let find name = List.find (fun (s : T.span) -> s.T.name = name) spans in
      let outer = find "outer" and inner = find "inner" and tick = find "tick" in
      check_bool "outer is a root" true (outer.T.parent = None);
      check_bool "inner's parent is outer" true (inner.T.parent = Some outer.T.id);
      check_bool "instant's parent is inner" true (tick.T.parent = Some inner.T.id);
      check_bool "instant flagged" true tick.T.instant;
      check_bool "outer encloses inner" true
        (outer.T.start_ts < inner.T.start_ts && inner.T.end_ts < outer.T.end_ts);
      (* duplicate args: the later value wins at export *)
      let jsonl = T.to_jsonl tr in
      check_bool "newest duplicate arg wins" true (contains "\"k\":2" jsonl);
      check_bool "older duplicate arg dropped" false (contains "\"k\":1" jsonl))

let test_span_closed_on_exception () =
  with_tracer (fun tr ->
      (try T.with_span ~cat:"a" "boom" (fun () -> failwith "x") with Failure _ -> ());
      match T.spans tr with
      | [ s ] ->
        check_bool "span completed" true (s.T.end_ts > s.T.start_ts);
        check_bool "raised arg attached" true
          (List.exists (fun (k, v) -> k = "raised" && v = T.Bool true) s.T.args)
      | spans -> Alcotest.failf "expected 1 span, got %d" (List.length spans))

let test_span_limit () =
  let tr = T.create ~limit:2 () in
  T.install tr;
  Fun.protect ~finally:T.uninstall (fun () ->
      T.instant ~cat:"a" "i1";
      T.instant ~cat:"a" "i2";
      T.instant ~cat:"a" "i3");
  check_int "retained" 2 (List.length (T.spans tr));
  check_int "dropped" 1 (T.dropped tr);
  check_int "span_count includes dropped" 3 (T.span_count tr)

(* --- well-formedness + determinism over a real end-to-end run --- *)

let family_run () =
  let sys =
    Braid.System.build ~config:Braid_planner.Qpo.braid_config
      ~kb:(Braid_workload.Kbgen.ancestor ())
      ~data:(Braid_workload.Datagen.family ~persons:40 ~fanout:3 ())
      ()
  in
  let q = L.Atom.make "ancestor" [ L.Term.Const (V.Str "p0"); L.Term.Var "Y" ] in
  ignore (Braid.System.solve_all sys q);
  ignore (Braid.System.solve_all sys q)

let traced_run () =
  let tr = T.create () in
  T.install tr;
  Fun.protect ~finally:T.uninstall family_run;
  tr

let test_span_tree_well_formed () =
  let tr = traced_run () in
  let spans = T.spans tr in
  check_bool "produced spans" true (List.length spans > 10);
  let ids = Hashtbl.create 256 in
  List.iter (fun (s : T.span) -> Hashtbl.replace ids s.T.id ()) spans;
  List.iter
    (fun (s : T.span) ->
      (match s.T.parent with
       | Some p ->
         check_bool "parent exists" true (Hashtbl.mem ids p);
         (* ids are allocated in begin order, so parent < child rules out
            cycles structurally *)
         check_bool "parent precedes child" true (p < s.T.id)
       | None -> ());
      check_bool "end >= start" true (s.T.end_ts >= s.T.start_ts))
    spans;
  let names = List.map (fun (s : T.span) -> s.T.name) spans in
  List.iter
    (fun expected ->
      check_bool (expected ^ " present") true (List.mem expected names))
    [ "ie.solve"; "ie.extract"; "ie.shape"; "ie.advice"; "qpo.answer"; "qpo.solve";
      "qpo.subsume"; "cache.eval_lazy"; "cache.admit"; "remote.exec"; "rdi.exec" ]

let test_trace_determinism () =
  let tr1 = traced_run () and tr2 = traced_run () in
  check_int "same span count" (T.span_count tr1) (T.span_count tr2);
  let sig_of tr =
    List.map (fun (s : T.span) -> (s.T.name, s.T.cat, s.T.start_ts, s.T.end_ts)) (T.spans tr)
  in
  check_bool "same span sequence" true (sig_of tr1 = sig_of tr2)

(* --- exports --- *)

(* A JSON object/array balance check that respects string literals, good
   enough to catch broken emission without a JSON library. *)
let json_balanced text =
  let depth = ref 0 and in_str = ref false and esc = ref false and ok = ref true in
  String.iter
    (fun c ->
      if !esc then esc := false
      else if !in_str then begin
        if c = '\\' then esc := true else if c = '"' then in_str := false
      end
      else
        match c with
        | '"' -> in_str := true
        | '{' | '[' -> incr depth
        | '}' | ']' ->
          decr depth;
          if !depth < 0 then ok := false
        | _ -> ())
    text;
  !ok && !depth = 0 && not !in_str

let test_exports () =
  let tr = traced_run () in
  let chrome = T.to_chrome tr in
  check_bool "chrome has traceEvents" true (contains "\"traceEvents\":[" chrome);
  check_bool "chrome has complete events" true (contains "\"ph\":\"X\"" chrome);
  check_bool "chrome has displayTimeUnit" true (contains "\"displayTimeUnit\":\"ms\"" chrome);
  check_bool "chrome JSON balanced" true (json_balanced chrome);
  let jsonl = T.to_jsonl tr in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' jsonl) in
  check_int "one JSONL line per span" (List.length (T.spans tr)) (List.length lines);
  List.iter
    (fun l ->
      check_bool "line is an object" true
        (String.length l > 1 && l.[0] = '{' && l.[String.length l - 1] = '}');
      check_bool "line balanced" true (json_balanced l))
    lines;
  (* escaping: a hostile name must not break the document *)
  let tr2 = T.create () in
  T.install tr2;
  Fun.protect ~finally:T.uninstall (fun () ->
      T.instant ~cat:"x" "quote\"back\\slash\nnewline");
  check_bool "escaped chrome balanced" true (json_balanced (T.to_chrome tr2));
  check_bool "escaped jsonl balanced" true (json_balanced (T.to_jsonl tr2))

(* --- the JSON printer --- *)

let test_json_escapes () =
  (* every control byte, the quote and the backslash; other bytes, UTF-8
     included, are copied *)
  let text = String.init 32 Char.chr ^ "\"\\ ~\xc3\xa9" in
  check_string "escaped string"
    ({|"\u0000\u0001\u0002\u0003\u0004\u0005\u0006\u0007\u0008\t\n\u000b\u000c\r\u000e\u000f\u0010\u0011\u0012\u0013\u0014\u0015\u0016\u0017\u0018\u0019\u001a\u001b\u001c\u001d\u001e\u001f\"\\ ~|} ^ "\xc3\xa9\"")
    (J.to_string (J.Str text));
  check_string "object keys are escaped too" {|{"a\"b":null}|}
    (J.to_string ~compact:true (J.Obj [ ("a\"b", J.Null) ]))

let test_json_numbers () =
  check_string "Num is verbatim" "[0.00, 1e3, -7]"
    (J.to_string (J.List [ J.Num "0.00"; J.Num "1e3"; J.Num "-7" ]));
  check_string "int" "42" (J.to_string (J.int 42));
  check_string "float keeps its decimals" "[0.00, 63.750, 56.2]"
    (J.to_string
       (J.List [ J.float ~decimals:2 0.0; J.float ~decimals:3 63.75; J.float ~decimals:1 56.24 ]));
  check_string "non-finite float is null" "[null, null]"
    (J.to_string (J.List [ J.float ~decimals:1 Float.nan; J.float ~decimals:1 Float.infinity ]))

let test_json_empty_containers () =
  check_string "empty object" "{}" (J.to_string (J.Obj []));
  check_string "empty list" "[]" (J.to_string (J.List []));
  check_string "compact empties" "{}[]"
    (J.to_string ~compact:true (J.Obj []) ^ J.to_string ~compact:true (J.List []));
  check_string "empty children do not break a line" {|{"a": [], "b": {}}|}
    (J.to_string (J.Obj [ ("a", J.List []); ("b", J.Obj []) ]))

let test_json_pretty_layout () =
  check_string "scalars stay on one line" {|{"label": "a", "n": 1, "ok": true}|}
    (J.to_string (J.Obj [ ("label", J.Str "a"); ("n", J.int 1); ("ok", J.Bool true) ]));
  let row label n = J.Obj [ ("label", J.Str label); ("n", J.int n) ] in
  check_string "a container holding a non-empty container breaks"
    "{\n\
    \  \"suite\": \"relalg\",\n\
    \  \"rows\": [\n\
    \    {\"label\": \"a\", \"n\": 1},\n\
    \    {\"label\": \"b\", \"n\": 2}\n\
    \  ],\n\
    \  \"empty\": []\n\
     }"
    (J.to_string
       (J.Obj [ ("suite", J.Str "relalg"); ("rows", J.List [ row "a" 1; row "b" 2 ]); ("empty", J.List []) ]));
  check_string "lists break the same way" "[\n  [1, 2],\n  3\n]"
    (J.to_string (J.List [ J.List [ J.int 1; J.int 2 ]; J.int 3 ]))

let test_json_compact () =
  let v =
    J.Obj
      [
        ("a", J.int 1);
        ("b", J.List [ J.Bool true; J.Null; J.Obj [ ("c", J.List [ J.Str "x y" ]) ] ]);
        ("d", J.Obj []);
      ]
  in
  check_string "compact" {|{"a":1,"b":[true,null,{"c":["x y"]}],"d":{}}|}
    (J.to_string ~compact:true v)

let test_write_picks_format () =
  let tr = traced_run () in
  let tmp = Filename.temp_file "braid_trace" ".json" in
  let tmpl = Filename.temp_file "braid_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove tmp;
      Sys.remove tmpl)
    (fun () ->
      T.write tr tmp;
      T.write tr tmpl;
      let read p = In_channel.with_open_bin p In_channel.input_all in
      check_bool ".json is chrome format" true (contains "traceEvents" (read tmp));
      check_bool ".jsonl is line format" false (contains "traceEvents" (read tmpl)))

let suites =
  [
    ( "obs",
      [
        Alcotest.test_case "histogram percentiles 1..100" `Quick test_hist_known_percentiles;
        Alcotest.test_case "histogram single + on-bound" `Quick test_hist_single_and_exact;
        Alcotest.test_case "histogram empty + overflow" `Quick test_hist_empty_and_overflow;
        Alcotest.test_case "histogram buckets" `Quick test_hist_buckets_increasing;
        Alcotest.test_case "metrics registry" `Quick test_metrics_registry;
        Alcotest.test_case "tracer off is a no-op" `Quick test_tracer_off_is_noop;
        Alcotest.test_case "span nesting + args" `Quick test_span_nesting_and_args;
        Alcotest.test_case "span closed on exception" `Quick test_span_closed_on_exception;
        Alcotest.test_case "span retention limit" `Quick test_span_limit;
        Alcotest.test_case "span tree well-formed (e2e)" `Quick test_span_tree_well_formed;
        Alcotest.test_case "trace deterministic across runs" `Quick test_trace_determinism;
        Alcotest.test_case "json string escapes" `Quick test_json_escapes;
        Alcotest.test_case "json numbers verbatim" `Quick test_json_numbers;
        Alcotest.test_case "json empty containers" `Quick test_json_empty_containers;
        Alcotest.test_case "json pretty layout" `Quick test_json_pretty_layout;
        Alcotest.test_case "json compact" `Quick test_json_compact;
        Alcotest.test_case "chrome + jsonl exports" `Quick test_exports;
        Alcotest.test_case "write picks format by extension" `Quick test_write_picks_format;
      ] );
  ]
