(* Doc doctests: every fenced ```caql / ```advice block in the markdown
   documentation must parse with the real parsers, so examples cannot
   drift from the implementation; plus the REPL :help audit — every
   dispatched command must be documented. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* Paths are relative to the runtest cwd (_build/default/test); the dune
   stanza lists these files as deps so edits retrigger the tests. When the
   cwd differs (`dune exec test/test_main.exe`), fall back to resolving
   against the executable's own directory, which is always that test dir. *)
let doc_files =
  [ "../README.md"; "../docs/CAQL.md"; "../docs/ADVICE.md"; "../docs/CONSISTENCY.md" ]

let read_file path =
  let path =
    if Sys.file_exists path then path
    else Filename.concat (Filename.dirname Sys.executable_name) path
  in
  In_channel.with_open_text path In_channel.input_all

(* Fenced blocks tagged [lang]: returns [(start_line, body)]. *)
let blocks_of ~lang text =
  let lines = String.split_on_char '\n' text in
  let fence = "```" ^ lang in
  let rec scan acc current = function
    | [] -> List.rev acc
    | (lineno, l) :: tl ->
      let t = String.trim l in
      (match current with
       | None ->
         if t = fence then scan acc (Some (lineno + 1, [])) tl
         else scan acc None tl
       | Some (start, body) ->
         if t = "```" then
           scan ((start, String.concat "\n" (List.rev body)) :: acc) None tl
         else scan acc (Some (start, l :: body)) tl)
  in
  scan [] None (List.mapi (fun i l -> (i + 1, l)) lines)

let parse_block file lang parse (lineno, body) =
  try parse body
  with
  | Braid_caql.Parser.Error m | Braid_advice.Parser.Error m ->
    Alcotest.failf "%s: ```%s block at line %d no longer parses: %s" file lang lineno m

let test_caql_blocks () =
  let total = ref 0 in
  List.iter
    (fun file ->
      List.iter
        (fun block ->
          incr total;
          let clauses =
            parse_block file "caql"
              (fun b -> Braid_caql.Parser.parse_program b)
              block
          in
          check_bool
            (Printf.sprintf "%s line %d: block yields clauses" file (fst block))
            true (clauses <> []))
        (blocks_of ~lang:"caql" (read_file file)))
    doc_files;
  (* guard against the tags being silently removed *)
  check_bool "README + docs contain caql examples" true (!total >= 2)

let test_advice_blocks () =
  let total = ref 0 in
  List.iter
    (fun file ->
      List.iter
        (fun block ->
          incr total;
          let advice =
            parse_block file "advice" (fun b -> Braid_advice.Parser.parse b) block
          in
          check_bool
            (Printf.sprintf "%s line %d: block yields specs" file (fst block))
            true
            (advice.Braid_advice.Ast.specs <> []))
        (blocks_of ~lang:"advice" (read_file file)))
    doc_files;
  check_int "exactly the ADVICE.md example block" 1 !total

(* The specific documented behaviours the blocks rely on, checked
   directly so a failure pinpoints the drifted construct. *)
let test_documented_constructs () =
  let parses s =
    match Braid_caql.Parser.parse_program s with _ -> true | exception _ -> false
  in
  check_bool "negation" true (parses "introductory(C) :- enrolled(s1, C, G) & ~prereq(C, R).");
  check_bool "aggregates in the head" true
    (parses "load(S, count(P), max(Q)) :- supplies(S, P, Q).");
  check_bool "distinct prefix" true (parses "distinct dests(Y) :- edge(X, Y).");
  check_bool "arithmetic comparisons" true
    (parses "heavy(S, P) :- supplies(S, P, Q) & part(P, C, W) & Q * W > 1000.")

(* --- REPL :help audit --- *)

let test_help_documents_every_command () =
  List.iter
    (fun cmd ->
      check_bool (cmd ^ " is documented in :help") true
        (contains cmd Braid_serve.Repl.commands_help))
    Braid_serve.Repl.command_names

let test_every_command_dispatches () =
  List.iter
    (fun cmd ->
      (* A fresh session per command: ":quit"-style commands must not leak
         state. Each name must reach a handler — never the unknown-command
         fallback (handlers may still answer "usage: ..." without args). *)
      let s = Braid_serve.Repl.create () in
      let reply = Braid_serve.Repl.exec_line s cmd in
      check_bool (cmd ^ " reaches a handler") false (contains "unknown command" reply))
    Braid_serve.Repl.command_names

let test_spans_command () =
  let s = Braid_serve.Repl.create () in
  check_bool "off by default" true
    (contains "span recording is off" (Braid_serve.Repl.exec_line s ":spans"));
  ignore (Braid_serve.Repl.exec_line s ":trace on");
  ignore (Braid_serve.Repl.exec_line s "parent(tom, bob).");
  ignore (Braid_serve.Repl.exec_line s "anc(X, Y) :- parent(X, Y).");
  ignore (Braid_serve.Repl.exec_line s "?- anc(tom, Y).");
  let out = Braid_serve.Repl.exec_line s ":spans" in
  check_bool "spans listed" true (contains "qpo.answer" out);
  check_bool "metrics include observability" true
    (contains "-- observability --" (Braid_serve.Repl.exec_line s ":metrics"));
  ignore (Braid_serve.Repl.exec_line s ":trace off");
  check_bool "off again" true
    (contains "span recording is off" (Braid_serve.Repl.exec_line s ":spans"))

(* Every soak command in the README names a leg of [Soak.legs], and
   every leg has one, so the documented commands cannot drift from the
   list the CLI accepts. *)
let test_readme_soak_legs () =
  let words =
    String.split_on_char '\n' (read_file "../README.md")
    |> List.concat_map (String.split_on_char ' ')
  in
  let rec legs acc = function
    | "--serve" :: leg :: tl -> legs (leg :: acc) tl
    | _ :: tl -> legs acc tl
    | [] -> List.sort_uniq compare acc
  in
  Alcotest.(check (list string))
    "README --serve legs" (List.sort compare (List.map fst Braid_serve.Soak.legs))
    (legs [] words)

(* Names in the first column of the table under OBSERVABILITY.md's
   [heading] (a cell may list several, e.g. `a` / `b`). *)
let taxonomy_names heading =
  let lines = String.split_on_char '\n' (read_file "../docs/OBSERVABILITY.md") in
  let rec section = function
    | [] -> []
    | l :: tl when String.trim l = heading -> body tl
    | _ :: tl -> section tl
  and body = function
    | [] -> []
    | l :: _ when String.starts_with ~prefix:"## " l -> []
    | l :: tl when String.starts_with ~prefix:"| `" l ->
      let cell = List.nth (String.split_on_char '|' l) 1 in
      List.filteri (fun i _ -> i mod 2 = 1) (String.split_on_char '`' cell) @ body tl
    | _ :: tl -> body tl
  in
  section lines

(* Every metric the soak legs register is catalogued, so the taxonomy
   cannot fall behind the registry. 120 waves (under a second for all six
   legs) reach the trips, fast-fails, hinted writes and handoffs that
   shorter runs miss. *)
let test_taxonomy_covers_registry () =
  let documented = taxonomy_names "## Metric taxonomy" in
  check_bool "taxonomy table found" true (List.length documented > 20);
  Braid_obs.Metrics.reset ();
  List.iter
    (fun (_, profile) -> ignore (Braid_serve.Soak.run profile ~seed:1 ~waves:120))
    Braid_serve.Soak.legs;
  List.iter
    (fun row ->
      let name = Braid_obs.Metrics.row_name row in
      check_bool (name ^ " is in the metric taxonomy") true (List.mem name documented))
    (Braid_obs.Metrics.snapshot ())

(* The span table is checked the same way against a tracer installed over
   the six legs, plus one RDI request whose budget stops it after a retry
   (the soak's tighter budgets stop before any retry). *)
let test_span_taxonomy_covers_trace () =
  let module Trace = Braid_obs.Trace in
  let module Remote = Braid_remote in
  let documented = taxonomy_names "## Span taxonomy" in
  check_bool "span table found" true (List.length documented > 20);
  let budget_stop_after_retry () =
    let server = Remote.Server.create () in
    List.iter
      (Remote.Engine.load (Remote.Server.engine server))
      (Braid_workload.Datagen.paper_example ~size:20 ());
    Remote.Server.set_faults server
      (Some { Remote.Fault.none with Remote.Fault.error_rate = 1.0; seed = 3 });
    (* 150 ms: room for the first backoff, not for the second *)
    let policy =
      { Remote.Rdi.default_policy with Remote.Rdi.seed = 9; request_budget_ms = Some 150.0 }
    in
    ignore (Remote.Rdi.exec (Remote.Rdi.create ~policy server) (Remote.Sql.select_all "b2"))
  in
  let tr = Trace.create () in
  Trace.install tr;
  Fun.protect ~finally:Trace.uninstall (fun () ->
      List.iter
        (fun (_, profile) -> ignore (Braid_serve.Soak.run profile ~seed:1 ~waves:120))
        Braid_serve.Soak.legs;
      budget_stop_after_retry ());
  check_int "nothing dropped" 0 (Trace.dropped tr);
  let recorded =
    List.sort_uniq compare (List.map (fun (s : Trace.span) -> s.Trace.name) (Trace.spans tr))
  in
  List.iter
    (fun name -> check_bool (name ^ " was recorded") true (List.mem name recorded))
    [ "rdi.retry"; "rdi.budget_stop"; "shard.read" ];
  List.iter
    (fun name -> check_bool (name ^ " is in the span taxonomy") true (List.mem name documented))
    recorded

let suites =
  [
    ( "docs",
      [
        Alcotest.test_case "```caql blocks parse" `Quick test_caql_blocks;
        Alcotest.test_case "```advice blocks parse" `Quick test_advice_blocks;
        Alcotest.test_case "documented constructs" `Quick test_documented_constructs;
        Alcotest.test_case ":help documents every command" `Quick
          test_help_documents_every_command;
        Alcotest.test_case "every command dispatches" `Quick test_every_command_dispatches;
        Alcotest.test_case ":spans / :metrics observability" `Quick test_spans_command;
        Alcotest.test_case "README soak commands name every leg" `Quick
          test_readme_soak_legs;
        Alcotest.test_case "metric taxonomy covers the registry" `Quick
          test_taxonomy_covers_registry;
        Alcotest.test_case "span taxonomy covers the trace" `Quick
          test_span_taxonomy_covers_trace;
      ] );
  ]
