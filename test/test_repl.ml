(* The interactive session engine (drives Braid_serve.Repl.exec_line directly). *)

let check_bool = Alcotest.(check bool)

let contains needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let feed session lines = List.map (Braid_serve.Repl.exec_line session) lines

let family_session () =
  let s = Braid_serve.Repl.create () in
  let _ =
    feed s
      [
        "parent(tom, bob).";
        "parent(bob, carol).";
        "parent(bob, dave).";
        "anc(X, Y) :- parent(X, Y).";
        "anc(X, Y) :- parent(X, Z) & anc(Z, Y).";
      ]
  in
  s

let test_facts_and_rules () =
  let s = Braid_serve.Repl.create () in
  check_bool "new relation" true
    (contains "new base relation parent/2" (Braid_serve.Repl.exec_line s "parent(tom, bob)."));
  check_bool "second tuple" true
    (contains "2 tuples" (Braid_serve.Repl.exec_line s "parent(tom, ann)."));
  check_bool "rule added" true
    (contains "rule added" (Braid_serve.Repl.exec_line s "anc(X, Y) :- parent(X, Y)."))

let test_query () =
  let s = family_session () in
  let out = Braid_serve.Repl.exec_line s "?- anc(tom, Y)." in
  check_bool "three descendants" true (contains "3 solutions" out);
  check_bool "finds carol" true (contains "carol" out)

let test_live_fact_insertion () =
  let s = family_session () in
  let _ = Braid_serve.Repl.exec_line s "?- anc(tom, Y)." in
  (* the system is built; a new fact must invalidate the cache *)
  let _ = Braid_serve.Repl.exec_line s "parent(carol, emil)." in
  let out = Braid_serve.Repl.exec_line s "?- anc(tom, Y)." in
  check_bool "sees the new descendant" true (contains "4 solutions" out)

let test_explain () =
  let s = family_session () in
  let out = Braid_serve.Repl.exec_line s ":explain anc(tom, carol)" in
  check_bool "mentions a rule" true (contains "[rule" out);
  check_bool "mentions a database fact" true (contains "[database]" out)

let test_explain_clause_plan () =
  let s = family_session () in
  let out =
    Braid_serve.Repl.exec_line s ":explain gp(X, Y) :- parent(X, Z) & parent(Z, Y)."
  in
  check_bool "shows the shipped SQL" true (contains "SELECT" out);
  check_bool "shows the plan signature" true (contains "plan:" out);
  check_bool "shows estimated rows" true (contains "est=" out);
  check_bool "shows actual rows" true (contains "actual=" out)

let test_caql_and_plan () =
  let s = family_session () in
  let out = Braid_serve.Repl.exec_line s ":caql gp(X, Y) :- parent(X, Z) & parent(Z, Y)." in
  check_bool "grandparents found" true (contains "2 solutions" out);
  check_bool "plan shown" true (contains "plan:" out)

let test_inspection_commands () =
  let s = family_session () in
  check_bool "no session yet" true (contains "no session" (Braid_serve.Repl.exec_line s ":cache"));
  let _ = Braid_serve.Repl.exec_line s "?- anc(tom, Y)." in
  check_bool "cache listing" true (contains "elements" (Braid_serve.Repl.exec_line s ":cache"));
  check_bool "metrics" true (contains "remote:" (Braid_serve.Repl.exec_line s ":metrics"));
  check_bool "advice" true (contains "path (" (Braid_serve.Repl.exec_line s ":advice"));
  check_bool "rules listing" true (contains "anc(X, Y)" (Braid_serve.Repl.exec_line s ":rules"));
  check_bool "lint clean" true (contains "clean" (Braid_serve.Repl.exec_line s ":lint"))

let test_lint_flags_typo () =
  let s = family_session () in
  let _ = Braid_serve.Repl.exec_line s "bad(X) :- paren(X, Y)." in
  check_bool "typo flagged" true (contains "paren" (Braid_serve.Repl.exec_line s ":lint"))

let test_system_and_strategy_switch () =
  let s = family_session () in
  check_bool "system switch" true
    (contains "bermuda" (Braid_serve.Repl.exec_line s ":system bermuda"));
  check_bool "bad system" true
    (contains "unknown system" (Braid_serve.Repl.exec_line s ":system nope"));
  (match Braid.Baselines.of_label "nope" with
   | Ok _ -> Alcotest.fail "nope is not a coupling discipline"
   | Error msg ->
     Alcotest.(check string) "the REPL reports the label table's error" ("error: " ^ msg)
       (Braid_serve.Repl.exec_line s ":system nope"));
  check_bool "every label resolves" true
    (List.for_all
       (fun b -> Braid.Baselines.of_label b.Braid.Baselines.label = Ok b)
       Braid.Baselines.all);
  check_bool "strategy switch" true
    (contains "strategy = set-oriented" (Braid_serve.Repl.exec_line s ":strategy set-oriented"));
  check_bool "conjunction-k" true
    (contains "conjunction-3" (Braid_serve.Repl.exec_line s ":strategy conjunction-3"));
  check_bool "no compiled alias" true
    (contains "unknown strategy" (Braid_serve.Repl.exec_line s ":strategy compiled"));
  (* queries still work after switching *)
  check_bool "query after switch" true
    (contains "3 solutions" (Braid_serve.Repl.exec_line s "?- anc(tom, Y)."))

let test_errors_do_not_raise () =
  let s = Braid_serve.Repl.create () in
  check_bool "parse error" true (contains "error" (Braid_serve.Repl.exec_line s "p(X :- q(X)."));
  check_bool "unknown command" true
    (contains "unknown command" (Braid_serve.Repl.exec_line s ":frobnicate"));
  check_bool "arity clash" true
    (let _ = Braid_serve.Repl.exec_line s "t(a)." in
     contains "error" (Braid_serve.Repl.exec_line s "t(a, b)."));
  check_bool "empty line ok" true (Braid_serve.Repl.exec_line s "   " = "");
  check_bool "quit" true (Braid_serve.Repl.exec_line s ":quit" = "bye")

let suites : unit Alcotest.test list =
  [
    ( "repl",
      [
        Alcotest.test_case "facts and rules" `Quick test_facts_and_rules;
        Alcotest.test_case "query" `Quick test_query;
        Alcotest.test_case "live fact insertion invalidates" `Quick test_live_fact_insertion;
        Alcotest.test_case "explain" `Quick test_explain;
        Alcotest.test_case "explain clause plan" `Quick test_explain_clause_plan;
        Alcotest.test_case "caql with plan" `Quick test_caql_and_plan;
        Alcotest.test_case "inspection commands" `Quick test_inspection_commands;
        Alcotest.test_case "lint flags typo" `Quick test_lint_flags_typo;
        Alcotest.test_case "system/strategy switch" `Quick test_system_and_strategy_switch;
        Alcotest.test_case "errors do not raise" `Quick test_errors_do_not_raise;
      ] );
  ]

let test_trace_command () =
  let s = family_session () in
  check_bool "no session yet" true (contains "no session" (Braid_serve.Repl.exec_line s ":trace"));
  let _ = Braid_serve.Repl.exec_line s ":trace on" in
  let _ = Braid_serve.Repl.exec_line s "?- anc(tom, Y)." in
  let out = Braid_serve.Repl.exec_line s ":trace" in
  check_bool "trace shows queries" true (contains "parent" out);
  let _ = Braid_serve.Repl.exec_line s ":trace off" in
  check_bool "off clears" true
    (contains "empty" (Braid_serve.Repl.exec_line s ":trace"))

let test_base_query_directly () =
  (* an AI query against a base relation itself (no rules at all) *)
  let s = Braid_serve.Repl.create () in
  let _ = feed s [ "edge(a, b)."; "edge(b, c)." ] in
  let out = Braid_serve.Repl.exec_line s "?- edge(a, Y)." in
  check_bool "base query answered" true (contains "1 solutions" out)

let test_journal_command () =
  let s = family_session () in
  check_bool "no session yet" true
    (contains "no session" (Braid_serve.Repl.exec_line s ":journal"));
  let _ = Braid_serve.Repl.exec_line s "?- anc(tom, Y)." in
  let out = Braid_serve.Repl.exec_line s ":journal" in
  check_bool "reports epoch" true (contains "checkpoint epoch 0" out);
  check_bool "shows admissions" true (contains "admit" out);
  let one = Braid_serve.Repl.exec_line s ":journal 1" in
  check_bool "tail of one entry" true
    (List.length (String.split_on_char '\n' one) = 2);
  check_bool "rejects junk" true
    (contains "usage" (Braid_serve.Repl.exec_line s ":journal zero"))

let test_sessions_command () =
  let s = family_session () in
  check_bool "no serving sessions yet" true
    (contains "no serving sessions" (Braid_serve.Repl.exec_line s ":sessions"));
  (* a conjunctive :caql query routes through the serving scheduler *)
  let _ = Braid_serve.Repl.exec_line s ":caql q(X) :- parent(X, Y)." in
  let out = Braid_serve.Repl.exec_line s ":sessions" in
  check_bool "one session listed" true (contains "1 session(s)" out);
  check_bool "repl session named" true (contains "repl" out);
  check_bool "answered counted" true (contains "answered=1" out);
  check_bool "nothing shed" true (contains "shed=0" out);
  (* a live insert keeps the system — and its scheduler — alive *)
  let _ = Braid_serve.Repl.exec_line s "parent(dave, fred)." in
  check_bool "survives live insert" true
    (contains "repl" (Braid_serve.Repl.exec_line s ":sessions"));
  (* a brand-new relation invalidates the system and resets serving state *)
  let _ = Braid_serve.Repl.exec_line s "job(fred, cook)." in
  check_bool "reset after invalidation" true
    (contains "no serving sessions" (Braid_serve.Repl.exec_line s ":sessions"))

(* A malformed numeric literal is a parse error like any other: the line
   answers "error: ..." and the session goes on. *)
let test_bad_number_literal () =
  let s = Braid_serve.Repl.create () in
  let outs =
    feed s [ "p(1)."; "p(1.2.3)."; "?- p(99999999999999999999)."; "?- p(X)." ]
  in
  match outs with
  | [ _; bad_fact; bad_query; answer ] ->
    check_bool "bad fact" true (String.starts_with ~prefix:"error: " bad_fact);
    check_bool "bad query" true (String.starts_with ~prefix:"error: " bad_query);
    check_bool "next line answers" true (contains "1 solutions" answer)
  | _ -> Alcotest.fail "one reply per line"

let trace_cases =
  [
    Alcotest.test_case "bad number literal" `Quick test_bad_number_literal;
    Alcotest.test_case "trace command" `Quick test_trace_command;
    Alcotest.test_case "base-relation query" `Quick test_base_query_directly;
    Alcotest.test_case "journal command" `Quick test_journal_command;
    Alcotest.test_case "sessions command" `Quick test_sessions_command;
  ]

let suites = match suites with
  | [ (name, cases) ] -> [ (name, cases @ trace_cases) ]
  | other -> other
