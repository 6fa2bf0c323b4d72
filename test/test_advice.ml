(* Advice language: view specifications, path expressions, NFA tracking,
   advisor recommendations. *)

module L = Braid_logic
module T = L.Term
module V = Braid_relalg.Value
module A = Braid_caql.Ast
module Adv = Braid_advice.Ast
module Tracker = Braid_advice.Tracker
module Advisor = Braid_advice.Advisor

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let v x = T.Var x
let s x = T.Const (V.Str x)
let atom p args = L.Atom.make p args

let pat id vars = Adv.Pattern (id, List.map v vars)
let seq ?(lo = 1) ?(hi = Adv.Fin 1) ps = Adv.Seq (ps, { Adv.lo; hi })

(* The paper's Example 1 path:
   (d1(Y^), (d2(X^,Y?), d3(X^,Y?))^<0,|Y|>)^<1,1> *)
let example1_path =
  seq
    [
      pat "d1" [ "Y" ];
      seq ~lo:0 ~hi:(Adv.Cardinality "Y") [ pat "d2" [ "X"; "Y" ]; pat "d3" [ "X"; "Y" ] ];
    ]

(* The §4.2.2 tracking excerpt:
   (d1, [(d2,d3), (d4,d5)]^1)^<0,|X|> *)
let excerpt_path =
  seq ~lo:0 ~hi:(Adv.Cardinality "X")
    [
      pat "d1" [ "X"; "Y" ];
      Adv.Alt ([ seq [ pat "d2" [ "Z" ]; pat "d3" [ "Z" ] ]; seq [ pat "d4" [ "U" ]; pat "d5" [ "U" ] ] ], Some 1);
    ]

(* --- view specs --- *)

let mk_spec id bindings =
  Adv.spec ~id ~bindings
    (A.conj
       (List.mapi (fun i _ -> v (Printf.sprintf "P%d" i)) bindings)
       [ atom "b" (List.mapi (fun i _ -> v (Printf.sprintf "P%d" i)) bindings) ])

let test_spec_annotations () =
  let sp = mk_spec "d" [ Adv.Producer; Adv.Consumer; Adv.Consumer ] in
  check_bool "consumer positions" true (Adv.consumer_positions sp = [ 1; 2 ]);
  check_bool "not producer only" false (Adv.producer_only sp);
  let all_prod = mk_spec "d2" [ Adv.Producer; Adv.Producer ] in
  check_bool "producer only" true (Adv.producer_only all_prod);
  check_bool "length mismatch rejected" true
    (try
       ignore
         (Adv.spec ~id:"bad" ~bindings:[ Adv.Producer ]
            (A.conj [ v "X"; v "Y" ] [ atom "b" [ v "X"; v "Y" ] ]));
       false
     with Invalid_argument _ -> true)

let test_pattern_ids () =
  check_bool "ids in order, deduped" true
    (Adv.pattern_ids example1_path = [ "d1"; "d2"; "d3" ])

(* --- tracking --- *)

let test_tracking_example1 () =
  let tr = Tracker.start (Tracker.compile example1_path) in
  check_bool "d1 first" true (Tracker.next_possible tr = [ "d1" ]);
  check_bool "accepts d1" true (Tracker.advance tr "d1");
  (* after d1: d2 (start of repeated group) or nothing *)
  check_bool "d2 next" true (List.mem "d2" (Tracker.next_possible tr));
  check_bool "finished possible (repetition lo=0)" true (Tracker.finished tr);
  check_bool "accepts d2" true (Tracker.advance tr "d2");
  check_bool "d3 next" true (List.mem "d3" (Tracker.next_possible tr));
  check_bool "accepts d3" true (Tracker.advance tr "d3");
  (* loop back: d2 again *)
  check_bool "d2 may repeat" true (List.mem "d2" (Tracker.next_possible tr));
  check_bool "d1 never repeats" false (Tracker.may_occur_later tr "d1");
  check_bool "d2 may occur later" true (Tracker.may_occur_later tr "d2")

let test_tracking_excerpt () =
  (* paper: after d1 then d2, the CMS can predict d3 or d1; after d3 the
     next (if any) involves d1, so d1 is not the best eviction victim. *)
  let tr = Tracker.start (Tracker.compile excerpt_path) in
  check_bool "d1" true (Tracker.advance tr "d1");
  check_bool "d2" true (Tracker.advance tr "d2");
  let next = Tracker.next_possible tr in
  check_bool "predicts d3" true (List.mem "d3" next);
  check_bool "predicts d1 (repetition)" true (List.mem "d1" next);
  check_bool "does not predict d4 (mutually exclusive)" false (List.mem "d4" next);
  check_bool "d3" true (Tracker.advance tr "d3");
  check_bool "after d3, d1 expected" true (List.mem "d1" (Tracker.next_possible tr));
  check_bool "d1 still needed" true (Tracker.may_occur_later tr "d1")

let test_tracking_lost () =
  let tr = Tracker.start (Tracker.compile example1_path) in
  check_bool "unexpected query" false (Tracker.advance tr "d99");
  check_bool "lost" true (Tracker.lost tr);
  (* after losing track the tracker is permissive *)
  check_bool "still answers possibilities" true (Tracker.next_possible tr <> [])

let test_alternation_without_selection () =
  let p = Adv.Alt ([ pat "a" []; pat "b" [] ], None) in
  let tr = Tracker.start (Tracker.compile p) in
  check_bool "a" true (Tracker.advance tr "a");
  (* without a selection term, other members may still occur *)
  check_bool "b may follow" true (List.mem "b" (Tracker.next_possible tr))

let test_alternation_selection_one () =
  let p = Adv.Alt ([ pat "a" []; pat "b" [] ], Some 1) in
  let tr = Tracker.start (Tracker.compile p) in
  check_bool "a" true (Tracker.advance tr "a");
  check_bool "b excluded" false (List.mem "b" (Tracker.next_possible tr))

let test_recursion_loop () =
  let p = seq ~lo:1 ~hi:Adv.Inf [ pat "step" [ "X" ] ] in
  let tr = Tracker.start (Tracker.compile p) in
  check_bool "step" true (Tracker.advance tr "step");
  check_bool "step again" true (Tracker.advance tr "step");
  check_bool "and again" true (List.mem "step" (Tracker.next_possible tr))

let test_tracking_lost_permissive () =
  let tr = Tracker.start (Tracker.compile example1_path) in
  check_bool "d1" true (Tracker.advance tr "d1");
  check_bool "unexpected rejected" false (Tracker.advance tr "d9");
  check_bool "lost" true (Tracker.lost tr);
  (* permissive recovery: even the already-consumed d1 is possible again *)
  check_bool "d1 possible again" true (Tracker.may_occur_later tr "d1");
  check_bool "tracking continues" true (Tracker.advance tr "d3");
  check_bool "stays lost" true (Tracker.lost tr)

let test_alternation_selection_sticky () =
  (* selection term 1: committing to one member excludes the others for
     good, and the alternation is complete afterwards *)
  let p = Adv.Alt ([ pat "a" []; pat "b" [] ], Some 1) in
  let tr = Tracker.start (Tracker.compile p) in
  check_bool "not finished yet" false (Tracker.finished tr);
  check_bool "a" true (Tracker.advance tr "a");
  check_bool "b never occurs" false (Tracker.may_occur_later tr "b");
  check_bool "a does not repeat" false (Tracker.may_occur_later tr "a");
  check_bool "finished" true (Tracker.finished tr)

let test_alternation_selection_many () =
  (* selection term > 1 is over-approximated: members may repeat in any
     order (sound for prediction, see tracker.mli) *)
  let p = Adv.Alt ([ pat "a" []; pat "b" [] ], Some 2) in
  let tr = Tracker.start (Tracker.compile p) in
  check_bool "a" true (Tracker.advance tr "a");
  check_bool "b may follow" true (List.mem "b" (Tracker.next_possible tr));
  check_bool "b" true (Tracker.advance tr "b");
  check_bool "a may come back" true (Tracker.may_occur_later tr "a")

let test_finished_progression () =
  (* lo=1 sequence: incomplete at the start; once the first member is seen
     the rest of the tail is abandonable (IE backtracking), so the session
     may be complete from then on *)
  let p = seq [ pat "a" []; pat "b" [] ] in
  let tr = Tracker.start (Tracker.compile p) in
  check_bool "empty prefix incomplete" false (Tracker.finished tr);
  check_bool "a" true (Tracker.advance tr "a");
  check_bool "abandonable tail may finish" true (Tracker.finished tr);
  check_bool "b" true (Tracker.advance tr "b");
  check_bool "complete" true (Tracker.finished tr);
  check_bool "nothing left" true (Tracker.next_possible tr = [])

(* --- advisor --- *)

let advice_ex1 =
  {
    Adv.specs =
      [
        Adv.spec ~id:"d1" ~bindings:[ Adv.Producer ]
          (A.conj [ v "Y" ] [ atom "b1" [ s "c1"; v "Y" ] ]);
        Adv.spec ~id:"d2" ~bindings:[ Adv.Producer; Adv.Consumer ]
          (A.conj [ v "X"; v "Y" ] [ atom "b2" [ v "X"; v "Z" ]; atom "b3" [ v "Z"; s "c2"; v "Y" ] ]);
        Adv.spec ~id:"d3" ~bindings:[ Adv.Producer; Adv.Consumer ]
          (A.conj [ v "X"; v "Y" ] [ atom "b3" [ v "X"; s "c3"; v "Z" ]; atom "b1" [ v "Z"; v "Y" ] ]);
      ];
    path = Some example1_path;
  }

let test_advisor_identify () =
  let adv = Advisor.create advice_ex1 in
  (* an instance of d2 with Y bound *)
  let q =
    A.conj [ v "X" ] [ atom "b2" [ v "X"; v "Z" ]; atom "b3" [ v "Z"; s "c2"; s "y5" ] ]
  in
  (match Advisor.identify adv (Braid_subsume.Form.of_conj q) with
   | Some sp -> Alcotest.(check string) "spec d2" "d2" sp.Adv.id
   | None -> Alcotest.fail "expected identification");
  (* something unrelated *)
  check_bool "no match" true
    (Advisor.identify adv (Braid_subsume.Form.of_conj (A.conj [ v "A" ] [ atom "zz" [ v "A" ] ]))
     = None)

let test_advisor_predictions () =
  let adv = Advisor.create advice_ex1 in
  Advisor.observe adv "d1";
  let next = List.map (fun s -> s.Adv.id) (Advisor.predicted_next adv) in
  check_bool "predicts d2" true (List.mem "d2" next);
  check_bool "d1 cannot recur" false (Advisor.may_occur_later adv "d1");
  check_bool "d2 expected repeatedly" true (Advisor.expects_repetition adv "d2")

let test_advisor_recommendations () =
  let adv = Advisor.create advice_ex1 in
  let d2 = Option.get (Advisor.find_spec adv "d2") in
  check_bool "index on consumer position" true (Advisor.index_recommendation d2 = [ 1 ]);
  check_bool "d2 not lazy (has consumer)" false (Advisor.recommend_lazy d2);
  let d1 = Option.get (Advisor.find_spec adv "d1") in
  check_bool "d1 lazy (producer only)" true (Advisor.recommend_lazy d1);
  Advisor.observe adv "d1";
  (* d1 is producer-only and cannot recur: not worth caching *)
  check_bool "d1 not worth caching" false (Advisor.should_cache_result adv d1);
  check_bool "d2 worth caching" true (Advisor.should_cache_result adv d2);
  check_bool "spec form is the form of the generalization" true
    (Braid_subsume.Form.same
       (Braid_subsume.Form.of_conj (Advisor.generalized d2))
       (Advisor.spec_form adv d2));
  check_bool "spec form memoized" true (Advisor.spec_form adv d2 == Advisor.spec_form adv d2)

let test_no_advice_defaults () =
  let adv = Advisor.no_advice () in
  check_bool "no specs" true (Advisor.specs adv = []);
  check_bool "everything may occur later" true (Advisor.may_occur_later adv "anything");
  check_bool "no predictions" true (Advisor.predicted_next adv = []);
  Advisor.observe adv "x" (* must not fail *)

let test_pp_roundtrip_smoke () =
  (* pretty-printing should mention annotations and groupings *)
  let text = Format.asprintf "%a" Adv.pp advice_ex1 in
  check_bool "has producer mark" true (String.contains text '^');
  check_bool "has consumer mark" true (String.contains text '?');
  check_bool "has repetition" true (String.contains text '|')

let suites : unit Alcotest.test list =
  [
    ( "advice",
      [
        Alcotest.test_case "spec annotations" `Quick test_spec_annotations;
        Alcotest.test_case "pattern ids" `Quick test_pattern_ids;
        Alcotest.test_case "tracking example 1" `Quick test_tracking_example1;
        Alcotest.test_case "tracking §4.2.2 excerpt" `Quick test_tracking_excerpt;
        Alcotest.test_case "tracking unexpected query" `Quick test_tracking_lost;
        Alcotest.test_case "tracking lost is permissive" `Quick
          test_tracking_lost_permissive;
        Alcotest.test_case "alternation without selection" `Quick
          test_alternation_without_selection;
        Alcotest.test_case "alternation selection 1" `Quick test_alternation_selection_one;
        Alcotest.test_case "alternation selection sticky" `Quick
          test_alternation_selection_sticky;
        Alcotest.test_case "alternation selection > 1" `Quick
          test_alternation_selection_many;
        Alcotest.test_case "finished progression" `Quick test_finished_progression;
        Alcotest.test_case "recursion loop" `Quick test_recursion_loop;
        Alcotest.test_case "advisor identify" `Quick test_advisor_identify;
        Alcotest.test_case "advisor predictions" `Quick test_advisor_predictions;
        Alcotest.test_case "advisor recommendations" `Quick test_advisor_recommendations;
        Alcotest.test_case "no-advice defaults" `Quick test_no_advice_defaults;
        Alcotest.test_case "pretty printing" `Quick test_pp_roundtrip_smoke;
      ] );
  ]

(* --- the advice language's concrete syntax --- *)

module AP = Braid_advice.Parser

let example1_text =
  "d1(Y^) =def b1(c1, Y).\n\
   d2(X^, Y?) =def b2(X, Z) & b3(Z, c2, Y).\n\
   d3(X^, Y?) =def b3(X, c3, Z) & b1(Z, Y).\n\
   path (d1(Y), (d2(X, Y), d3(X, Y))<0,|Y|>)<1,1>.\n"

let test_parse_advice () =
  let advice = AP.parse example1_text in
  check_int "three specs" 3 (List.length advice.Adv.specs);
  let d2 = Option.get (Adv.find_spec advice "d2") in
  check_bool "d2 bindings" true (d2.Adv.bindings = [ Adv.Producer; Adv.Consumer ]);
  check_int "d2 body atoms" 2 (List.length d2.Adv.def.A.atoms);
  check_bool "constant in body" true
    (List.exists
       (fun a -> List.exists (T.equal (s "c2")) a.L.Atom.args)
       d2.Adv.def.A.atoms);
  match advice.Adv.path with
  | Some (Adv.Seq ([ Adv.Pattern ("d1", _); Adv.Seq (_, { Adv.lo = 0; hi = Adv.Cardinality "Y" }) ], { Adv.lo = 1; hi = Adv.Fin 1 })) -> ()
  | Some p -> Alcotest.failf "unexpected path: %s" (Format.asprintf "%a" Adv.pp_path p)
  | None -> Alcotest.fail "expected a path"

let test_parsed_advice_tracks () =
  let advice = AP.parse example1_text in
  let adv = Advisor.create advice in
  Advisor.observe adv "d1";
  check_bool "predicts d2" true
    (List.exists (fun sp -> sp.Adv.id = "d2") (Advisor.predicted_next adv))

let test_parse_alternation_and_selection () =
  let p = AP.parse_path "(a(), [ (b(), c()), (d(), e()) ]^1)<0,*>" in
  match p with
  | Adv.Seq ([ Adv.Pattern ("a", []); Adv.Alt ([ _; _ ], Some 1) ], { Adv.lo = 0; hi = Adv.Inf }) -> ()
  | _ -> Alcotest.failf "unexpected: %s" (Format.asprintf "%a" Adv.pp_path p)

let test_parse_spec_with_comparison () =
  let advice = AP.parse "dx(N?) =def nums(N) & N >= 10.\n" in
  let dx = Option.get (Adv.find_spec advice "dx") in
  check_int "one comparison" 1 (List.length dx.Adv.def.A.cmps)

let test_parse_errors_advice () =
  let fails t = try ignore (AP.parse t); false with AP.Error _ -> true in
  check_bool "missing annotation" true (fails "d(X) =def b(X).");
  check_bool "missing =def" true (fails "d(X^) = b(X).");
  check_bool "two paths" true (fails "path (a()). path (b()).");
  check_bool "unclosed alternation" true (fails "path ([a(), b()<1,2>.")

let test_pp_parse_roundtrip () =
  (* Ast.pp prints the syntax the parser reads *)
  let advice = AP.parse example1_text in
  let reparsed = AP.parse (Format.asprintf "%a" Adv.pp advice) in
  check_bool "parse (pp (parse s)) = parse s" true (reparsed = advice);
  let with_ids =
    { advice with
      Adv.specs = List.map (fun sp -> { sp with Adv.rule_ids = [ "R1"; "R2" ] }) advice.Adv.specs }
  in
  let printed = Format.asprintf "%a" Adv.pp with_ids in
  check_bool "rule ids in a comment" true (AP.parse printed = advice);
  (* constants that [Value.pp] would print differently from how they read *)
  let f x = T.Const (V.Float x) in
  let spec =
    Adv.spec ~id:"d" ~bindings:[ Adv.Producer; Adv.Consumer ]
      (A.conj
         ~cmps:[ (Braid_relalg.Row_pred.Gt, L.Literal.Term (v "X"), L.Literal.Term (f 2.0)) ]
         [ v "X"; v "Y" ]
         [ atom "b" [ v "X"; f 2.0; s "say \"hi\""; s "it's"; f 1.0000001; f 1e-7; v "Y" ] ])
  in
  let consts = { Adv.specs = [ spec ]; path = None } in
  let printed = Format.asprintf "%a" Adv.pp consts in
  check_bool printed true (AP.parse printed = consts)

let parser_cases =
  [
    Alcotest.test_case "parse advice (paper example 1)" `Quick test_parse_advice;
    Alcotest.test_case "parsed advice drives tracking" `Quick test_parsed_advice_tracks;
    Alcotest.test_case "parse alternation + selection" `Quick
      test_parse_alternation_and_selection;
    Alcotest.test_case "parse spec with comparison" `Quick test_parse_spec_with_comparison;
    Alcotest.test_case "advice parse errors" `Quick test_parse_errors_advice;
    Alcotest.test_case "parse stability" `Quick test_pp_parse_roundtrip;
  ]

let suites = match suites with
  | [ (name, cases) ] -> [ (name, cases @ parser_cases) ]
  | other -> other
