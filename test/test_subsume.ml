(* Subsumption: the §5.3.2 algorithm, its rejection conditions, derivation
   correctness (rewritten query evaluates to the same answers), and the
   interval reasoning used for comparison implication. *)

module L = Braid_logic
module T = L.Term
module R = Braid_relalg
module V = R.Value
module RP = R.Row_pred
module A = Braid_caql.Ast
module Sub = Braid_subsume.Subsumption
module Range = Braid_subsume.Range

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let v x = T.Var x
let s x = T.Const (V.Str x)
let i n = T.Const (V.Int n)
let atom p args = L.Atom.make p args
let cmp op a b : A.comparison = (op, L.Literal.Term a, L.Literal.Term b)

(* Small database for semantic checks. *)
let b_rel =
  R.Relation.of_tuples ~name:"b"
    (R.Schema.make [ ("x", V.Tstr); ("y", V.Tint) ])
    (List.map
       (fun (a, n) -> [| V.Str a; V.Int n |])
       [ ("a", 1); ("a", 2); ("b", 2); ("b", 7); ("c", 9); ("c", 2) ])

let c_rel =
  R.Relation.of_tuples ~name:"c"
    (R.Schema.make [ ("y", V.Tint); ("z", V.Tstr) ])
    (List.map
       (fun (n, z) -> [| V.Int n; V.Str z |])
       [ (1, "p"); (2, "q"); (7, "r"); (9, "p"); (2, "r") ])

let base_source (a : L.Atom.t) =
  match a.L.Atom.pred with
  | "b" -> b_rel
  | "c" -> c_rel
  | p -> Alcotest.failf "unknown base %s" p

let schema_of = function
  | "b" -> Some (R.Relation.schema b_rel)
  | "c" -> Some (R.Relation.schema c_rel)
  | _ -> None

let norm rel =
  List.sort_uniq compare (List.map R.Tuple.to_list (R.Relation.to_list rel))

(* Materialize an element, then check that rewriting [q] through each cover
   preserves the answers. *)
let semantic_check (e : Sub.element) (q : A.conj) =
  let stored = Braid_caql.Eval.conj ~source:base_source ~schema_of e.Sub.def in
  let covers = Sub.covers e q in
  check_bool "at least one cover expected" true (covers <> []);
  let direct = norm (Braid_caql.Eval.conj ~source:base_source ~schema_of q) in
  List.iter
    (fun cover ->
      let rewritten = Sub.rewrite q [ (cover.Sub.covered, cover.Sub.replacement) ] in
      let source (a : L.Atom.t) =
        if String.equal a.L.Atom.pred e.Sub.id then stored else base_source a
      in
      let schema_of name =
        if String.equal name e.Sub.id then Some (R.Relation.schema stored) else schema_of name
      in
      let via_cache = norm (Braid_caql.Eval.conj ~source ~schema_of rewritten) in
      check_bool "rewritten query preserves answers" true (via_cache = direct))
    covers

(* --- positive cases --- *)

let test_identity_cover () =
  let e = { Sub.id = "e"; def = A.conj [ v "X"; v "Y" ] [ atom "b" [ v "X"; v "Y" ] ] } in
  semantic_check e (A.conj [ v "X"; v "Y" ] [ atom "b" [ v "X"; v "Y" ] ])

let test_constant_selection () =
  let e = { Sub.id = "e"; def = A.conj [ v "X"; v "Y" ] [ atom "b" [ v "X"; v "Y" ] ] } in
  semantic_check e (A.conj [ v "Y" ] [ atom "b" [ s "a"; v "Y" ] ])

let test_collapsed_variables () =
  let e =
    { Sub.id = "e"; def = A.conj [ v "X"; v "Y"; v "Z" ] [ atom "c" [ v "X"; v "Y" ]; atom "c" [ v "Z"; v "Y" ] ] }
  in
  (* query joins both positions on the same variable *)
  semantic_check e (A.conj [ v "U"; v "W" ] [ atom "c" [ v "U"; v "W" ]; atom "c" [ v "U"; v "W" ] ])

let test_projection_of_join_view () =
  (* E = b(X,Y) & c(Y,Z) storing (X,Z); Q asks the same join with a
     constant on Z. *)
  let e =
    {
      Sub.id = "e";
      def = A.conj [ v "X"; v "Z" ] [ atom "b" [ v "X"; v "Y" ]; atom "c" [ v "Y"; v "Z" ] ];
    }
  in
  semantic_check e (A.conj [ v "X" ] [ atom "b" [ v "X"; v "Y" ]; atom "c" [ v "Y"; s "p" ] ])

let test_partial_cover_with_remainder () =
  (* element covers only the b atom; the c atom remains *)
  let e = { Sub.id = "e"; def = A.conj [ v "X"; v "Y" ] [ atom "b" [ v "X"; v "Y" ] ] } in
  let q =
    A.conj [ v "X"; v "Z" ] [ atom "b" [ v "X"; v "Y" ]; atom "c" [ v "Y"; v "Z" ] ]
  in
  let covers = Sub.covers e q in
  check_bool "cover exists" true (covers <> []);
  check_bool "covers only atom 0" true
    (List.for_all (fun c -> c.Sub.covered = [ 0 ]) covers);
  semantic_check e q

let test_paper_532_example () =
  (* E12: b3(X,c2,Y); query part b3(Z,c2,c6) — modeled over c: E = c(X,Y)
     storing both; query c(Z, "p"). *)
  let e12 = { Sub.id = "e12"; def = A.conj [ v "X"; v "Y" ] [ atom "c" [ v "X"; v "Y" ] ] } in
  semantic_check e12 (A.conj [ v "Z" ] [ atom "c" [ v "Z"; s "p" ] ])

let test_cmp_range_implication () =
  let e =
    {
      Sub.id = "e";
      def =
        A.conj ~cmps:[ cmp RP.Gt (v "Y") (i 1) ] [ v "X"; v "Y" ] [ atom "b" [ v "X"; v "Y" ] ];
    }
  in
  (* query constrains harder: Y > 5 implies the element's Y > 1 *)
  let q =
    A.conj ~cmps:[ cmp RP.Gt (v "Y") (i 5) ] [ v "X"; v "Y" ] [ atom "b" [ v "X"; v "Y" ] ]
  in
  semantic_check e q;
  (* equality also implies the element's constraint *)
  let q2 =
    A.conj ~cmps:[ cmp RP.Eq (v "Y") (i 7) ] [ v "X"; v "Y" ] [ atom "b" [ v "X"; v "Y" ] ]
  in
  semantic_check e q2

let test_cmp_ground_after_mapping () =
  let e =
    {
      Sub.id = "e";
      def =
        A.conj ~cmps:[ cmp RP.Gt (v "Y") (i 1) ] [ v "X"; v "Y" ] [ atom "b" [ v "X"; v "Y" ] ];
    }
  in
  (* the query constant 7 satisfies the element's constraint *)
  check_bool "satisfying constant covered" true
    (Sub.covers e (A.conj [ v "X" ] [ atom "b" [ v "X"; i 7 ] ]) <> []);
  (* the constant 1 violates it: the element's extension lacks those rows *)
  check_bool "violating constant rejected" true
    (Sub.covers e (A.conj [ v "X" ] [ atom "b" [ v "X"; i 1 ] ]) = [])

(* --- rejection cases --- *)

let test_element_more_restricted_constant () =
  let e = { Sub.id = "e"; def = A.conj [ v "Y" ] [ atom "b" [ s "a"; v "Y" ] ] } in
  check_bool "constant element cannot serve variable query" true
    (Sub.covers e (A.conj [ v "X"; v "Y" ] [ atom "b" [ v "X"; v "Y" ] ]) = []);
  (* but it does serve the matching instance *)
  check_bool "matching instance covered" true
    (Sub.covers e (A.conj [ v "Y" ] [ atom "b" [ s "a"; v "Y" ] ]) <> [])

let test_element_with_extra_join_rejected () =
  (* E joins b and c; a query over b alone cannot be derived (step 2 of the
     paper's algorithm: the element is more restricted). *)
  let e =
    {
      Sub.id = "e";
      def = A.conj [ v "X"; v "Z" ] [ atom "b" [ v "X"; v "Y" ]; atom "c" [ v "Y"; v "Z" ] ];
    }
  in
  check_bool "more-restricted element rejected" true
    (Sub.covers e (A.conj [ v "X"; v "Y" ] [ atom "b" [ v "X"; v "Y" ] ]) = [])

let test_unstored_column_selection_rejected () =
  (* E stores only X; a query constant on the unstored Y cannot be
     compensated. *)
  let e = { Sub.id = "e"; def = A.conj [ v "X" ] [ atom "b" [ v "X"; v "Y" ] ] } in
  check_bool "selection on unstored column rejected" true
    (Sub.covers e (A.conj [ v "X" ] [ atom "b" [ v "X"; i 2 ] ]) = []);
  (* existential use of Y is fine *)
  check_bool "existential ok" true
    (Sub.covers e (A.conj [ v "X" ] [ atom "b" [ v "X"; v "Y" ] ]) <> [])

let test_unexposed_needed_variable_rejected () =
  let e = { Sub.id = "e"; def = A.conj [ v "X" ] [ atom "b" [ v "X"; v "Y" ] ] } in
  (* Y is needed by the head *)
  check_bool "needed variable not stored" true
    (Sub.covers e (A.conj [ v "X"; v "Y" ] [ atom "b" [ v "X"; v "Y" ] ]) = []);
  (* Y is needed by a remainder atom *)
  check_bool "join variable not stored" true
    (List.for_all
       (fun c -> c.Sub.covered <> [ 0 ])
       (Sub.covers e
          (A.conj [ v "X"; v "Z" ] [ atom "b" [ v "X"; v "Y" ]; atom "c" [ v "Y"; v "Z" ] ])))

let test_cmp_not_implied_rejected () =
  let e =
    {
      Sub.id = "e";
      def =
        A.conj ~cmps:[ cmp RP.Gt (v "Y") (i 5) ] [ v "X"; v "Y" ] [ atom "b" [ v "X"; v "Y" ] ];
    }
  in
  (* the query is weaker (Y > 1 does not imply Y > 5) *)
  check_bool "weaker query rejected" true
    (Sub.covers e
       (A.conj ~cmps:[ cmp RP.Gt (v "Y") (i 1) ] [ v "X"; v "Y" ] [ atom "b" [ v "X"; v "Y" ] ])
    = []);
  (* an unconstrained query too *)
  check_bool "unconstrained query rejected" true
    (Sub.covers e (A.conj [ v "X"; v "Y" ] [ atom "b" [ v "X"; v "Y" ] ]) = [])

let test_pred_mismatch () =
  let e = { Sub.id = "e"; def = A.conj [ v "X"; v "Y" ] [ atom "b" [ v "X"; v "Y" ] ] } in
  check_bool "different predicate" true
    (Sub.covers e (A.conj [ v "X"; v "Y" ] [ atom "c" [ v "X"; v "Y" ] ]) = [])

(* --- exact match & generalization --- *)

let test_exact_match () =
  let def = A.conj [ v "X"; v "Y" ] [ atom "b" [ v "X"; v "Y" ] ] in
  let e = { Sub.id = "e"; def } in
  check_bool "variant is exact" true
    (Sub.exact_match e (A.conj [ v "A"; v "B" ] [ atom "b" [ v "A"; v "B" ] ]));
  check_bool "instance is not exact" false
    (Sub.exact_match e (A.conj [ v "B" ] [ atom "b" [ s "a"; v "B" ] ]))

let test_generalizes () =
  let g = A.conj [ v "X"; v "Y" ] [ atom "b" [ v "X"; v "Y" ] ] in
  let q = A.conj [ v "Y" ] [ atom "b" [ s "a"; v "Y" ] ] in
  check_bool "general covers instance" true (Sub.generalizes g q);
  check_bool "instance does not cover general" false (Sub.generalizes q g)

let test_full_cover () =
  let e = { Sub.id = "e"; def = A.conj [ v "X"; v "Y" ] [ atom "b" [ v "X"; v "Y" ] ] } in
  let q2 = A.conj [ v "X"; v "Z" ] [ atom "b" [ v "X"; v "Y" ]; atom "c" [ v "Y"; v "Z" ] ] in
  check_bool "partial is not full" true (Sub.full_cover e q2 = None);
  check_bool "single atom is full" true
    (Sub.full_cover e (A.conj [ v "Y" ] [ atom "b" [ s "b"; v "Y" ] ]) <> None)

(* --- ranges --- *)

let test_range_implication () =
  let r = Range.add Range.unconstrained RP.Gt (V.Int 7) in
  check_bool "x>7 implies x>5" true (Range.implies r RP.Gt (V.Int 5));
  check_bool "x>7 implies x>=7" true (Range.implies r RP.Ge (V.Int 7));
  check_bool "x>7 implies x<>3" true (Range.implies r RP.Ne (V.Int 3));
  check_bool "x>7 does not imply x>9" false (Range.implies r RP.Gt (V.Int 9));
  let eq = Range.add Range.unconstrained RP.Eq (V.Int 4) in
  check_bool "x=4 implies x<=4" true (Range.implies eq RP.Le (V.Int 4));
  check_bool "x=4 implies x=4" true (Range.implies eq RP.Eq (V.Int 4));
  check_bool "equal_to" true (Range.equal_to eq = Some (V.Int 4));
  let empty = Range.add (Range.add Range.unconstrained RP.Gt (V.Int 5)) RP.Lt (V.Int 3) in
  check_bool "empty range" true (Range.is_empty empty);
  check_bool "empty implies anything" true (Range.implies empty RP.Eq (V.Int 99))

let test_range_of_cmps () =
  let cmps = [ cmp RP.Ge (v "X") (i 2); cmp RP.Lt (i 10) (v "X") ] in
  let r = Range.of_cmps "X" cmps in
  (* 10 < X mirrors to X > 10 *)
  check_bool "mirrored bound" true (Range.implies r RP.Gt (V.Int 9));
  check_bool "other var ignored" true
    (Range.implies (Range.of_cmps "Y" cmps) RP.Gt (V.Int 9) = false)

let test_cover_count_dedup () =
  (* symmetric element over the same predicate twice should not produce
     duplicate covers with identical replacements *)
  let e = { Sub.id = "e"; def = A.conj [ v "X"; v "Y" ] [ atom "b" [ v "X"; v "Y" ] ] } in
  let q = A.conj [ v "X" ] [ atom "b" [ v "X"; i 2 ] ] in
  check_int "single cover" 1 (List.length (Sub.covers e q))

let suites : unit Alcotest.test list =
  [
    ( "subsume",
      [
        Alcotest.test_case "identity cover" `Quick test_identity_cover;
        Alcotest.test_case "constant selection" `Quick test_constant_selection;
        Alcotest.test_case "collapsed variables" `Quick test_collapsed_variables;
        Alcotest.test_case "projection of join view" `Quick test_projection_of_join_view;
        Alcotest.test_case "partial cover with remainder" `Quick
          test_partial_cover_with_remainder;
        Alcotest.test_case "paper §5.3.2 example" `Quick test_paper_532_example;
        Alcotest.test_case "comparison range implication" `Quick test_cmp_range_implication;
        Alcotest.test_case "comparison ground after mapping" `Quick
          test_cmp_ground_after_mapping;
        Alcotest.test_case "more-restricted constant rejected" `Quick
          test_element_more_restricted_constant;
        Alcotest.test_case "extra join rejected" `Quick test_element_with_extra_join_rejected;
        Alcotest.test_case "unstored selection rejected" `Quick
          test_unstored_column_selection_rejected;
        Alcotest.test_case "unexposed needed variable rejected" `Quick
          test_unexposed_needed_variable_rejected;
        Alcotest.test_case "weaker comparison rejected" `Quick test_cmp_not_implied_rejected;
        Alcotest.test_case "predicate mismatch" `Quick test_pred_mismatch;
        Alcotest.test_case "exact match" `Quick test_exact_match;
        Alcotest.test_case "generalizes" `Quick test_generalizes;
        Alcotest.test_case "full cover" `Quick test_full_cover;
        Alcotest.test_case "range implication" `Quick test_range_implication;
        Alcotest.test_case "range from comparisons" `Quick test_range_of_cmps;
        Alcotest.test_case "cover deduplication" `Quick test_cover_count_dedup;
      ] );
  ]

(* --- self-join elements --- *)

let test_self_join_element_covers () =
  (* E = c(X,Y) & c(Y,Z) head (X,Z): two occurrences of the same predicate;
     it must cover the two-step query and compose correctly *)
  let e =
    {
      Sub.id = "e2step";
      def = A.conj [ v "X"; v "Z" ] [ atom "c" [ v "X"; v "Y" ]; atom "c" [ v "Y"; v "Z" ] ];
    }
  in
  semantic_check e
    (A.conj [ v "A"; v "B" ] [ atom "c" [ v "A"; v "M" ]; atom "c" [ v "M"; v "B" ] ]);
  (* and the instance with a constant endpoint *)
  semantic_check e (A.conj [ v "A" ] [ atom "c" [ v "A"; v "M" ]; atom "c" [ v "M"; i 9 ] ])

let test_self_join_element_rejects_single () =
  let e =
    {
      Sub.id = "e2step";
      def = A.conj [ v "X"; v "Z" ] [ atom "c" [ v "X"; v "Y" ]; atom "c" [ v "Y"; v "Z" ] ];
    }
  in
  (* the two-occurrence element cannot serve a single-occurrence query *)
  check_bool "two-step view cannot answer one-step query" true
    (Sub.covers e (A.conj [ v "A"; v "B" ] [ atom "c" [ v "A"; v "B" ] ]) = [])

let self_join_cases =
  [
    Alcotest.test_case "self-join element covers" `Quick test_self_join_element_covers;
    Alcotest.test_case "self-join element rejects single step" `Quick
      test_self_join_element_rejects_single;
  ]

let suites = match suites with
  | [ (name, cases) ] -> [ (name, cases @ self_join_cases) ]
  | other -> other
