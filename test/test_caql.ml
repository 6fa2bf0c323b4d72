(* CAQL: AST utilities, parser, safety analysis, eager and lazy evaluation,
   SQL translation. *)

module L = Braid_logic
module T = L.Term
module R = Braid_relalg
module V = R.Value
module A = Braid_caql.Ast
module P = Braid_caql.Parser
module E = Braid_caql.Eval
module TS = Braid_stream.Tuple_stream

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let v x = T.Var x
let s x = T.Const (V.Str x)
let i n = T.Const (V.Int n)
let atom p args = L.Atom.make p args

(* A small test database. *)
let edge =
  R.Relation.of_tuples ~name:"edge"
    (R.Schema.make [ ("src", V.Tstr); ("dst", V.Tstr) ])
    (List.map
       (fun (a, b) -> [| V.Str a; V.Str b |])
       [ ("a", "b"); ("b", "c"); ("c", "d"); ("a", "c"); ("b", "d") ])

let num =
  R.Relation.of_tuples ~name:"num"
    (R.Schema.make [ ("node", V.Tstr); ("w", V.Tint) ])
    (List.map (fun (a, n) -> [| V.Str a; V.Int n |]) [ ("a", 1); ("b", 2); ("c", 3); ("d", 4) ])

let source (a : L.Atom.t) =
  match a.L.Atom.pred with
  | "edge" -> edge
  | "num" -> num
  | p -> Alcotest.failf "unknown relation %s" p

let schema_of = function
  | "edge" -> Some (R.Relation.schema edge)
  | "num" -> Some (R.Relation.schema num)
  | _ -> None

let eval_conj c = E.conj ~source ~schema_of c
let rows rel = R.Relation.cardinality rel

(* --- AST --- *)

let test_variant_equal () =
  let q1 = A.conj [ v "X" ] [ atom "edge" [ v "X"; v "Y" ] ] in
  let q2 = A.conj [ v "A" ] [ atom "edge" [ v "A"; v "B" ] ] in
  let q3 = A.conj [ v "A" ] [ atom "edge" [ v "A"; v "A" ] ] in
  check_bool "variants" true (A.variant_equal q1 q2);
  check_bool "not a variant (collapsed var)" false (A.variant_equal q1 q3);
  check_bool "constants matter" false
    (A.variant_equal q1 (A.conj [ v "X" ] [ atom "edge" [ v "X"; s "c" ] ]))

let test_apply_subst () =
  let q = A.conj [ v "X"; v "Y" ] [ atom "edge" [ v "X"; v "Y" ] ] in
  let sub = L.Subst.bind "X" (s "a") L.Subst.empty in
  let q' = A.apply_subst sub q in
  check_bool "head constant" true (T.equal (List.hd q'.A.head) (s "a"));
  check_bool "atom constant" true
    (T.equal (List.hd (List.hd q'.A.atoms).L.Atom.args) (s "a"))

(* --- parser --- *)

let test_parse_simple () =
  let name, q = P.parse_clause "ans(X, Y) :- edge(X, Z) & edge(Z, Y)." in
  check_str "name" "ans" name;
  match q with
  | A.Conj c ->
    check_int "two atoms" 2 (List.length c.A.atoms);
    check_int "two head vars" 2 (List.length c.A.head)
  | _ -> Alcotest.fail "expected conj"

let test_parse_constants () =
  let _, q = P.parse_clause "ans(Y) :- edge(a, Y) & num(Y, N) & N >= 2." in
  match q with
  | A.Conj c ->
    check_bool "lowercase ident is a string constant" true
      (T.equal (List.hd (List.hd c.A.atoms).L.Atom.args) (s "a"));
    check_int "one comparison" 1 (List.length c.A.cmps)
  | _ -> Alcotest.fail "expected conj"

let test_parse_negation () =
  let _, q = P.parse_clause "ans(X) :- num(X, N) & ~edge(X, X)." in
  match q with
  | A.Diff (A.Conj pos, A.Conj neg) ->
    check_int "positive atoms" 1 (List.length pos.A.atoms);
    check_int "negation side atoms" 2 (List.length neg.A.atoms)
  | _ -> Alcotest.fail "expected diff"

let test_parse_union_program () =
  let defs =
    P.parse_program
      "path(X, Y) :- edge(X, Y). path(X, Y) :- edge(X, Z) & edge(Z, Y). other(X) :- num(X, N)."
  in
  check_int "two names" 2 (List.length defs);
  (match List.assoc "path" defs with
   | A.Union qs -> check_int "two clauses" 2 (List.length qs)
   | _ -> Alcotest.fail "expected union");
  match List.assoc "other" defs with
  | A.Conj _ -> ()
  | _ -> Alcotest.fail "expected conj"

let test_parse_arith_and_floats () =
  let _, q = P.parse_clause "ans(X) :- num(X, N) & N * 2 >= 4.5." in
  match q with
  | A.Conj c -> check_int "one cmp" 1 (List.length c.A.cmps)
  | _ -> Alcotest.fail "expected conj"

let test_parse_strings_comments () =
  let _, q = P.parse_clause "ans(X) :- edge('a', X). % trailing comment" in
  match q with
  | A.Conj c ->
    check_bool "quoted string" true (T.equal (List.hd (List.hd c.A.atoms).L.Atom.args) (s "a"))
  | _ -> Alcotest.fail "expected conj"

let test_parse_errors () =
  let fails str = try ignore (P.parse_clause str); false with P.Error _ -> true in
  check_bool "missing dot" true (fails "ans(X) :- edge(X, Y)");
  check_bool "bad token" true (fails "ans(X) :- edge(X ! Y).");
  check_bool "trailing garbage" true (fails "ans(X). extra")

(* --- analysis --- *)

let test_safety () =
  let safe = A.conj [ v "X" ] [ atom "edge" [ v "X"; v "Y" ] ] in
  let unsafe_head = A.conj [ v "Z" ] [ atom "edge" [ v "X"; v "Y" ] ] in
  let unsafe_cmp =
    A.conj
      ~cmps:[ (Braid_relalg.Row_pred.Lt, L.Literal.Term (v "Q"), L.Literal.Term (i 3)) ]
      [ v "X" ]
      [ atom "edge" [ v "X"; v "Y" ] ]
  in
  check_bool "safe" true (Braid_caql.Analyze.is_safe_conj safe);
  check_bool "unsafe head" false (Braid_caql.Analyze.is_safe_conj unsafe_head);
  check_bool "unsafe cmp" false (Braid_caql.Analyze.is_safe_conj unsafe_cmp)

let test_schema_inference () =
  let c = A.conj [ v "X"; v "N"; i 9 ] [ atom "num" [ v "X"; v "N" ] ] in
  let sch = Braid_caql.Analyze.schema_of_conj schema_of c in
  check_str "var name" "X" (R.Schema.name_at sch 0);
  check_bool "type from base" true (R.Schema.ty_at sch 1 = V.Tint);
  check_bool "const type" true (R.Schema.ty_at sch 2 = V.Tint)

let test_binding_pattern () =
  let c = A.conj [ s "a"; v "Y" ] [ atom "edge" [ s "a"; v "Y" ] ] in
  check_bool "bound,free" true (Braid_caql.Analyze.binding_pattern c = [ `Bound; `Free ])

(* --- eager evaluation --- *)

let test_eval_single_atom () =
  let c = A.conj [ v "Y" ] [ atom "edge" [ s "a"; v "Y" ] ] in
  check_int "a's successors" 2 (rows (eval_conj c))

let test_eval_join () =
  let c =
    A.conj [ v "X"; v "Z" ] [ atom "edge" [ v "X"; v "Y" ]; atom "edge" [ v "Y"; v "Z" ] ]
  in
  (* paths of length 2: a-b-c, a-b-d, b-c-d, a-c-d *)
  check_int "length-2 paths" 4 (rows (eval_conj c))

let test_eval_repeated_var () =
  let c = A.conj [ v "X" ] [ atom "edge" [ v "X"; v "X" ] ] in
  check_int "no self loops" 0 (rows (eval_conj c))

let test_eval_cmp_pushdown () =
  let c =
    A.conj
      ~cmps:[ (Braid_relalg.Row_pred.Ge, L.Literal.Term (v "N"), L.Literal.Term (i 3)) ]
      [ v "X"; v "N" ]
      [ atom "num" [ v "X"; v "N" ] ]
  in
  check_int "two heavy nodes" 2 (rows (eval_conj c))

let test_eval_arith_cmp () =
  let c =
    A.conj
      ~cmps:
        [
          ( Braid_relalg.Row_pred.Eq,
            L.Literal.Term (v "M"),
            L.Literal.Add (L.Literal.Term (v "N"), L.Literal.Term (i 1)) );
        ]
      [ v "X"; v "Y" ]
      [ atom "num" [ v "X"; v "N" ]; atom "num" [ v "Y"; v "M" ] ]
  in
  (* consecutive weights: (a,b),(b,c),(c,d) *)
  check_int "consecutive pairs" 3 (rows (eval_conj c))

let test_eval_const_head () =
  let c = A.conj [ s "tag"; v "Y" ] [ atom "edge" [ s "a"; v "Y" ] ] in
  let r = eval_conj c in
  check_int "rows" 2 (rows r);
  check_bool "const col" true (V.equal (R.Tuple.get (R.Relation.get r 0) 0) (V.Str "tag"))

let test_eval_ground_cmp_only () =
  let yes =
    A.conj ~cmps:[ (Braid_relalg.Row_pred.Lt, L.Literal.Term (i 1), L.Literal.Term (i 2)) ]
      [ i 1 ] []
  in
  let no =
    A.conj ~cmps:[ (Braid_relalg.Row_pred.Gt, L.Literal.Term (i 1), L.Literal.Term (i 2)) ]
      [ i 1 ] []
  in
  check_int "true ground" 1 (rows (eval_conj yes));
  check_int "false ground" 0 (rows (eval_conj no))

(* The first atom's extension is read without a per-row copy, and an
   identity head keeps its tuples; the result still owns its row vector, so
   writes on either side stay on that side. A false ground comparison
   empties the body before the first atom is read. *)
let test_eval_shares_tuples_not_rows () =
  let src = R.Relation.copy edge in
  let source _ = src in
  let q head = A.conj head [ atom "edge" [ v "X"; v "Y" ] ] in
  let out = E.conj ~source ~schema_of (q [ v "X"; v "Y" ]) in
  check_bool "identity head keeps the tuples" true
    (R.Relation.get out 0 == R.Relation.get src 0);
  R.Relation.add src [| V.Str "x"; V.Str "y" |];
  check_int "result unchanged by writes to the source" 5 (rows out);
  R.Relation.add out [| V.Str "p"; V.Str "q" |];
  check_int "source unchanged by writes to the result" 6 (rows src);
  let swapped = E.conj ~source ~schema_of (q [ v "Y"; v "X" ]) in
  check_bool "permuted head" true
    (R.Tuple.to_list (R.Relation.get swapped 0) = [ V.Str "b"; V.Str "a" ]);
  let never =
    A.conj ~cmps:[ (Braid_relalg.Row_pred.Gt, L.Literal.Term (i 1), L.Literal.Term (i 2)) ]
      [ v "X"; v "Y" ] [ atom "edge" [ v "X"; v "Y" ] ]
  in
  let none = E.conj ~source ~schema_of never in
  check_int "false ground comparison" 0 (rows none);
  check_int "keeps the head's arity" 2 (R.Schema.arity (R.Relation.schema none))

let test_eval_unsafe_raises () =
  let c = A.conj [ v "Z" ] [ atom "edge" [ v "X"; v "Y" ] ] in
  check_bool "unsafe raises" true
    (try
       ignore (eval_conj c);
       false
     with E.Unsafe _ -> true)

(* Callers count per-atom effects (touches, LRU ticks, stale hooks) off
   [source], so every atom is resolved once, in written order, even when
   a ground comparison fails or an earlier atom matches nothing. *)
let test_eval_sources_once_in_order () =
  let calls = ref [] in
  let source (a : L.Atom.t) =
    calls := a.L.Atom.pred :: !calls;
    source a
  in
  let resolved c =
    calls := [];
    ignore (E.conj ~source ~schema_of c);
    List.rev !calls
  in
  let atoms =
    [ atom "edge" [ s "zz"; v "Y" ]; atom "num" [ v "Y"; v "W" ]; atom "edge" [ v "Y"; v "Z" ] ]
  in
  let expected = [ "edge"; "num"; "edge" ] in
  Alcotest.(check (list string)) "an empty first step" expected (resolved (A.conj [ v "Z" ] atoms));
  Alcotest.(check (list string))
    "a false ground comparison" expected
    (resolved
       (A.conj ~cmps:[ (R.Row_pred.Lt, L.Literal.Term (i 2), L.Literal.Term (i 1)) ] [ v "Z" ] atoms))

let test_eval_union_diff_agg () =
  let q1 = A.Conj (A.conj [ v "X" ] [ atom "edge" [ v "X"; v "Y" ] ]) in
  let q2 = A.Conj (A.conj [ v "X" ] [ atom "edge" [ v "Y"; v "X" ] ]) in
  let union = E.query ~source ~schema_of (A.Union [ q1; q2 ]) in
  check_int "all nodes" 4 (rows union);
  let diff = E.query ~source ~schema_of (A.Diff (q1, q2)) in
  (* sources that are never destinations: a *)
  check_int "roots" 1 (rows diff);
  let agg =
    E.query ~source ~schema_of
      (A.Agg { A.keys = [ 0 ]; specs = [ R.Aggregate.Count ]; source = q1 })
  in
  (* out-degrees per source node: a:2, b:2, c:1 *)
  check_int "three groups" 3 (rows agg)

(* --- lazy evaluation --- *)

let lazy_source (a : L.Atom.t) = TS.of_relation (source a)

let test_lazy_matches_eager () =
  let c =
    A.conj [ v "X"; v "Z" ] [ atom "edge" [ v "X"; v "Y" ]; atom "edge" [ v "Y"; v "Z" ] ]
  in
  let eager = eval_conj c in
  let lazy_ = E.lazy_conj ~source:lazy_source ~schema_of c in
  let norm rel = List.sort compare (List.map R.Tuple.to_list (R.Relation.to_list rel)) in
  check_bool "same result" true (norm eager = norm (TS.to_relation lazy_))

let test_lazy_is_demand_driven () =
  (* count how many tuples the base producers hand out *)
  let pulled = ref 0 in
  let counting (a : L.Atom.t) =
    let base = source a in
    let rest = ref (R.Relation.to_list base) in
    TS.from (R.Relation.schema base) (fun () ->
        match !rest with
        | [] -> None
        | t :: tl ->
          incr pulled;
          rest := tl;
          Some t)
  in
  let c =
    A.conj [ v "X"; v "Z" ] [ atom "edge" [ v "X"; v "Y" ]; atom "edge" [ v "Y"; v "Z" ] ]
  in
  let stream = E.lazy_conj ~source:counting ~schema_of c in
  let cur = TS.cursor stream in
  ignore (TS.next cur);
  let after_one = !pulled in
  ignore (TS.to_relation stream);
  let after_all = !pulled in
  check_bool "first solution needs fewer pulls" true (after_one < after_all)

let test_lazy_empty_and_ground () =
  let none =
    E.lazy_conj ~source:lazy_source ~schema_of
      (A.conj [ v "X" ] [ atom "edge" [ s "zz"; v "X" ] ])
  in
  check_int "no solutions" 0 (List.length (TS.to_list none));
  let ground =
    E.lazy_conj ~source:lazy_source ~schema_of (A.conj [ i 1 ] [])
  in
  check_int "atomless query yields one row" 1 (List.length (TS.to_list ground))

(* --- SQL translation --- *)

let test_to_sql_ok () =
  let c =
    A.conj
      ~cmps:[ (Braid_relalg.Row_pred.Ge, L.Literal.Term (v "N"), L.Literal.Term (i 2)) ]
      [ v "X"; v "N" ]
      [ atom "num" [ v "X"; v "N" ]; atom "edge" [ v "X"; v "Y" ] ]
  in
  match Braid_caql.To_sql.translate ~schema_of c with
  | Ok sql ->
    let text = Braid_remote.Sql.to_string sql in
    let contains needle hay =
      let n = String.length needle and h = String.length hay in
      let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
      go 0
    in
    check_bool "join condition present" true (contains "t0.node = t1.src" text)
  | Error f -> Alcotest.failf "translate failed: %s" (Braid_caql.To_sql.failure_to_string f)

let test_to_sql_rejections () =
  let arith =
    A.conj
      ~cmps:
        [
          ( Braid_relalg.Row_pred.Eq,
            L.Literal.Term (v "N"),
            L.Literal.Add (L.Literal.Term (v "N"), L.Literal.Term (i 0)) );
        ]
      [ v "X" ]
      [ atom "num" [ v "X"; v "N" ] ]
  in
  check_bool "arithmetic rejected" true
    (Braid_caql.To_sql.translate ~schema_of arith = Error Braid_caql.To_sql.Arithmetic_comparison);
  let const_head = A.conj [ i 5 ] [ atom "num" [ v "X"; v "N" ] ] in
  check_bool "constant head rejected" true
    (Braid_caql.To_sql.translate ~schema_of const_head
    = Error Braid_caql.To_sql.Constant_in_head);
  let unknown = A.conj [ v "X" ] [ atom "mystery" [ v "X" ] ] in
  check_bool "unknown relation" true
    (Braid_caql.To_sql.translate ~schema_of unknown
    = Error (Braid_caql.To_sql.Unknown_relation "mystery"));
  let atomless = A.conj [ i 1 ] [] in
  check_bool "atomless rejected" true
    (Braid_caql.To_sql.translate ~schema_of atomless = Error Braid_caql.To_sql.No_relations)

let suites : unit Alcotest.test list =
  [
    ( "caql",
      [
        Alcotest.test_case "variant equality" `Quick test_variant_equal;
        Alcotest.test_case "substitution application" `Quick test_apply_subst;
        Alcotest.test_case "parse simple clause" `Quick test_parse_simple;
        Alcotest.test_case "parse constants and comparisons" `Quick test_parse_constants;
        Alcotest.test_case "parse negation" `Quick test_parse_negation;
        Alcotest.test_case "parse program with union" `Quick test_parse_union_program;
        Alcotest.test_case "parse arithmetic and floats" `Quick test_parse_arith_and_floats;
        Alcotest.test_case "parse strings and comments" `Quick test_parse_strings_comments;
        Alcotest.test_case "parse errors" `Quick test_parse_errors;
        Alcotest.test_case "safety analysis" `Quick test_safety;
        Alcotest.test_case "schema inference" `Quick test_schema_inference;
        Alcotest.test_case "binding pattern" `Quick test_binding_pattern;
        Alcotest.test_case "eval single atom" `Quick test_eval_single_atom;
        Alcotest.test_case "eval join" `Quick test_eval_join;
        Alcotest.test_case "eval repeated variable" `Quick test_eval_repeated_var;
        Alcotest.test_case "eval comparison pushdown" `Quick test_eval_cmp_pushdown;
        Alcotest.test_case "eval arithmetic comparison" `Quick test_eval_arith_cmp;
        Alcotest.test_case "eval constant head" `Quick test_eval_const_head;
        Alcotest.test_case "eval ground comparisons only" `Quick test_eval_ground_cmp_only;
        Alcotest.test_case "eval shares tuples, not rows" `Quick test_eval_shares_tuples_not_rows;
        Alcotest.test_case "eval unsafe raises" `Quick test_eval_unsafe_raises;
        Alcotest.test_case "eval resolves each atom once, in order" `Quick
          test_eval_sources_once_in_order;
        Alcotest.test_case "eval union/diff/agg" `Quick test_eval_union_diff_agg;
        Alcotest.test_case "lazy matches eager" `Quick test_lazy_matches_eager;
        Alcotest.test_case "lazy is demand-driven" `Quick test_lazy_is_demand_driven;
        Alcotest.test_case "lazy empty and ground" `Quick test_lazy_empty_and_ground;
        Alcotest.test_case "to_sql translation" `Quick test_to_sql_ok;
        Alcotest.test_case "to_sql rejections" `Quick test_to_sql_rejections;
      ] );
  ]

(* --- second-order operations: aggregation syntax, SETOF, division --- *)

let test_parse_aggregate_head () =
  let _, q = P.parse_clause "load(X, count(Y), max(N)) :- edge(X, Y) & num(Y, N)." in
  match q with
  | A.Agg { A.keys = [ 0 ]; specs = [ R.Aggregate.Count; R.Aggregate.Max 2 ]; source } ->
    check_int "source head has keys then agg args" 3 (A.head_arity source)
  | _ -> Alcotest.failf "unexpected shape: %s" (A.to_string q)

let test_aggregate_head_eval () =
  let _, q = P.parse_clause "outdeg(X, count(Y)) :- edge(X, Y)." in
  let r = E.query ~source ~schema_of q in
  (* out-degrees: a:2, b:2, c:1 *)
  check_int "three groups" 3 (rows r);
  let a_row = List.find (fun t -> V.equal (R.Tuple.get t 0) (V.Str "a")) (R.Relation.to_list r) in
  check_bool "a has out-degree 2" true (V.equal (R.Tuple.get a_row 1) (V.Int 2))

let test_parse_distinct () =
  let _, q = P.parse_clause "distinct dests(Y) :- edge(X, Y)." in
  (match q with
   | A.Distinct _ -> ()
   | _ -> Alcotest.fail "expected Distinct");
  let r = E.query ~source ~schema_of q in
  check_int "unique destinations" 3 (rows r)

let test_division () =
  (* nodes X that reach EVERY destination of a: dividend (X, Y) over edges,
     divisor = a's destinations {b, c} *)
  let dividend = A.Conj (A.conj [ v "X"; v "Y" ] [ atom "edge" [ v "X"; v "Y" ] ]) in
  let divisor = A.Conj (A.conj [ v "Y" ] [ atom "edge" [ s "a"; v "Y" ] ]) in
  let r = E.query ~source ~schema_of (A.Division (dividend, divisor)) in
  (* edge = a->{b,c}, b->{c,d}: only a reaches both b and c *)
  check_int "one divider" 1 (rows r);
  check_bool "it is a" true (V.equal (R.Tuple.get (R.Relation.get r 0) 0) (V.Str "a"))

let test_division_empty_divisor () =
  let dividend = A.Conj (A.conj [ v "X"; v "Y" ] [ atom "edge" [ v "X"; v "Y" ] ]) in
  let divisor = A.Conj (A.conj [ v "Y" ] [ atom "edge" [ s "zz"; v "Y" ] ]) in
  let r = E.query ~source ~schema_of (A.Division (dividend, divisor)) in
  (* empty divisor: every candidate satisfies "for all" *)
  check_int "all sources" 3 (rows r)

let test_division_safety () =
  let dividend = A.Conj (A.conj [ v "X" ] [ atom "edge" [ v "X"; v "Y" ] ]) in
  let divisor = A.Conj (A.conj [ v "Y"; v "Z" ] [ atom "edge" [ v "Y"; v "Z" ] ]) in
  check_bool "dividend must be wider" false
    (Braid_caql.Analyze.is_safe (A.Division (dividend, divisor)))

let second_order_cases =
  [
    Alcotest.test_case "parse aggregate head" `Quick test_parse_aggregate_head;
    Alcotest.test_case "aggregate head evaluation" `Quick test_aggregate_head_eval;
    Alcotest.test_case "parse distinct (SETOF)" `Quick test_parse_distinct;
    Alcotest.test_case "relational division (ALL)" `Quick test_division;
    Alcotest.test_case "division with empty divisor" `Quick test_division_empty_divisor;
    Alcotest.test_case "division safety" `Quick test_division_safety;
  ]

let suites = match suites with
  | [ (name, cases) ] -> [ (name, cases @ second_order_cases) ]
  | other -> other

(* --- the fixed point operator (§2's second-order template) --- *)

let test_fixpoint_transitive_closure () =
  let base = A.Conj (A.conj [ v "X"; v "Y" ] [ atom "edge" [ v "X"; v "Y" ] ]) in
  let step =
    A.Conj
      (A.conj [ v "X"; v "Z" ] [ atom "tc" [ v "X"; v "Y" ]; atom "edge" [ v "Y"; v "Z" ] ])
  in
  let q = A.Fixpoint { A.name = "tc"; base; step } in
  check_bool "safe" true (Braid_caql.Analyze.is_safe q);
  let r = E.query ~source ~schema_of q in
  (* edges a->b,b->c,c->d,a->c,b->d: closure is all (x,y) with x before y *)
  check_int "full closure" 6 (rows r);
  check_bool "a reaches d" true
    (R.Relation.mem r [| V.Str "a"; V.Str "d" |])

let test_fixpoint_converges_on_cycle () =
  (* a cyclic graph must still converge thanks to set semantics *)
  let cyc =
    R.Relation.of_tuples ~name:"cyc"
      (R.Schema.make [ ("s", V.Tstr); ("d", V.Tstr) ])
      [ [| V.Str "a"; V.Str "b" |]; [| V.Str "b"; V.Str "a" |] ]
  in
  let source' (a : L.Atom.t) = if a.L.Atom.pred = "cyc" then cyc else source a in
  let schema_of' = function "cyc" -> Some (R.Relation.schema cyc) | n -> schema_of n in
  let q =
    A.Fixpoint
      {
        A.name = "r";
        base = A.Conj (A.conj [ v "X"; v "Y" ] [ atom "cyc" [ v "X"; v "Y" ] ]);
        step =
          A.Conj
            (A.conj [ v "X"; v "Z" ] [ atom "r" [ v "X"; v "Y" ]; atom "cyc" [ v "Y"; v "Z" ] ]);
      }
  in
  let r = E.query ~source:source' ~schema_of:schema_of' q in
  (* reachability on the 2-cycle: all 4 ordered pairs *)
  check_int "converged" 4 (rows r)

let fixpoint_cases =
  [
    Alcotest.test_case "fixpoint transitive closure" `Quick test_fixpoint_transitive_closure;
    Alcotest.test_case "fixpoint converges on cycles" `Quick test_fixpoint_converges_on_cycle;
  ]

let suites = match suites with
  | [ (name, cases) ] -> [ (name, cases @ fixpoint_cases) ]
  | other -> other

(* --- lazy evaluation with comparisons mid-stream --- *)

let test_lazy_cmp_filtering () =
  let c =
    A.conj
      ~cmps:
        [
          (Braid_relalg.Row_pred.Ge, L.Literal.Term (v "N"), L.Literal.Term (i 2));
          (Braid_relalg.Row_pred.Lt, L.Literal.Term (v "M"), L.Literal.Term (i 4));
        ]
      [ v "X"; v "Y" ]
      [ atom "num" [ v "X"; v "N" ]; atom "num" [ v "Y"; v "M" ] ]
  in
  let eager = eval_conj c in
  let lazy_ = E.lazy_conj ~source:lazy_source ~schema_of c in
  let norm rel = List.sort compare (List.map R.Tuple.to_list (R.Relation.to_list rel)) in
  check_bool "lazy = eager with two comparisons" true
    (norm eager = norm (TS.to_relation lazy_));
  (* N in {2,3,4} and M in {1,2,3}: 3 x 3 = 9 combinations *)
  check_int "nine pairs" 9 (rows eager)

let test_lazy_cmp_prunes_early () =
  (* an impossible ground comparison yields an empty lazy stream without
     touching the second relation *)
  let pulled = ref 0 in
  let counting (a : L.Atom.t) =
    let base = source a in
    if a.L.Atom.pred = "num" then incr pulled;
    TS.of_relation base
  in
  let c =
    A.conj
      ~cmps:[ (Braid_relalg.Row_pred.Lt, L.Literal.Term (i 2), L.Literal.Term (i 1)) ]
      [ v "X" ]
      [ atom "edge" [ v "X"; v "Y" ]; atom "num" [ v "X"; v "N" ] ]
  in
  let stream = E.lazy_conj ~source:counting ~schema_of c in
  check_int "no solutions" 0 (List.length (TS.to_list stream))

(* [conj_to_string] prints what the parser reads back, constants
   included: an integral float stays a float, a string holding one quote
   character is quoted with the other, and a float keeps every digit it
   needs, without an exponent. *)
let test_conj_to_string_reads_back () =
  let f x = T.Const (V.Float x) in
  let cmp op x y = (op, L.Literal.Term x, L.Literal.Term y) in
  let c =
    A.conj
      ~cmps:
        [
          cmp Braid_relalg.Row_pred.Gt (v "X") (f 2.0);
          cmp Braid_relalg.Row_pred.Le (v "Y") (f 1.0000001);
        ]
      [ v "X"; v "Y" ]
      [
        atom "b" [ v "X"; f 2.0; s "say \"hi\""; s "it's" ];
        atom "c" [ v "Y"; f 1e-7; f 1e21; f (-2.5); i 2; f 1.0000002 ];
      ]
  in
  let printed = A.conj_to_string c in
  match P.parse_clause ("q" ^ printed ^ ".") with
  | _, A.Conj c' -> check_bool printed true (c' = c)
  | _ -> Alcotest.failf "not a conjunct: %s" printed

let lazy_cmp_cases =
  [
    Alcotest.test_case "lazy with comparisons" `Quick test_lazy_cmp_filtering;
    Alcotest.test_case "lazy prunes on ground false" `Quick test_lazy_cmp_prunes_early;
    Alcotest.test_case "conj_to_string reads back" `Quick test_conj_to_string_reads_back;
  ]

let suites = match suites with
  | [ (name, cases) ] -> [ (name, cases @ lazy_cmp_cases) ]
  | other -> other
