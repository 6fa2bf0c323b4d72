(* The one CAQL reader behind both parsers: a committed table of inputs
   and the ASTs they parse to, the deliberate widenings of the advice
   syntax, numeric literals that must fail as parse errors, and a fuzz
   property that no other exception escapes either parser. *)

module L = Braid_logic
module V = Braid_relalg.Value
module A = Braid_caql.Ast
module Adv = Braid_advice.Ast

let value = function
  | V.Int n -> Printf.sprintf "I%d" n
  | V.Float f -> Printf.sprintf "F%h" f
  | V.Str s -> Printf.sprintf "S%S" s
  | V.Bool b -> Printf.sprintf "B%b" b
  | V.Null -> "Null"

let term = function L.Term.Var x -> "V" ^ x | L.Term.Const v -> value v
let list f xs = "[" ^ String.concat "; " (List.map f xs) ^ "]"

let rec expr = function
  | L.Literal.Term t -> term t
  | L.Literal.Add (a, b) -> Printf.sprintf "Add(%s,%s)" (expr a) (expr b)
  | L.Literal.Sub (a, b) -> Printf.sprintf "Sub(%s,%s)" (expr a) (expr b)
  | L.Literal.Mul (a, b) -> Printf.sprintf "Mul(%s,%s)" (expr a) (expr b)
  | L.Literal.Div (a, b) -> Printf.sprintf "Div(%s,%s)" (expr a) (expr b)

let atom (a : L.Atom.t) = a.L.Atom.pred ^ list term a.L.Atom.args

let conj (c : A.conj) =
  Printf.sprintf "{%s :- %s | %s}" (list term c.A.head) (list atom c.A.atoms)
    (list
       (fun (op, a, b) -> Printf.sprintf "%s %s %s" (expr a) (L.Literal.cmp_symbol op) (expr b))
       c.A.cmps)

let rec query = function
  | A.Conj c -> conj c
  | A.Union qs -> "Union" ^ list query qs
  | A.Diff (a, b) -> Printf.sprintf "Diff(%s,%s)" (query a) (query b)
  | A.Distinct q -> Printf.sprintf "Distinct(%s)" (query q)
  | A.Division (a, b) -> Printf.sprintf "Division(%s,%s)" (query a) (query b)
  | A.Fixpoint f -> Printf.sprintf "Fixpoint(%s,%s,%s)" f.A.name (query f.A.base) (query f.A.step)
  | A.Agg g ->
    Printf.sprintf "Agg(%s,%s,%s)" (list string_of_int g.A.keys)
      (list Braid_relalg.Aggregate.name_of_spec g.A.specs)
      (query g.A.source)

let program defs = list (fun (n, q) -> n ^ "=" ^ query q) defs

let rec path = function
  | Adv.Pattern (id, args) -> id ^ list term args
  | Adv.Seq (ps, { Adv.lo; hi }) ->
    Printf.sprintf "Seq(%s,%d,%s)" (list path ps) lo
      (match hi with
       | Adv.Fin n -> string_of_int n
       | Adv.Cardinality x -> "|" ^ x ^ "|"
       | Adv.Inf -> "*")
  | Adv.Alt (ps, sel) ->
    Printf.sprintf "Alt(%s,%s)" (list path ps)
      (match sel with Some k -> string_of_int k | None -> "-")

let advice_set (t : Adv.t) =
  Printf.sprintf "%s path=%s"
    (list
       (fun (s : Adv.view_spec) ->
         Printf.sprintf "%s%s=%s%s" s.Adv.id
           (list (function Adv.Producer -> "^" | Adv.Consumer -> "?") s.Adv.bindings)
           (conj s.Adv.def) (list Fun.id s.Adv.rule_ids))
       t.Adv.specs)
    (match t.Adv.path with Some p -> path p | None -> "-")

module CP = Braid_caql.Parser
module AP = Braid_advice.Parser

(* Each expected dump was printed by the parsers before they shared one
   reader; the table pins that the shared reader parses them alike. *)
let caql_table =
  [
    ("q(X) :- p(X, 3).", "[q={[VX] :- [p[VX; I3]] | []}]");
    ("q(P, W) :- part(P, red, W) & W > 30.", "[q={[VP; VW] :- [part[VP; S\"red\"; VW]] | [VW > I30]}]");
    ("q(X) :- p(X, W), W > 0.\nr(Y) :- s(Y, 7).", "[q={[VX] :- [p[VX; VW]] | [VW > I0]}; r={[VY] :- [s[VY; I7]] | []}]");
    ("q(X) :- p(X, 1.5) & X >= 2.25.", "[q={[VX] :- [p[VX; F0x1.8p+0]] | [VX >= F0x1.2p+1]}]");
    ("q(X) :- p(X, 10.25) & X <= 0.5.", "[q={[VX] :- [p[VX; F0x1.48p+3]] | [VX <= F0x1p-1]}]");
    ("q(X) :- p(X, 'a b', \"c d\", 'x.y').", "[q={[VX] :- [p[VX; S\"a b\"; S\"c d\"; S\"x.y\"]] | []}]");
    ("% comment\nq(X) :- p(X). % trailing\n", "[q={[VX] :- [p[VX]] | []}]");
    ("q(X) :- p(X, N) & N * 2 + 1 <= 10 - N / 2.", "[q={[VX] :- [p[VX; VN]] | [Add(Mul(VN,I2),I1) <= Sub(I10,Div(VN,I2))]}]");
    ("q(X) :- p(X, N) & N <> -2 & N < -2.5 & N = (N + 1) * 3.", "[q={[VX] :- [p[VX; VN]] | [VN <> I-2; VN < F-0x1.4p+1; VN = Mul(Add(VN,I1),I3)]}]");
    ("q(X) :- p(X, Y) & ~r(Y).", "[q=Diff({[VX] :- [p[VX; VY]] | []},{[VX] :- [p[VX; VY]; r[VY]] | []})]");
    ("q(X) :- p(X, Y), ~r(Y, c), Y > 1.", "[q=Diff({[VX] :- [p[VX; VY]] | [VY > I1]},{[VX] :- [p[VX; VY]; r[VY; S\"c\"]] | [VY > I1]})]");
    ("q(X, count(Y), sum(N), max(N)) :- p(X, Y, N).", "[q=Agg([0],[count; sum_2; max_3],{[VX; VY; VN; VN] :- [p[VX; VY; VN]] | []})]");
    ("n(count(Y), avg(N), min(N)) :- p(X, Y, N).", "[n=Agg([],[count; avg_1; min_2],{[VY; VN; VN] :- [p[VX; VY; VN]] | []})]");
    ("distinct q(Y) :- p(X, Y).", "[q=Distinct({[VY] :- [p[VX; VY]] | []})]");
    ("q(X) :- a(X). q(X) :- b(X). r(Y) :- c(Y).", "[q=Union[{[VX] :- [a[VX]] | []}; {[VX] :- [b[VX]] | []}]; r={[VY] :- [c[VY]] | []}]");
    ("q(X) :- p(X, true, false, _Y).", "[q={[VX] :- [p[VX; Btrue; Bfalse; V_Y]] | []}]");
    ("q(a, 3, X) :- p(X).", "[q={[S\"a\"; I3; VX] :- [p[VX]] | []}]");
    ("p(1, 2). p(3, 4).", "[p=Union[{[I1; I2] :- [] | []}; {[I3; I4] :- [] | []}]]");
    ("q() :- p().", "[q={[] :- [p[]] | []}]");
    ("q(S, P) :- supplier(S, athens) & supplies(S, P, Q) & part(P, red, W).", "[q={[VS; VP] :- [supplier[VS; S\"athens\"]; supplies[VS; VP; VQ]; part[VP; S\"red\"; VW]] | []}]");
  ]

let advice_table =
  [
    ("d1(Y^) =def b1(c1, Y).\nd2(X^, Y?) =def b2(X, Z) & b3(Z, c2, Y).\nd3(X^, Y?) =def b3(X, c3, Z) & b1(Z, Y).\npath (d1(Y), (d2(X, Y), d3(X, Y))<0,|Y|>)<1,1>.\n", "[d1[^]={[VY] :- [b1[S\"c1\"; VY]] | []}[]; d2[^; ?]={[VX; VY] :- [b2[VX; VZ]; b3[VZ; S\"c2\"; VY]] | []}[]; d3[^; ?]={[VX; VY] :- [b3[VX; S\"c3\"; VZ]; b1[VZ; VY]] | []}[]] path=Seq([d1[VY]; Seq([d2[VX; VY]; d3[VX; VY]],0,|Y|)],1,1)");
    ("% view specifications\nd1(Y^)       =def b1(c1, Y).\nd2(X^, Y?)   =def b2(X, Z) & b3(Z, c2, Y).\n\n% the path\npath (d1(Y), (d2(X, Y))<0,|Y|>)<1,1>.\n", "[d1[^]={[VY] :- [b1[S\"c1\"; VY]] | []}[]; d2[^; ?]={[VX; VY] :- [b2[VX; VZ]; b3[VZ; S\"c2\"; VY]] | []}[]] path=Seq([d1[VY]; Seq([d2[VX; VY]],0,|Y|)],1,1)");
    ("d(X^, c1, Y?) =def b(X, c1, Y) & X < 5 & Y <> 'c2'.", "[d[^; ^; ?]={[VX; S\"c1\"; VY] :- [b[VX; S\"c1\"; VY]] | [VX < I5; VY <> S\"c2\"]}[]] path=-");
    ("dx(N?) =def nums(N) & N >= 10 & N <= 20.", "[dx[?]={[VN] :- [nums[VN]] | [VN >= I10; VN <= I20]}[]] path=-");
    ("d(X^) =def b(X, 7).\npath (d(X))<2,|X|>.", "[d[^]={[VX] :- [b[VX; I7]] | []}[]] path=Seq([d[VX]],2,|X|)");
    ("d(X^)=def b(X) & X > 3.", "[d[^]={[VX] :- [b[VX]] | [VX > I3]}[]] path=-");
    ("% c\nd(X?) =def b(X, \"q s\", 'r'). % trailing\n", "[d[?]={[VX] :- [b[VX; S\"q s\"; S\"r\"]] | []}[]] path=-");
    ("path (a(X), [ (b(X), c()), (d(Y), e(Y)) ]^2)<0,*>.", "[] path=Seq([a[VX]; Alt([Seq([b[VX]; c[]],1,1); Seq([d[VY]; e[VY]],1,1)],2)],0,*)");
    ("path [a(), b(1)].", "[] path=Alt([a[]; b[I1]],-)");
    ("d1(Y^) =def b1(c1, Y).\npath (d1(Y))<0,5>.\n", "[d1[^]={[VY] :- [b1[S\"c1\"; VY]] | []}[]] path=Seq([d1[VY]],0,5)");
  ]

let path_table =
  [
    ("(a(), [ (b(), c()), (d(), e()) ]^1)<0,*>", "Seq([a[]; Alt([Seq([b[]; c[]],1,1); Seq([d[]; e[]],1,1)],1)],0,*)");
    ("(d1(Y), (d2(X, Y), d3(X, Y))<0,|Y|>)<1,1>", "Seq([d1[VY]; Seq([d2[VX; VY]; d3[VX; VY]],0,|Y|)],1,1)");
    ("x(1, Y, c)", "x[I1; VY; S\"c\"]");
    ("[a(X), (b(X))<1,5>]^1", "Alt([a[VX]; Seq([b[VX]],1,5)],1)");
  ]

let check_table name parse dump table () =
  List.iter
    (fun (input, expected) ->
      Alcotest.(check string) (Printf.sprintf "%s %S" name input) expected (dump (parse input)))
    table

(* What the shared reader reads differently, on purpose: advice literals
   and bodies are CAQL's, and a string is never re-lexed. *)
let widenings =
  [
    ( "d(X^) =def b(X, -3, 2.5).",
      "[d[^]={[VX] :- [b[VX; I-3; F0x1.4p+1]] | []}[]] path=-" );
    ( "d(X^) =def b(X, true, false).",
      "[d[^]={[VX] :- [b[VX; Btrue; Bfalse]] | []}[]] path=-" );
    ( "d(X^) =def b(X, Y), c(Y).",
      "[d[^]={[VX] :- [b[VX; VY]; c[VY]] | []}[]] path=-" );
    ( "d(X^) =def b(X, Y) & X + 1 < Y * 2.",
      "[d[^]={[VX] :- [b[VX; VY]] | [Add(VX,I1) < Mul(VY,I2)]}[]] path=-" );
    ( "d(X^) = def b(X).", "[d[^]={[VX] :- [b[VX]] | []}[]] path=-" );
  ]

let test_widenings () =
  check_table "advice" AP.parse advice_set widenings ();
  check_table "caql" CP.parse_program program
    [ ("q(X) :- p(X, 'v1.'), X > 3.", "[q={[VX] :- [p[VX; S\"v1.\"]] | [VX > I3]}]") ]
    ()

let raises_error name parse input =
  match parse input with
  | _ -> Alcotest.failf "%s %S parsed" name input
  | exception (CP.Error _ | AP.Error _) -> ()
  | exception e -> Alcotest.failf "%s %S raised %s" name input (Printexc.to_string e)

let test_rejected () =
  List.iter (raises_error "advice" AP.parse)
    [ "d(X^) =defb(X)."; "d(X^) =def b(X) & ~c(X)." ]

let big = "99999999999999999999"

let test_bad_numbers () =
  List.iter
    (raises_error "caql" CP.parse_program)
    [ "q(X) :- p(X, 1.2.3)."; "q(X) :- p(X, " ^ big ^ ")."; "q(X) :- p(X) & X > " ^ big ^ "." ];
  List.iter (raises_error "advice" AP.parse)
    [
      "d(X^) =def b(X, 1.2.3).";
      "d(X^) =def b(X, " ^ big ^ ").";
      "path (d(X))<0," ^ big ^ ">.";
    ];
  raises_error "path" AP.parse_path ("(d(X))<" ^ big ^ ",1>");
  match CP.parse_program ("q(X) :- p(X, " ^ big ^ ").") with
  | _ -> ()
  | exception CP.Error m ->
    Alcotest.(check string) "names the offset" "integer literal out of range at offset 13" m

(* Random token soup, long digit runs and dotted numbers included: every
   entry point either parses or raises the parsers' Error. *)
let gen_text =
  let open QCheck.Gen in
  let digits = int_range 1 25 >>= fun n -> string_size ~gen:numeral (return n) in
  let token =
    frequency
      [
        ( 6,
          oneofl
            [
              "p"; "q"; "d1"; "path"; "def"; "distinct"; "count"; "true"; "X"; "Y"; "_Z";
              "("; ")"; "["; "]"; ","; "&"; "~"; "."; ":-"; ":"; "+"; "-"; "*"; "/"; "^";
              "?"; "|"; "="; "=def"; "<>"; "<"; "<="; ">"; ">="; "'s'"; "\"t\""; "'";
              "% c\n"; "!"; "\n";
            ] );
        (2, digits);
        (1, map2 (fun a b -> a ^ "." ^ b) digits digits);
        (1, map3 (fun a b c -> a ^ "." ^ b ^ "." ^ c) digits digits digits);
        (1, map (fun a -> a ^ ".") digits);
      ]
  in
  list_size (int_range 0 25) (pair token (oneofl [ ""; " " ]))
  >|= fun toks -> String.concat "" (List.map (fun (t, sep) -> t ^ sep) toks)

let only_parse_errors =
  QCheck.Test.make ~count:3000 ~name:"only Parser.Error escapes the parsers"
    (QCheck.make ~print:(Printf.sprintf "%S") gen_text)
    (fun text ->
      (match CP.parse_program text with _ -> true | exception CP.Error _ -> true)
      && (match AP.parse text with _ -> true | exception AP.Error _ -> true)
      && match AP.parse_path text with _ -> true | exception AP.Error _ -> true)

let suites : unit Alcotest.test list =
  [
    ( "syntax",
      [
        Alcotest.test_case "caql parses as before" `Quick
          (check_table "caql" CP.parse_program program caql_table);
        Alcotest.test_case "advice parses as before" `Quick
          (check_table "advice" AP.parse advice_set advice_table);
        Alcotest.test_case "paths parse as before" `Quick
          (check_table "path" AP.parse_path path path_table);
        Alcotest.test_case "advice widenings" `Quick test_widenings;
        Alcotest.test_case "advice rejections" `Quick test_rejected;
        Alcotest.test_case "bad numeric literals" `Quick test_bad_numbers;
        QCheck_alcotest.to_alcotest only_parse_errors;
      ] );
  ]
