module L = Braid_logic
module A = Braid_caql.Ast
module G = Braid_caql.Grammar

exception Error = Braid_caql.Parser.Error

(* --- view specifications --- *)

(* A variable parameter carries its annotation; a constant is neither
   producer nor consumer, and is modelled as a producer of a fixed value
   since [Ast.spec] wants one binding per head position. *)
let param st =
  match G.term st with
  | L.Term.Const _ as t -> (t, Ast.Producer)
  | L.Term.Var _ as t ->
    (match G.peek st with
     | G.Tcaret -> G.advance st; (t, Ast.Producer)
     | G.Tquestion -> G.advance st; (t, Ast.Consumer)
     | _ -> G.error "spec parameters need a ^ or ? annotation")

(* [id(params) =def body.], the body a CAQL body without negation *)
let spec st id =
  let params = G.parens st param in
  G.expect st (G.Tcmp Braid_relalg.Row_pred.Eq) "'=def'";
  G.expect st (G.Tident "def") "'=def'";
  let body = G.body st in
  G.expect st G.Tdot "'.'";
  let atoms, cmps =
    List.partition_map
      (function
        | G.Atom a -> Left a
        | G.Cmp c -> Right c
        | G.Neg _ -> G.error "negation is not allowed in a view specification")
      body
  in
  Ast.spec ~id ~bindings:(List.map snd params) (A.conj ~cmps (List.map fst params) atoms)

(* --- path expressions --- *)

let bound st =
  match G.peek st with
  | G.Tint k -> G.advance st; Ast.Fin k
  | G.Tstar -> G.advance st; Ast.Inf
  | G.Tbar ->
    G.advance st;
    (match G.peek st with
     | G.Tvar x ->
       G.advance st;
       G.expect st G.Tbar "'|'";
       Ast.Cardinality x
     | _ -> G.error "expected a variable inside |...|")
  | _ -> G.error "expected an integer, * or |Var|"

(* optional <lo,hi>; default <1,1> *)
let repetition st =
  match G.peek st with
  | G.Tcmp Braid_relalg.Row_pred.Lt ->
    G.advance st;
    let lo =
      match G.peek st with
      | G.Tint k -> G.advance st; k
      | _ -> G.error "expected the lower repetition bound"
    in
    G.expect st G.Tcomma "','";
    let hi = bound st in
    G.expect st (G.Tcmp Braid_relalg.Row_pred.Gt) "'>'";
    { Ast.lo; hi }
  | _ -> { Ast.lo = 1; hi = Ast.Fin 1 }

let rec path_expr st =
  match G.peek st with
  | G.Tlparen ->
    G.advance st;
    let items = G.comma_list st path_expr in
    G.expect st G.Trparen "',' or ')'";
    Ast.Seq (items, repetition st)
  | G.Tlbracket ->
    G.advance st;
    let items = G.comma_list st path_expr in
    G.expect st G.Trbracket "',' or ']'";
    let sel =
      match G.peek st, G.peek2 st with
      | G.Tcaret, G.Tint k -> G.advance st; G.advance st; Some k
      | G.Tcaret, _ -> G.error "expected the selection term after ^"
      | _ -> None
    in
    Ast.Alt (items, sel)
  | G.Tident id ->
    G.advance st;
    Ast.Pattern (id, G.term_list st)
  | _ -> G.error "expected a pattern, '(' or '['"

let parse_path text =
  let st = G.of_string text in
  let p = path_expr st in
  if G.peek st <> G.Teof then G.error "trailing input after path expression";
  p

let parse text =
  let st = G.of_string text in
  let rec loop specs path =
    match G.peek st with
    | G.Teof -> { Ast.specs = List.rev specs; path }
    | G.Tident "path" ->
      G.advance st;
      if path <> None then G.error "more than one path clause";
      let p = path_expr st in
      G.expect st G.Tdot "'.'";
      loop specs (Some p)
    | G.Tident id ->
      G.advance st;
      let s = spec st id in
      loop (s :: specs) path
    | _ -> G.error "expected a spec clause or 'path'"
  in
  loop [] None
