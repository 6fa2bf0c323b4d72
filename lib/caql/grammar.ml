module L = Braid_logic
module V = Braid_relalg.Value
module RP = Braid_relalg.Row_pred

exception Error of string

let error msg = raise (Error msg)

(* --- lexer --- *)

type token =
  | Tident of string
  | Tvar of string
  | Tint of int
  | Tfloat of float
  | Tstring of string
  | Tlparen
  | Trparen
  | Tlbracket
  | Trbracket
  | Tcomma
  | Tamp
  | Ttilde
  | Tdot
  | Tturnstile
  | Tcmp of RP.cmp
  | Tplus
  | Tminus
  | Tstar
  | Tslash
  | Tcaret
  | Tquestion
  | Tbar
  | Teof

let is_digit c = c >= '0' && c <= '9'

let is_ident_char c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || is_digit c || c = '_'

let punctuation = function
  | '(' -> Some Tlparen
  | ')' -> Some Trparen
  | '[' -> Some Tlbracket
  | ']' -> Some Trbracket
  | ',' -> Some Tcomma
  | '&' -> Some Tamp
  | '~' -> Some Ttilde
  | '.' -> Some Tdot
  | '+' -> Some Tplus
  | '-' -> Some Tminus
  | '*' -> Some Tstar
  | '/' -> Some Tslash
  | '^' -> Some Tcaret
  | '?' -> Some Tquestion
  | '|' -> Some Tbar
  | '=' -> Some (Tcmp RP.Eq)
  | _ -> None

let tokenize src =
  let n = String.length src in
  let tokens = ref [] in
  let pos = ref 0 in
  let fail_at p msg = error (Printf.sprintf "%s at offset %d" msg p) in
  let peek k = if !pos + k < n then Some src.[!pos + k] else None in
  let emit t = tokens := t :: !tokens in
  let skip_while p = while !pos < n && p src.[!pos] do incr pos done in
  while !pos < n do
    let c = src.[!pos] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr pos
    else if c = '%' then (* comment to end of line *) skip_while (fun c -> c <> '\n')
    else if c = '<' then begin
      match peek 1 with
      | Some '=' -> emit (Tcmp RP.Le); pos := !pos + 2
      | Some '>' -> emit (Tcmp RP.Ne); pos := !pos + 2
      | Some _ | None -> emit (Tcmp RP.Lt); incr pos
    end
    else if c = '>' then begin
      match peek 1 with
      | Some '=' -> emit (Tcmp RP.Ge); pos := !pos + 2
      | Some _ | None -> emit (Tcmp RP.Gt); incr pos
    end
    else if c = ':' then begin
      match peek 1 with
      | Some '-' -> emit Tturnstile; pos := !pos + 2
      | Some _ | None -> fail_at !pos "expected ':-'"
    end
    else if c = '\'' || c = '"' then begin
      let start = !pos in
      incr pos;
      skip_while (fun d -> d <> c);
      if !pos >= n then fail_at start "unterminated string";
      emit (Tstring (String.sub src (start + 1) (!pos - start - 1)));
      incr pos
    end
    else if is_digit c then begin
      (* A fraction only when a digit follows the '.': [W > 30.] ends a
         clause, [1.2.3] is the float 1.2 then '.' then 3. *)
      let start = !pos in
      skip_while is_digit;
      if !pos + 1 < n && src.[!pos] = '.' && is_digit src.[!pos + 1] then begin
        incr pos;
        skip_while is_digit;
        emit (Tfloat (float_of_string (String.sub src start (!pos - start))))
      end
      else
        match int_of_string_opt (String.sub src start (!pos - start)) with
        | Some k -> emit (Tint k)
        | None -> fail_at start "integer literal out of range"
    end
    else if is_ident_char c then begin
      let start = !pos in
      skip_while is_ident_char;
      let text = String.sub src start (!pos - start) in
      if (c >= 'A' && c <= 'Z') || c = '_' then emit (Tvar text) else emit (Tident text)
    end
    else
      match punctuation c with
      | Some t -> emit t; incr pos
      | None -> fail_at !pos (Printf.sprintf "unexpected character %C" c)
  done;
  emit Teof;
  List.rev !tokens

(* --- cursor --- *)

type state = { mutable toks : token list }

let of_string src = { toks = tokenize src }
let peek st = match st.toks with [] -> Teof | t :: _ -> t
let peek2 st = match st.toks with _ :: t :: _ -> t | _ -> Teof
let advance st = match st.toks with [] -> () | _ :: rest -> st.toks <- rest
let expect st tok msg = if peek st = tok then advance st else error ("expected " ^ msg)

let comma_list st item =
  let rec loop acc =
    let x = item st in
    if peek st = Tcomma then (advance st; loop (x :: acc)) else List.rev (x :: acc)
  in
  loop []

let parens st item =
  expect st Tlparen "'('";
  let items = if peek st = Trparen then [] else comma_list st item in
  expect st Trparen "',' or ')'";
  items

(* --- terms and expressions --- *)

(* expr := mult (('+'|'-') mult)* ; mult := prim (('*'|'/') prim)* *)
let rec expr st =
  let rec loop lhs =
    match peek st with
    | Tplus -> advance st; loop (L.Literal.Add (lhs, mult st))
    | Tminus -> advance st; loop (L.Literal.Sub (lhs, mult st))
    | _ -> lhs
  in
  loop (mult st)

and mult st =
  let rec loop lhs =
    match peek st with
    | Tstar -> advance st; loop (L.Literal.Mul (lhs, prim st))
    | Tslash -> advance st; loop (L.Literal.Div (lhs, prim st))
    | _ -> lhs
  in
  loop (prim st)

and prim st =
  let const v = advance st; L.Literal.Term (L.Term.Const v) in
  match peek st with
  | Tvar x -> advance st; L.Literal.Term (L.Term.Var x)
  | Tint k -> const (V.Int k)
  | Tfloat f -> const (V.Float f)
  | Tstring s -> const (V.Str s)
  | Tident "true" -> const (V.Bool true)
  | Tident "false" -> const (V.Bool false)
  | Tident name -> const (V.Str name)
  | Tminus ->
    advance st;
    (match prim st with
     | L.Literal.Term (L.Term.Const (V.Int k)) -> L.Literal.Term (L.Term.Const (V.Int (-k)))
     | L.Literal.Term (L.Term.Const (V.Float f)) ->
       L.Literal.Term (L.Term.Const (V.Float (-.f)))
     | e -> L.Literal.Sub (L.Literal.Term (L.Term.Const (V.Int 0)), e))
  | Tlparen ->
    advance st;
    let e = expr st in
    expect st Trparen "')'";
    e
  | _ -> error "expected a term"

let term st =
  match expr st with
  | L.Literal.Term t -> t
  | L.Literal.Add _ | L.Literal.Sub _ | L.Literal.Mul _ | L.Literal.Div _ ->
    error "arithmetic not allowed in this position"

let term_list st = parens st term

(* --- bodies --- *)

type conjunct =
  | Atom of L.Atom.t
  | Neg of L.Atom.t
  | Cmp of Ast.comparison

let conjunct st =
  match peek st, peek2 st with
  | Ttilde, Tident name ->
    advance st;
    advance st;
    Neg (L.Atom.make name (term_list st))
  | Ttilde, _ -> error "expected an atom after '~'"
  | Tident name, Tlparen ->
    advance st;
    Atom (L.Atom.make name (term_list st))
  | _ ->
    let lhs = expr st in
    (match peek st with
     | Tcmp op ->
       advance st;
       Cmp (op, lhs, expr st)
     | _ -> error "expected a comparison operator")

let body st =
  let rec loop acc =
    let c = conjunct st in
    match peek st with
    | Tamp | Tcomma -> advance st; loop (c :: acc)
    | _ -> List.rev (c :: acc)
  in
  loop []
