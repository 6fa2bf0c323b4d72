module L = Braid_logic
module RP = Braid_relalg.Row_pred
module V = Braid_relalg.Value

type comparison = RP.cmp * L.Literal.expr * L.Literal.expr

type conj = {
  head : L.Term.t list;
  atoms : L.Atom.t list;
  cmps : comparison list;
}

type t =
  | Conj of conj
  | Union of t list
  | Diff of t * t
  | Distinct of t
  | Division of t * t
  | Fixpoint of fixpoint
  | Agg of agg

and fixpoint = {
  name : string;
  base : t;
  step : t;
}

and agg = {
  keys : int list;
  specs : Braid_relalg.Aggregate.spec list;
  source : t;
}

let conj ?(cmps = []) head atoms = { head; atoms; cmps }

let rec head_arity = function
  | Conj c -> List.length c.head
  | Union [] -> invalid_arg "Ast.head_arity: empty union"
  | Union (q :: _) -> head_arity q
  | Diff (a, _) -> head_arity a
  | Distinct q -> head_arity q
  | Division (dividend, divisor) -> head_arity dividend - head_arity divisor
  | Fixpoint f -> head_arity f.base
  | Agg a -> List.length a.keys + List.length a.specs

let head_constants c =
  List.filter_map (function L.Term.Const v -> Some v | L.Term.Var _ -> None) c.head

let constants c =
  head_constants c
  @ List.concat_map L.Atom.constants c.atoms
  @ List.concat_map (fun (op, a, b) -> L.Literal.constants (L.Literal.Cmp (op, a, b))) c.cmps

let apply_subst s c =
  let apply_cmp (op, a, b) =
    match L.Literal.apply s (L.Literal.Cmp (op, a, b)) with
    | L.Literal.Cmp (op, a, b) -> (op, a, b)
    | L.Literal.Rel _ -> assert false
  in
  {
    head = List.map (L.Subst.resolve s) c.head;
    atoms = List.map (L.Subst.apply_atom s) c.atoms;
    cmps = List.map apply_cmp c.cmps;
  }

let rename_vars f c =
  let rename_cmp (op, a, b) =
    match L.Literal.rename f (L.Literal.Cmp (op, a, b)) with
    | L.Literal.Cmp (op, a, b) -> (op, a, b)
    | L.Literal.Rel _ -> assert false
  in
  {
    head = List.map (function L.Term.Var x -> L.Term.Var (f x) | t -> t) c.head;
    atoms = List.map (L.Atom.rename f) c.atoms;
    cmps = List.map rename_cmp c.cmps;
  }

(* The numbering of [variant_key]: comparisons first, in list order, each
   one's right operand before its left (and inside an arithmetic
   expression the right operand first too); then the atoms' arguments,
   left to right; then the head. It is the order in which the first
   implementation, a [rename_vars] pass, met the variables under OCaml's
   right-to-left evaluation of constructor arguments and record fields;
   spelling it out keeps every key byte-identical to that one's. Returns
   [(variable, printed name)] pairs, most recent first. *)
let numbering c =
  let names = ref [] and counter = ref 0 in
  let see x =
    if not (List.mem_assoc x !names) then begin
      names := (x, "v" ^ string_of_int !counter) :: !names;
      incr counter
    end
  in
  let term = function L.Term.Var x -> see x | L.Term.Const _ -> () in
  let rec expr = function
    | L.Literal.Term t -> term t
    | L.Literal.Add (a, b) | L.Literal.Sub (a, b) | L.Literal.Mul (a, b) | L.Literal.Div (a, b) ->
      expr b;
      expr a
  in
  List.iter
    (fun (_, a, b) ->
      expr b;
      expr a)
    c.cmps;
  List.iter (fun (a : L.Atom.t) -> List.iter term a.L.Atom.args) c.atoms;
  List.iter term c.head;
  !names

let pp_sep s ppf () = Format.fprintf ppf "%s" s

(* Constants as the CAQL lexer reads them back: a float always with a
   fraction, a string between the quote character it does not contain.
   A string holding both has no CAQL spelling; it prints OCaml-escaped. *)
let pp_const ppf = function
  | V.Float x ->
    let s = V.float_digits x in
    Format.pp_print_string ppf
      (if String.contains s '.' || not (Float.is_finite x) then s else s ^ ".0")
  | V.Str s when not (String.contains s '"') -> Format.fprintf ppf "\"%s\"" s
  | V.Str s when not (String.contains s '\'') -> Format.fprintf ppf "'%s'" s
  | v -> V.pp ppf v

let pp_term ppf = function
  | L.Term.Var x -> Format.pp_print_string ppf x
  | L.Term.Const v -> pp_const ppf v

let rec pp_expr ppf = function
  | L.Literal.Term t -> pp_term ppf t
  | L.Literal.Add (a, b) -> Format.fprintf ppf "(%a + %a)" pp_expr a pp_expr b
  | L.Literal.Sub (a, b) -> Format.fprintf ppf "(%a - %a)" pp_expr a pp_expr b
  | L.Literal.Mul (a, b) -> Format.fprintf ppf "(%a * %a)" pp_expr a pp_expr b
  | L.Literal.Div (a, b) -> Format.fprintf ppf "(%a / %a)" pp_expr a pp_expr b

let pp_atom ppf (a : L.Atom.t) =
  Format.fprintf ppf "%s(%a)" a.L.Atom.pred
    (Format.pp_print_list ~pp_sep:(pp_sep ", ") pp_term)
    a.L.Atom.args

let pp_literal ppf = function
  | L.Literal.Rel a -> pp_atom ppf a
  | L.Literal.Cmp (op, a, b) ->
    Format.fprintf ppf "%a %s %a" pp_expr a (L.Literal.cmp_symbol op) pp_expr b

let pp_conj ppf c =
  Format.fprintf ppf "(%a) :- %a"
    (Format.pp_print_list ~pp_sep:(pp_sep ", ") pp_term)
    c.head
    (Format.pp_print_list ~pp_sep:(pp_sep " & ") (fun ppf x -> x ppf))
    (List.map (fun a ppf -> pp_atom ppf a) c.atoms
    @ List.map (fun (op, a, b) ppf -> pp_literal ppf (L.Literal.Cmp (op, a, b))) c.cmps)

let conj_to_string c = Format.asprintf "%a" pp_conj c

(* [conj_to_string] of the renamed conjunct, without building the renamed
   copy, except that constants are [V.add_to_buffer]'s lossless spelling. *)
let variant_key c =
  let names = numbering c in
  let b = Buffer.create 64 in
  let term = function
    | L.Term.Var x -> Buffer.add_string b (List.assoc x names)
    | L.Term.Const v -> V.add_to_buffer b v
  in
  let rec expr = function
    | L.Literal.Term t -> term t
    | L.Literal.Add (x, y) -> bin x " + " y
    | L.Literal.Sub (x, y) -> bin x " - " y
    | L.Literal.Mul (x, y) -> bin x " * " y
    | L.Literal.Div (x, y) -> bin x " / " y
  and bin x op y =
    Buffer.add_char b '(';
    expr x;
    Buffer.add_string b op;
    expr y;
    Buffer.add_char b ')'
  in
  let terms ts =
    List.iteri
      (fun i t ->
        if i > 0 then Buffer.add_string b ", ";
        term t)
      ts
  in
  let first = ref true in
  let conjunct () = if !first then first := false else Buffer.add_string b " & " in
  Buffer.add_char b '(';
  terms c.head;
  Buffer.add_string b ") :- ";
  List.iter
    (fun (a : L.Atom.t) ->
      conjunct ();
      Buffer.add_string b a.L.Atom.pred;
      Buffer.add_char b '(';
      terms a.L.Atom.args;
      Buffer.add_char b ')')
    c.atoms;
  List.iter
    (fun (op, x, y) ->
      conjunct ();
      expr x;
      Buffer.add_char b ' ';
      Buffer.add_string b (L.Literal.cmp_symbol op);
      Buffer.add_char b ' ';
      expr y)
    c.cmps;
  Buffer.contents b

let variant_equal a b = String.equal (variant_key a) (variant_key b)

let rec pp ppf = function
  | Conj c -> pp_conj ppf c
  | Union qs ->
    Format.fprintf ppf "(%a)" (Format.pp_print_list ~pp_sep:(pp_sep " | ") pp) qs
  | Diff (a, b) -> Format.fprintf ppf "(%a EXCEPT %a)" pp a pp b
  | Distinct q -> Format.fprintf ppf "SETOF(%a)" pp q
  | Division (a, b) -> Format.fprintf ppf "(%a DIVIDE %a)" pp a pp b
  | Fixpoint f -> Format.fprintf ppf "FIX %s = (%a) UNION (%a)" f.name pp f.base pp f.step
  | Agg a ->
    Format.fprintf ppf "AGG[keys=%a; %a](%a)"
      (Format.pp_print_list ~pp_sep:(pp_sep ",") Format.pp_print_int)
      a.keys
      (Format.pp_print_list ~pp_sep:(pp_sep ",") (fun ppf sp ->
           Format.pp_print_string ppf (Braid_relalg.Aggregate.name_of_spec sp)))
      a.specs pp a.source

let to_string q = Format.asprintf "%a" pp q
