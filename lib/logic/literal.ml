module V = Braid_relalg.Value
module RP = Braid_relalg.Row_pred

type expr =
  | Term of Term.t
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Div of expr * expr

type t =
  | Rel of Atom.t
  | Cmp of RP.cmp * expr * expr

let rel a = Rel a
let cmp c a b = Cmp (c, Term a, Term b)

let rec expr_vars = function
  | Term (Term.Var x) -> [ x ]
  | Term (Term.Const _) -> []
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) -> expr_vars a @ expr_vars b

let vars = function
  | Rel a -> Atom.vars a
  | Cmp (_, a, b) ->
    let rec uniq seen = function
      | [] -> List.rev seen
      | x :: rest -> uniq (if List.mem x seen then seen else x :: seen) rest
    in
    uniq [] (expr_vars a @ expr_vars b)

let rec expr_constants = function
  | Term (Term.Const v) -> [ v ]
  | Term (Term.Var _) -> []
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) -> expr_constants a @ expr_constants b

let constants = function
  | Rel a -> Atom.constants a
  | Cmp (_, a, b) -> expr_constants a @ expr_constants b

let rec apply_expr s = function
  | Term t -> Term (Subst.resolve s t)
  | Add (a, b) -> Add (apply_expr s a, apply_expr s b)
  | Sub (a, b) -> Sub (apply_expr s a, apply_expr s b)
  | Mul (a, b) -> Mul (apply_expr s a, apply_expr s b)
  | Div (a, b) -> Div (apply_expr s a, apply_expr s b)

let apply s = function
  | Rel a -> Rel (Subst.apply_atom s a)
  | Cmp (c, a, b) -> Cmp (c, apply_expr s a, apply_expr s b)

let rec eval_expr = function
  | Term (Term.Const v) -> Some v
  | Term (Term.Var _) -> None
  | Add (a, b) -> bin V.add a b
  | Sub (a, b) -> bin V.sub a b
  | Mul (a, b) -> bin V.mul a b
  | Div (a, b) -> bin V.div a b

and bin f a b =
  match eval_expr a, eval_expr b with
  | Some x, Some y -> Some (f x y)
  | None, _ | _, None -> None

let eval_cmp = function
  | Rel _ -> None
  | Cmp (c, a, b) ->
    (match eval_expr a, eval_expr b with
     | Some x, Some y -> Some (RP.cmp_holds c x y)
     | None, _ | _, None -> None)

let rec rename_expr f = function
  | Term (Term.Var x) -> Term (Term.Var (f x))
  | Term (Term.Const _) as e -> e
  | Add (a, b) -> Add (rename_expr f a, rename_expr f b)
  | Sub (a, b) -> Sub (rename_expr f a, rename_expr f b)
  | Mul (a, b) -> Mul (rename_expr f a, rename_expr f b)
  | Div (a, b) -> Div (rename_expr f a, rename_expr f b)

let rename f = function
  | Rel a -> Rel (Atom.rename f a)
  | Cmp (c, a, b) -> Cmp (c, rename_expr f a, rename_expr f b)

let cmp_symbol (c : RP.cmp) =
  match c with
  | RP.Eq -> "=" | RP.Ne -> "<>" | RP.Lt -> "<" | RP.Le -> "<=" | RP.Gt -> ">" | RP.Ge -> ">="

let pp_cmp ppf c = Format.pp_print_string ppf (cmp_symbol c)

let rec pp_expr ppf = function
  | Term t -> Term.pp ppf t
  | Add (a, b) -> Format.fprintf ppf "(%a + %a)" pp_expr a pp_expr b
  | Sub (a, b) -> Format.fprintf ppf "(%a - %a)" pp_expr a pp_expr b
  | Mul (a, b) -> Format.fprintf ppf "(%a * %a)" pp_expr a pp_expr b
  | Div (a, b) -> Format.fprintf ppf "(%a / %a)" pp_expr a pp_expr b

let pp ppf = function
  | Rel a -> Atom.pp ppf a
  | Cmp (c, a, b) -> Format.fprintf ppf "%a %a %a" pp_expr a pp_cmp c pp_expr b

let to_string l = Format.asprintf "%a" pp l
