module V = Braid_relalg.Value

type t =
  | Var of string
  | Const of V.t

let int n = Const (V.Int n)
let is_var = function Var _ -> true | Const _ -> false
let is_const t = not (is_var t)

let equal a b =
  match a, b with
  | Var x, Var y -> String.equal x y
  | Const u, Const v -> V.equal u v
  | Var _, Const _ | Const _, Var _ -> false

let compare a b =
  match a, b with
  | Var x, Var y -> String.compare x y
  | Const u, Const v -> V.compare u v
  | Var _, Const _ -> -1
  | Const _, Var _ -> 1

let pp ppf = function
  | Var x -> Format.pp_print_string ppf x
  | Const v -> V.pp ppf v

let to_string t = Format.asprintf "%a" pp t
