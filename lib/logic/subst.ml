module M = Map.Make (String)

type t = Term.t M.t

let empty = M.empty
let bind x t s = M.add x t s
let find x s = M.find_opt x s

let rec resolve s t =
  match t with
  | Term.Const _ -> t
  | Term.Var x ->
    (match M.find_opt x s with
     | None -> t
     | Some t' -> if Term.equal t t' then t else resolve s t')

let apply_atom s a = { a with Atom.args = List.map (resolve s) a.Atom.args }

let bindings s = M.bindings (M.map (resolve s) s)

let restrict vars s =
  M.fold
    (fun x t acc -> if List.mem x vars then M.add x (resolve s t) acc else acc)
    s M.empty

let pp ppf s =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       (fun ppf (x, t) -> Format.fprintf ppf "%s -> %a" x Term.pp t))
    (bindings s)
