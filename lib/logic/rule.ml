type t = { id : string; head : Atom.t; body : Literal.t list }

let make ~id head body = { id; head; body }

let uniq xs =
  let rec loop seen = function
    | [] -> List.rev seen
    | x :: rest -> loop (if List.mem x seen then seen else x :: seen) rest
  in
  loop [] xs

let head_vars r = Atom.vars r.head
let body_vars r = uniq (List.concat_map Literal.vars r.body)
let vars r = uniq (head_vars r @ body_vars r)

let rename_apart k r =
  let f x = Printf.sprintf "%s_%d" x k in
  { r with head = Atom.rename f r.head; body = List.map (Literal.rename f) r.body }

let pp ppf r =
  if r.body = [] then Format.fprintf ppf "%s: %a." r.id Atom.pp r.head
  else
    Format.fprintf ppf "%s: %a <- %a." r.id Atom.pp r.head
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf " & ") Literal.pp)
      r.body

let to_string r = Format.asprintf "%a" pp r
