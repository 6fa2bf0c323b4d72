module A = Braid_caql.Ast
module L = Braid_logic

type binding =
  | Producer
  | Consumer

type view_spec = {
  id : string;
  def : A.conj;
  bindings : binding list;
  rule_ids : string list;
}

type repetition = { lo : int; hi : bound }

and bound =
  | Fin of int
  | Cardinality of string
  | Inf

type path =
  | Pattern of string * L.Term.t list
  | Seq of path list * repetition
  | Alt of path list * int option

type t = { specs : view_spec list; path : path option }

let spec ?(rule_ids = []) ~id ~bindings def =
  if List.length bindings <> List.length def.A.head then
    invalid_arg "Advice.Ast.spec: one binding annotation per head position required";
  { id; def; bindings; rule_ids }

let find_spec t id = List.find_opt (fun s -> String.equal s.id id) t.specs

let consumer_positions s =
  List.concat (List.mapi (fun i b -> if b = Consumer then [ i ] else []) s.bindings)

let producer_only s = List.for_all (fun b -> b = Producer) s.bindings

let pattern_ids p =
  let rec collect acc = function
    | Pattern (id, _) -> if List.mem id acc then acc else id :: acc
    | Seq (ps, _) | Alt (ps, _) -> List.fold_left collect acc ps
  in
  List.rev (collect [] p)

let binding_mark = function Producer -> "^" | Consumer -> "?"

let pp_sep s ppf () = Format.fprintf ppf "%s" s

let pp_view_spec ppf s =
  let param ppf (t, b) =
    match t with
    | L.Term.Var x -> Format.fprintf ppf "%s%s" x (binding_mark b)
    | L.Term.Const _ -> A.pp_term ppf t
  in
  Format.fprintf ppf "%s(%a) =def %a." s.id
    (Format.pp_print_list ~pp_sep:(pp_sep ", ") param)
    (List.combine s.def.A.head s.bindings)
    (Format.pp_print_list ~pp_sep:(pp_sep " & ") A.pp_literal)
    (List.map (fun a -> L.Literal.Rel a) s.def.A.atoms
    @ List.map (fun (op, a, b) -> L.Literal.Cmp (op, a, b)) s.def.A.cmps);
  match s.rule_ids with
  | [] -> ()
  | ids -> Format.fprintf ppf " %% %s" (String.concat "," ids)

let pp_bound ppf = function
  | Fin n -> Format.pp_print_int ppf n
  | Cardinality x -> Format.fprintf ppf "|%s|" x
  | Inf -> Format.pp_print_string ppf "*"

let rec pp_path ppf = function
  | Pattern (id, args) ->
    Format.fprintf ppf "%s(%a)" id (Format.pp_print_list ~pp_sep:(pp_sep ", ") A.pp_term) args
  | Seq (ps, { lo; hi }) ->
    Format.fprintf ppf "(%a)<%d,%a>"
      (Format.pp_print_list ~pp_sep:(pp_sep ", ") pp_path)
      ps lo pp_bound hi
  | Alt (ps, sel) ->
    Format.fprintf ppf "[%a]%s"
      (Format.pp_print_list ~pp_sep:(pp_sep ", ") pp_path)
      ps
      (match sel with Some k -> Printf.sprintf "^%d" k | None -> "")

let pp ppf t =
  let path ppf p = Format.fprintf ppf "path %a." pp_path p in
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list (fun ppf clause -> clause ppf))
    (List.map (fun s ppf -> pp_view_spec ppf s) t.specs
    @ Option.to_list (Option.map (fun p ppf -> path ppf p) t.path))
