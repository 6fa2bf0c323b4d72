module L = Braid_logic
module RP = Braid_relalg.Row_pred

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

let uniq xs =
  let rec loop seen = function
    | [] -> List.rev seen
    | x :: rest -> loop (if List.mem x seen then seen else x :: seen) rest
  in
  loop [] xs

let cmp_vars (_, a, b) = L.Literal.expr_vars a @ L.Literal.expr_vars b

let body_vars c =
  uniq (List.concat_map L.Atom.vars c.atoms @ List.concat_map cmp_vars c.cmps)

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

let canonical c =
  let mapping = Hashtbl.create 8 in
  let counter = ref 0 in
  let f x =
    match Hashtbl.find_opt mapping x with
    | Some y -> y
    | None ->
      let y = Printf.sprintf "v%d" !counter in
      incr counter;
      Hashtbl.add mapping x y;
      y
  in
  rename_vars f c

let pp_sep s ppf () = Format.fprintf ppf "%s" s

let pp_cmp_lit ppf (op, a, b) = L.Literal.pp ppf (L.Literal.Cmp (op, a, b))

let pp_conj ppf c =
  Format.fprintf ppf "(%a) :- %a"
    (Format.pp_print_list ~pp_sep:(pp_sep ", ") L.Term.pp)
    c.head
    (Format.pp_print_list ~pp_sep:(pp_sep " & ") (fun ppf x -> x ppf))
    (List.map (fun a ppf -> L.Atom.pp ppf a) c.atoms
    @ List.map (fun cmp ppf -> pp_cmp_lit ppf cmp) c.cmps)

let conj_to_string c = Format.asprintf "%a" pp_conj c

let variant_key c = conj_to_string (canonical c)

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
