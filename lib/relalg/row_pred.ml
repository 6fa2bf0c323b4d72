type operand =
  | Col of int
  | Lit of Value.t
  | Add of operand * operand
  | Sub of operand * operand
  | Mul of operand * operand
  | Div of operand * operand

type cmp = Eq | Ne | Lt | Le | Gt | Ge

module Value_tbl = Hashtbl.Make (Value)

(* [Value.equal]/[Value.hash] agree with [Value.compare = 0] except across
   int and float beyond 2^53, where [float_of_int] rounds: [Int (2^53 + 1)]
   compares equal to [Float 2^53] but hashes apart from it. Numeric members
   that large are also kept in [wide] and matched by [Value.compare], so
   membership is exactly the [Or] of [Eq] compares it replaces. [values] is
   the caller's list, kept for printing. *)
type value_set = { members : unit Value_tbl.t; wide : Value.t list; values : Value.t list }

type t =
  | True
  | False
  | Cmp of cmp * operand * operand
  | And of t list
  | Or of t list
  | Not of t
  | In of operand * value_set

let rec eval_operand op t =
  match op with
  | Col i -> Tuple.get t i
  | Lit v -> v
  | Add (a, b) -> Value.add (eval_operand a t) (eval_operand b t)
  | Sub (a, b) -> Value.sub (eval_operand a t) (eval_operand b t)
  | Mul (a, b) -> Value.mul (eval_operand a t) (eval_operand b t)
  | Div (a, b) -> Value.div (eval_operand a t) (eval_operand b t)

let cmp_holds c a b =
  let k = Value.compare a b in
  match c with
  | Eq -> k = 0
  | Ne -> k <> 0
  | Lt -> k < 0
  | Le -> k <= 0
  | Gt -> k > 0
  | Ge -> k >= 0

let two_53 = 9007199254740992.

let is_wide = function
  | Value.Float f -> Float.abs f >= two_53
  | Value.Int x -> Float.abs (float_of_int x) >= two_53
  | Value.Str _ | Value.Bool _ | Value.Null -> false

let value_set values =
  let members = Value_tbl.create (2 * List.length values) in
  List.iter (fun v -> Value_tbl.replace members v ()) values;
  { members; wide = List.filter is_wide values; values }

let mem s v =
  Value_tbl.mem s.members v
  || (s.wide <> [] && List.exists (fun w -> Value.compare v w = 0) s.wide)

let one_of a = function [] -> False | values -> In (a, value_set values)

let has_wide values = List.exists is_wide values

(* A strictly increasing list is already one value per class: [float_of_int]
   is monotone, so [a < b < c] rules out [Value.equal a c]. That is the
   shape [Sql.with_semijoins] ships, and it needs no hashing. *)
let rec strictly_increasing = function
  | a :: (b :: _ as rest) -> Value.compare a b < 0 && strictly_increasing rest
  | [] | [ _ ] -> true

let distinct_members values =
  if strictly_increasing values then values
  else
    let seen = Value_tbl.create (2 * List.length values) in
    List.filter
      (fun v ->
        (not (Value_tbl.mem seen v))
        && (Value_tbl.replace seen v ();
            true))
      values

let rec eval p t =
  match p with
  | True -> true
  | False -> false
  | Cmp (c, a, b) -> cmp_holds c (eval_operand a t) (eval_operand b t)
  | And ps -> List.for_all (fun p -> eval p t) ps
  | Or ps -> List.exists (fun p -> eval p t) ps
  | Not p -> not (eval p t)
  | In (a, s) -> mem s (eval_operand a t)

(* Matches rather than [=]: an [In]'s hash set is not for structural
   comparison. *)
let conj ps =
  let ps = List.filter (function True -> false | _ -> true) ps in
  if List.exists (function False -> true | _ -> false) ps then False
  else match ps with [] -> True | [ p ] -> p | ps -> And ps

let rec shift_operand k = function
  | Col i -> Col (i + k)
  | Lit v -> Lit v
  | Add (a, b) -> Add (shift_operand k a, shift_operand k b)
  | Sub (a, b) -> Sub (shift_operand k a, shift_operand k b)
  | Mul (a, b) -> Mul (shift_operand k a, shift_operand k b)
  | Div (a, b) -> Div (shift_operand k a, shift_operand k b)

let rec shift k = function
  | True -> True
  | False -> False
  | Cmp (c, a, b) -> Cmp (c, shift_operand k a, shift_operand k b)
  | And ps -> And (List.map (shift k) ps)
  | Or ps -> Or (List.map (shift k) ps)
  | Not p -> Not (shift k p)
  | In (a, s) -> In (shift_operand k a, s)

let pp_cmp ppf c =
  Format.pp_print_string ppf
    (match c with Eq -> "=" | Ne -> "<>" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">=")

let rec pp_operand ppf = function
  | Col i -> Format.fprintf ppf "#%d" i
  | Lit v -> Value.pp ppf v
  | Add (a, b) -> Format.fprintf ppf "(%a + %a)" pp_operand a pp_operand b
  | Sub (a, b) -> Format.fprintf ppf "(%a - %a)" pp_operand a pp_operand b
  | Mul (a, b) -> Format.fprintf ppf "(%a * %a)" pp_operand a pp_operand b
  | Div (a, b) -> Format.fprintf ppf "(%a / %a)" pp_operand a pp_operand b

let rec pp ppf = function
  | True -> Format.pp_print_string ppf "true"
  | False -> Format.pp_print_string ppf "false"
  | Cmp (c, a, b) -> Format.fprintf ppf "%a %a %a" pp_operand a pp_cmp c pp_operand b
  | And ps ->
    Format.fprintf ppf "(%a)"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf " and ") pp)
      ps
  | Or ps ->
    Format.fprintf ppf "(%a)"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf " or ") pp)
      ps
  | Not p -> Format.fprintf ppf "not %a" pp p
  | In (a, s) ->
    Format.fprintf ppf "%a in (%a)" pp_operand a
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") Value.pp)
      s.values
