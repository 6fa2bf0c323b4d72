type t =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
  | Null

type ty = Tint | Tfloat | Tstr | Tbool

let type_of = function
  | Int _ -> Some Tint
  | Float _ -> Some Tfloat
  | Str _ -> Some Tstr
  | Bool _ -> Some Tbool
  | Null -> None

(* Rank used only to order values of distinct kinds. *)
let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ | Float _ -> 2
  | Str _ -> 3

(* Comparison and hashing are on the join-probe hot path, so every arm uses
   the monomorphic primitive for its payload rather than [Stdlib.compare] /
   the generic hasher. *)

let compare a b =
  match a, b with
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | Str x, Str y -> String.compare x y
  | Bool x, Bool y -> Bool.compare x y
  | Null, Null -> 0
  | (Int _ | Float _ | Str _ | Bool _ | Null), _ -> Int.compare (rank a) (rank b)

let equal a b =
  match a, b with
  | Int x, Int y -> Int.equal x y
  | Str x, Str y -> String.equal x y
  | Bool x, Bool y -> Bool.equal x y
  | Null, Null -> true
  | _ -> compare a b = 0

(* Multiplicative avalanche over the raw int — no tuple boxing, no call into
   the generic hasher. *)
let hash_int x =
  let h = x * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land max_int

(* Past 2^53 an int is equal to the float it rounds to, and so must hash
   like it. *)
let rec hash = function
  | Int x ->
    if x > -0x20000000000000 && x < 0x20000000000000 then hash_int x
    else hash (Float (float_of_int x))
  | Float x ->
    (* Hash integral floats like the equal integer so that 2 and 2.0,
       which compare equal, also hash equal. *)
    if Float.is_integer x && Float.abs x < 1e18 then hash_int (int_of_float x)
    else Hashtbl.hash (1, x)
  | Str s -> Hashtbl.hash s
  | Bool b -> if b then 0x5bd1e995 else 0x2e375619
  | Null -> 0x11

let pp ppf = function
  | Int x -> Format.pp_print_int ppf x
  | Float x -> Format.fprintf ppf "%g" x
  | Str s -> Format.fprintf ppf "%S" s
  | Bool b -> Format.pp_print_bool ppf b
  | Null -> Format.pp_print_string ppf "null"

let to_string v = Format.asprintf "%a" pp v

(* The fewest significant digits that read back as [x]; then, where that
   needed an exponent, the same digits written out in full, since CAQL's
   lexer reads no exponents. Rounding at the same decimal position gives
   the same value, so the plain form reads back as [x] too. *)
let float_digits x =
  if not (Float.is_finite x) then Printf.sprintf "%g" x
  else begin
    let rec shortest p =
      let s = Printf.sprintf "%.*g" p x in
      if p >= 17 || Float.equal (float_of_string s) x then s else shortest (p + 1)
    in
    let s = shortest 1 in
    match String.index_opt s 'e' with
    | None -> s
    | Some i ->
      let mantissa = String.sub s 0 i in
      let exponent = int_of_string (String.sub s (i + 1) (String.length s - i - 1)) in
      let fraction =
        match String.index_opt mantissa '.' with
        | Some j -> String.length mantissa - j - 1
        | None -> 0
      in
      Printf.sprintf "%.*f" (max 0 (fraction - exponent)) x
  end

let add_to_buffer b = function
  | Int x -> Buffer.add_string b (string_of_int x)
  | Float x -> Buffer.add_string b (float_digits x)
  | Str s -> Printf.bprintf b "%S" s
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Null -> Buffer.add_string b "null"

let pp_ty ppf ty =
  Format.pp_print_string ppf
    (match ty with Tint -> "int" | Tfloat -> "float" | Tstr -> "str" | Tbool -> "bool")

let as_float = function
  | Int x -> Some (float_of_int x)
  | Float x -> Some x
  | Str _ | Bool _ | Null -> None

let arith f_int f_float a b =
  match a, b with
  | Int x, Int y -> (match f_int x y with Some z -> Int z | None -> Null)
  | (Int _ | Float _), (Int _ | Float _) ->
    (match as_float a, as_float b with
     | Some x, Some y -> (match f_float x y with Some z -> Float z | None -> Null)
     | _, _ -> Null)
  | (Str _ | Bool _ | Null), _ | _, (Str _ | Bool _ | Null) -> Null

let add = arith (fun x y -> Some (x + y)) (fun x y -> Some (x +. y))
let sub = arith (fun x y -> Some (x - y)) (fun x y -> Some (x -. y))
let mul = arith (fun x y -> Some (x * y)) (fun x y -> Some (x *. y))

let div =
  arith
    (fun x y -> if y = 0 then None else Some (x / y))
    (fun x y -> if y = 0.0 then None else Some (x /. y))
