type t =
  | Null
  | Bool of bool
  | Num of string
  | Str of string
  | List of t list
  | Obj of (string * t) list

let int n = Num (string_of_int n)

let float ~decimals f =
  if Float.is_finite f then Num (Printf.sprintf "%.*f" decimals f) else Null

let add_string b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let non_empty_container = function List (_ :: _) | Obj (_ :: _) -> true | _ -> false

let rec add b ~compact ~indent = function
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Num s -> Buffer.add_string b s
  | Str s -> add_string b s
  | List xs -> add_container b ~compact ~indent ('[', ']') (List.map (fun x -> (None, x)) xs)
  | Obj kvs ->
    add_container b ~compact ~indent ('{', '}') (List.map (fun (k, x) -> (Some k, x)) kvs)

and add_container b ~compact ~indent (opening, closing) children =
  let broken = (not compact) && List.exists (fun (_, x) -> non_empty_container x) children in
  let newline indent =
    Buffer.add_char b '\n';
    Buffer.add_string b (String.make indent ' ')
  in
  Buffer.add_char b opening;
  List.iteri
    (fun i (key, x) ->
      if i > 0 then Buffer.add_string b (if compact || broken then "," else ", ");
      if broken then newline (indent + 2);
      Option.iter
        (fun k ->
          add_string b k;
          Buffer.add_string b (if compact then ":" else ": "))
        key;
      add b ~compact ~indent:(indent + 2) x)
    children;
  if broken then newline indent;
  Buffer.add_char b closing

let to_string ?(compact = false) v =
  let b = Buffer.create 256 in
  add b ~compact ~indent:0 v;
  Buffer.contents b
