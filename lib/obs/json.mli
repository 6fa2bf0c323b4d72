(** JSON values and their one printer.

    Every JSON file the system writes — span traces ({!Trace.to_jsonl},
    {!Trace.to_chrome}) and the benchmark snapshot — is built as a {!t}
    and printed by {!to_string}, so escaping, separators and layout live
    here and nowhere else. There is no parser. *)

type t =
  | Null
  | Bool of bool
  | Num of string  (** printed verbatim: the caller fixes the precision *)
  | Str of string
  | List of t list
  | Obj of (string * t) list  (** members print in list order *)

val int : int -> t

val float : decimals:int -> float -> t
(** [float ~decimals f] prints [f] with exactly [decimals] digits after the
    point, as [%.*f] does; {!Null} when [f] is NaN or infinite, which JSON
    cannot represent. *)

val to_string : ?compact:bool -> t -> string
(** The text of a value, with no trailing newline.

    [~compact:true] prints no whitespace at all: [{"a":1,"b":[true,null]}].

    Otherwise (the default) separators are [": "] and [", "], and a
    container is broken one child per line, indented two spaces per level,
    exactly when one of its children is a non-empty container. A container
    of scalars (a benchmark row) stays on one line:
    {v
{
  "suite": "relalg",
  "rows": [
    {"label": "a", "n": 1},
    {"label": "b", "n": 2}
  ],
  "empty": []
}
    v}

    Strings escape the double quote, the backslash, newline, tab and
    carriage return as two-character escapes and every other byte below
    [0x20] as a six-character [u00XX] escape; all other bytes are copied
    unchanged. *)
