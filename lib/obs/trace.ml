type arg =
  | Str of string
  | Int of int
  | Float of float
  | Bool of bool

type span = {
  id : int;
  parent : int option;
  name : string;
  cat : string;
  start_ts : int;
  mutable end_ts : int;
  mutable args : (string * arg) list;
  instant : bool;
}

type t = {
  limit : int;
  mutable completed : span list; (* newest first *)
  mutable n_completed : int;
  mutable n_dropped : int;
  mutable next_id : int;
  mutable clock : int;
  mutable stack : span list; (* open spans, innermost first *)
}

let create ?(limit = 500_000) () =
  {
    limit;
    completed = [];
    n_completed = 0;
    n_dropped = 0;
    next_id = 1;
    clock = 0;
    stack = [];
  }

let current : t option ref = ref None

let install t = current := Some t
let uninstall () = current := None
let installed () = !current
let enabled () = !current <> None

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let begin_span t ?(args = []) ~cat ~instant name =
  let id = t.next_id in
  t.next_id <- id + 1;
  let ts = tick t in
  {
    id;
    parent = (match t.stack with s :: _ -> Some s.id | [] -> None);
    name;
    cat;
    start_ts = ts;
    end_ts = ts;
    args;
    instant;
  }

let complete t span =
  if t.n_completed < t.limit then begin
    t.completed <- span :: t.completed;
    t.n_completed <- t.n_completed + 1
  end
  else t.n_dropped <- t.n_dropped + 1

let with_span ?args ~cat name f =
  match !current with
  | None -> f ()
  | Some t ->
    let span = begin_span t ?args ~cat ~instant:false name in
    t.stack <- span :: t.stack;
    let finish () =
      (match t.stack with
       | s :: rest when s == span -> t.stack <- rest
       | _ -> t.stack <- List.filter (fun s -> not (s == span)) t.stack);
      span.end_ts <- tick t;
      complete t span
    in
    (match f () with
     | result ->
       finish ();
       result
     | exception e ->
       span.args <- ("raised", Bool true) :: span.args;
       finish ();
       raise e)

let instant ?args ~cat name =
  match !current with
  | None -> ()
  | Some t -> complete t (begin_span t ?args ~cat ~instant:true name)

let add_arg key value =
  match !current with
  | None -> ()
  | Some t ->
    (match t.stack with
     | s :: _ -> s.args <- (key, value) :: s.args
     | [] -> ())

let spans t = List.rev t.completed
let span_count t = t.n_completed + t.n_dropped
let dropped t = t.n_dropped

(* --- export --- *)

let arg_to_json = function
  | Str s -> Json.Str s
  | Int n -> Json.int n
  | Float f -> if Float.is_finite f then Json.float ~decimals:3 f else Json.Str (Float.to_string f)
  | Bool b -> Json.Bool b

(* args are consed newest-first; keep the newest binding per key and emit
   in original (oldest-first) attachment order. *)
let dedup_args args =
  List.fold_left (fun acc (k, v) -> if List.mem_assoc k acc then acc else (k, v) :: acc) [] args

let args_to_json args = Json.Obj (List.map (fun (k, v) -> (k, arg_to_json v)) (dedup_args args))

let compact_lines span_json t = List.map (fun s -> Json.to_string ~compact:true (span_json s)) (spans t)

let to_jsonl t =
  let span_json s =
    Json.Obj
      [ ("id", Json.int s.id); ("parent", Option.fold ~none:Json.Null ~some:Json.int s.parent);
        ("name", Json.Str s.name); ("cat", Json.Str s.cat); ("start", Json.int s.start_ts);
        ("end", Json.int s.end_ts); ("instant", Json.Bool s.instant); ("args", args_to_json s.args) ]
  in
  String.concat "" (List.map (fun line -> line ^ "\n") (compact_lines span_json t))

let to_chrome t =
  let event s =
    let phase =
      if s.instant then [ ("ph", Json.Str "i"); ("s", Json.Str "t") ]
      else [ ("ph", Json.Str "X"); ("dur", Json.int (s.end_ts - s.start_ts)) ]
    in
    Json.Obj
      (phase
      @ [ ("name", Json.Str s.name); ("cat", Json.Str s.cat); ("pid", Json.int 1);
          ("tid", Json.int 1); ("ts", Json.int s.start_ts); ("args", args_to_json s.args) ])
  in
  (* the document framing stays literal so each event keeps its own line *)
  "{\"traceEvents\":[\n" ^ String.concat ",\n" (compact_lines event t) ^ "\n],\"displayTimeUnit\":\"ms\"}\n"

let write t path =
  let text = if String.ends_with ~suffix:".jsonl" path then to_jsonl t else to_chrome t in
  Out_channel.with_open_text path (fun oc -> output_string oc text)
