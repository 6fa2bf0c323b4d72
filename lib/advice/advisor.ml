module Form = Braid_subsume.Form
module Sub = Braid_subsume.Subsumption

type t = {
  advice : Ast.t;
  tracker : Tracker.t option;
  mutable forms : (Ast.view_spec * Form.inst) list; (* memo of [spec_form] *)
  mutable predicted : (Ast.view_spec list * string list) option;
      (* [predicted_next] and [keep] at the tracker's position *)
}

let create ?nfa ?forms (advice : Ast.t) =
  let tracker =
    match nfa with
    | Some nfa -> Some (Tracker.start nfa)
    | None -> Option.map (fun p -> Tracker.start (Tracker.compile p)) advice.Ast.path
  in
  let forms = match forms with Some fs -> List.combine advice.Ast.specs fs | None -> [] in
  { advice; tracker; forms; predicted = None }

let no_advice () = create { Ast.specs = []; path = None }

let specs t = t.advice.Ast.specs
let find_spec t id = Ast.find_spec t.advice id

let spec_form t (s : Ast.view_spec) =
  match List.assq_opt s t.forms with
  | Some f -> f
  | None ->
    let f = Form.of_conj s.Ast.def in
    t.forms <- (s, f) :: t.forms;
    f

let identify t (q : Form.inst) =
  List.find_opt (fun s -> Sub.subsumes ~def:(spec_form t s) q) t.advice.Ast.specs

let observe t id =
  match t.tracker with
  | Some tr ->
    ignore (Tracker.advance tr id);
    t.predicted <- None
  | None -> ()

let may_occur_later t id =
  match t.tracker with None -> true | Some tr -> Tracker.may_occur_later tr id

let predicted t =
  match t.predicted with
  | Some p -> p
  | None ->
    let next =
      match t.tracker with
      | None -> []
      | Some tr -> List.filter_map (Ast.find_spec t.advice) (Tracker.next_possible tr)
    in
    let keep =
      List.filter_map
        (fun (s : Ast.view_spec) -> if may_occur_later t s.Ast.id then Some s.Ast.id else None)
        next
    in
    t.predicted <- Some (next, keep);
    (next, keep)

let predicted_next t = fst (predicted t)
let keep t = snd (predicted t)

let expects_repetition t id = may_occur_later t id

let index_recommendation = Ast.consumer_positions

let recommend_lazy = Ast.producer_only

let should_cache_result t (s : Ast.view_spec) =
  not (Ast.producer_only s) || may_occur_later t s.Ast.id

let generalized (s : Ast.view_spec) = s.Ast.def

