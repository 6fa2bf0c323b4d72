module A = Braid_caql.Ast
module Sub = Braid_subsume.Subsumption

type t = {
  advice : Ast.t;
  tracker : Tracker.t option;
  mutable keys : (Ast.view_spec * string) list; (* memo of [spec_key] *)
}

let create ?nfa (advice : Ast.t) =
  let tracker =
    match nfa with
    | Some nfa -> Some (Tracker.start nfa)
    | None -> Option.map (fun p -> Tracker.start (Tracker.compile p)) advice.Ast.path
  in
  { advice; tracker; keys = [] }

let no_advice () = create { Ast.specs = []; path = None }

let specs t = t.advice.Ast.specs
let find_spec t id = Ast.find_spec t.advice id

let identify t (q : A.conj) =
  List.find_opt (fun (s : Ast.view_spec) -> Sub.generalizes s.Ast.def q) t.advice.Ast.specs

let observe t id =
  match t.tracker with Some tr -> ignore (Tracker.advance tr id) | None -> ()

let predicted_next t =
  match t.tracker with
  | None -> []
  | Some tr -> List.filter_map (Ast.find_spec t.advice) (Tracker.next_possible tr)

let may_occur_later t id =
  match t.tracker with None -> true | Some tr -> Tracker.may_occur_later tr id

let expects_repetition t id = may_occur_later t id

let index_recommendation = Ast.consumer_positions

let recommend_lazy = Ast.producer_only

let should_cache_result t (s : Ast.view_spec) =
  not (Ast.producer_only s) || may_occur_later t s.Ast.id

let generalized (s : Ast.view_spec) = s.Ast.def

let spec_key t (s : Ast.view_spec) =
  match List.assq_opt s t.keys with
  | Some k -> k
  | None ->
    let k = A.variant_key s.Ast.def in
    t.keys <- (s, k) :: t.keys;
    k
