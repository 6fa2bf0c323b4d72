module L = Braid_logic
module R = Braid_relalg
module TS = Braid_stream.Tuple_stream
module Qpo = Braid_planner.Qpo
module Server = Braid_remote.Server
module Catalog = Braid_remote.Catalog
module Obs = Braid_obs
module V = Braid_relalg.Value
module Adv = Braid_advice.Ast
module Form = Braid_subsume.Form
module Value_tbl = Hashtbl.Make (V)

(* What [solve] uses from the front end (extract, shape, advise): every
   field depends on the goal's form and, for the advice, on its constants. *)
type front_end = {
  advice : Adv.t;
  nfa : Braid_advice.Tracker.nfa option;
  spec_forms : Form.inst list option;
  orderings : (string * int list) list;
  skip_rules : string list;
  graph_size : Problem_graph.size;
  shaper_stats : Shaper.stats;
}

(* A front end compiled once for a goal form, with each class of equal
   constants replaced by a sentinel that occurs nowhere in the KB; and, on
   the form's first set-oriented goal, the set-oriented program compiled
   for that sentinel goal. *)
type template = {
  sentinels : V.t list;  (* one per class, in order of first occurrence *)
  goal : L.Atom.t;  (* the goal with its sentinels *)
  front : front_end;
  spec_forms : (Form.inst * bool) list option;
      (* per advice spec: its form, and whether its atoms hold a sentinel;
         [None] when the QPO is sent no advice *)
  consulted : (string * int) list;  (* catalog cardinalities the shaper read *)
  mutable set_program : Strategy.set_program option;
}

type form =
  | Template of template
  | Value_dependent  (* a condition mentions a goal constant: the shaper reads it *)

(* The KB's constants, by value and by their written forms. *)
type constants = { values : unit Value_tbl.t; printed : (string, unit) Hashtbl.t }

type compile =
  | Hit
  | Miss
  | Per_goal

type t = {
  kb : L.Kb.t;
  qpo : Qpo.t;
  strategy : Strategy.kind;
  max_depth : int;
  send_advice : bool;
  mutable total_resolutions : int;
  forms : (string, form) Hashtbl.t;
  mutable forms_generation : int;  (* the KB generation [forms] was built for *)
  mutable kb_constants : constants option;  (* rebuilt with [forms]; [None]: none *)
}

let create ?(strategy = Strategy.Interpretive) ?(max_depth = 50_000) ?(send_advice = true) kb
    qpo =
  {
    kb;
    qpo;
    strategy;
    max_depth;
    send_advice;
    total_resolutions = 0;
    forms = Hashtbl.create 16;
    forms_generation = -1;
    kb_constants = None;
  }

let kb t = t.kb
let qpo t = t.qpo

(* Whether the QPO is sent the advice: with [use_advice] off it would read
   none of it, so neither it nor the engine builds a tracker or spec forms. *)
let advised t = t.send_advice && (Qpo.config t.qpo).Qpo.use_advice
let strategy t = t.strategy

type report = {
  graph_size : Problem_graph.size;
  shaper_stats : Shaper.stats;
  advice : Braid_advice.Ast.t;
  counters : Strategy.counters;
}

let max_conj_size t =
  match t.strategy with
  | Strategy.Interpretive | Strategy.Adaptive -> 1
  | Strategy.Conjunction_compiled k -> k
  | Strategy.Set_oriented -> max_int

(* --- the front end: query translator, problem graph extractor, shaper,
   view specifier and path expression creator --- *)

let extract t query =
  Obs.Trace.with_span ~cat:"ie" "ie.extract" (fun () ->
      let graph = Problem_graph.extract t.kb query in
      let size = Problem_graph.size graph in
      Obs.Trace.add_arg "and_nodes" (Obs.Trace.Int size.Problem_graph.and_nodes);
      Obs.Trace.add_arg "or_nodes" (Obs.Trace.Int size.Problem_graph.or_nodes);
      graph)

let shape_and_advise t ~cardinality graph =
  let rules_before = Problem_graph.rule_ids graph in
  (* Problem graph shaper, fed by catalog statistics via the CMS. *)
  let shaper_stats =
    Obs.Trace.with_span ~cat:"ie" "ie.shape" (fun () ->
        Shaper.shape t.kb ~cardinality graph)
  in
  (* Rules the shaper proved useless (every instance culled) are never
     expanded by the strategy controller. *)
  let rules_after = Problem_graph.rule_ids graph in
  let skip_rules = List.filter (fun id -> not (List.mem id rules_after)) rules_before in
  (* View specifier + path expression creator. *)
  let advice =
    Obs.Trace.with_span ~cat:"ie" "ie.advice" (fun () ->
        let advice = Advice_gen.generate ~max_conj_size:(max_conj_size t) t.kb graph in
        Obs.Trace.add_arg "specs" (Obs.Trace.Int (List.length advice.Adv.specs));
        advice)
  in
  {
    advice;
    nfa = None;
    spec_forms = None;
    orderings = Shaper.rule_orderings graph;
    skip_rules;
    graph_size = Problem_graph.size graph;
    shaper_stats;
  }

let catalog t = Server.catalog (Qpo.server t.qpo)

let compile t query =
  shape_and_advise t ~cardinality:(Catalog.cardinality (catalog t)) (extract t query)

(* --- compiled once per goal form --- *)

(* Whether [v] is, or is written like, the constant [(c, printed c)]. Both
   matter: the extractor unifies by value, the view specifier matches
   literals by their printed form. *)
let clash v printed (c, p) = V.equal c v || String.equal p printed

(* The value table keeps every constant ([add], not [replace]): [V.equal]
   is not transitive past 2^53, and every constant equal to a value hashes
   alike, so [mem] finds one whenever a scan of the list would. *)
let constants_of consts =
  let c = { values = Value_tbl.create 16; printed = Hashtbl.create 16 } in
  List.iter
    (fun v ->
      Value_tbl.add c.values v ();
      Hashtbl.replace c.printed (V.to_string v) ())
    consts;
  c

(* [clash] against some KB constant. *)
let kb_clash t v printed =
  match t.kb_constants with
  | Some c -> Value_tbl.mem c.values v || Hashtbl.mem c.printed printed
  | None -> false

(* A goal's form: its predicate, its variables, and which positions hold
   constants of which equality class; with the classes' values in order.
   [None] when the compiled front end could depend on a constant's value:
   a constant the KB also mentions (unification or a mutex check against it
   can go either way), or two constants that are equal but written
   differently, or vice versa. *)
let form_of t (goal : L.Atom.t) =
  let key = Buffer.create 32 in
  Buffer.add_string key goal.L.Atom.pred;
  (* [classes]: one [(value, printed)] per class, newest first. *)
  let rec go classes = function
    | [] -> Some (Buffer.contents key, List.rev_map fst classes)
    | L.Term.Var x :: rest ->
      Printf.bprintf key " %S" x;
      go classes rest
    | L.Term.Const v :: rest ->
      let printed = V.to_string v in
      let n = List.length classes in
      if kb_clash t v printed then None
      else begin
        match List.find_index (clash v printed) classes with
        | None ->
          Printf.bprintf key " #%d" n;
          go ((v, printed) :: classes) rest
        | Some j ->
          let c, p = List.nth classes j in
          if V.equal c v && String.equal p printed then begin
            Printf.bprintf key " #%d" (n - 1 - j);
            go classes rest
          end
          else None
      end
  in
  go [] goal.L.Atom.args

let sentinel t i =
  let rec fresh s =
    let v = V.Str s in
    if kb_clash t v (V.to_string v) then fresh (s ^ "'") else v
  in
  fresh (Printf.sprintf "\000form%d" i)

(* The second of the first pair whose first equals [v]. *)
let swapped pairs v = Option.map snd (List.find_opt (fun (from, _) -> V.equal from v) pairs)

let swap pairs = function
  | L.Term.Const v as c -> (match swapped pairs v with Some into -> L.Term.Const into | None -> c)
  | L.Term.Var _ as x -> x

let swap_atom pairs (a : L.Atom.t) = { a with L.Atom.args = List.map (swap pairs) a.L.Atom.args }

(* Sentinels can only sit in the atoms of view specifications: spec heads
   and path patterns are parameter variables, and a spec's comparisons come
   from graph conditions, none of which mention a sentinel in a template.
   A spec's form is the template's with the sentinels' parameters set to
   the goal's values; a spec without a sentinel is the template's own. *)
let instantiate tpl values =
  let pairs = List.combine tpl.sentinels values in
  let f = tpl.front in
  if pairs = [] then f
  else
    match tpl.spec_forms with
    | None ->
      let swap_spec (s : Adv.view_spec) =
        let def = s.Adv.def in
        let atoms = List.map (swap_atom pairs) def.Braid_caql.Ast.atoms in
        { s with Adv.def = { def with Braid_caql.Ast.atoms } }
      in
      { f with advice = { f.advice with Adv.specs = List.map swap_spec f.advice.Adv.specs } }
    | Some spec_forms ->
      let specs, forms =
        List.split
          (List.map2
             (fun (s : Adv.view_spec) (form, mentions) ->
               if not mentions then (s, form)
               else
                 let form = Form.map_atom_consts form (swapped pairs) in
                 ({ s with Adv.def = form.Form.conj }, form))
             f.advice.Adv.specs spec_forms)
      in
      { f with advice = { f.advice with Adv.specs }; spec_forms = Some forms }

(* Whether a built-in condition of the extracted graph mentions a sentinel:
   the shaper would evaluate it, so the goal's value decides the outcome. *)
let condition_mentions sentinels (g : Problem_graph.t) =
  let sentinel v = List.exists (V.equal v) sentinels in
  let rec or_node (n : Problem_graph.or_node) = List.exists and_node n.Problem_graph.branches
  and and_node (b : Problem_graph.and_node) =
    List.exists
      (function
        | Problem_graph.Subgoal n -> or_node n
        | Problem_graph.Condition c -> List.exists sentinel (L.Literal.constants c))
      b.Problem_graph.children
  in
  or_node g.Problem_graph.root

(* Compile the form's template from the goal with its constants replaced by
   sentinels, recording the cardinalities the shaper consults. *)
let compile_template t key (goal : L.Atom.t) values =
  let sentinels = List.mapi (fun i _ -> sentinel t i) values in
  let goal = swap_atom (List.combine values sentinels) goal in
  let graph = extract t goal in
  if condition_mentions sentinels graph then begin
    Hashtbl.replace t.forms key Value_dependent;
    None
  end
  else begin
    let catalog = catalog t in
    let consulted = ref [] in
    let cardinality p =
      let c = Catalog.cardinality catalog p in
      if not (List.mem_assoc p !consulted) then consulted := (p, c) :: !consulted;
      c
    in
    let front = shape_and_advise t ~cardinality graph in
    let front, spec_forms =
      if not (advised t) then (front, None)
      else
        let sentinel = function
          | L.Term.Const v -> List.exists (V.equal v) sentinels
          | L.Term.Var _ -> false
        in
        let spec_forms =
          List.map
            (fun (s : Adv.view_spec) ->
              ( Form.of_conj s.Adv.def,
                List.exists
                  (fun (a : L.Atom.t) -> List.exists sentinel a.L.Atom.args)
                  s.Adv.def.Braid_caql.Ast.atoms ))
            front.advice.Adv.specs
        in
        ( {
            front with
            nfa = Option.map Braid_advice.Tracker.compile front.advice.Adv.path;
            spec_forms = Some (List.map fst spec_forms);
          },
          Some spec_forms )
    in
    let tpl =
      { sentinels; goal; front; spec_forms; consulted = !consulted; set_program = None }
    in
    Hashtbl.replace t.forms key (Template tpl);
    Some tpl
  end

(* The front end, how it was compiled, and for a template, the template
   and the goal's values for its sentinels. *)
let lookup t query =
  let generation = L.Kb.generation t.kb in
  if generation <> t.forms_generation then begin
    Hashtbl.reset t.forms;
    t.forms_generation <- generation;
    t.kb_constants <-
      (match L.Kb.constants t.kb with [] -> None | consts -> Some (constants_of consts))
  end;
  match form_of t query with
  | None -> (compile t query, Per_goal, None)
  | Some (key, values) ->
    (match Hashtbl.find_opt t.forms key with
     | Some Value_dependent -> (compile t query, Per_goal, None)
     | Some (Template tpl)
       when List.for_all
              (fun (p, c) -> Catalog.cardinality (catalog t) p = c)
              tpl.consulted ->
       (instantiate tpl values, Hit, Some (tpl, values))
     | Some (Template _) | None ->
       (match compile_template t key query values with
        | Some tpl -> (instantiate tpl values, Miss, Some (tpl, values))
        | None -> (compile t query, Per_goal, None)))

let front_end t query =
  let front, status, _ = lookup t query in
  (front, status)

(* The set-oriented program for the goal: the template's, compiled on the
   form's first set-oriented goal and then reused with the goal's values,
   or one compiled for this goal alone. *)
let set_program t front form query () =
  let compile goal params =
    Strategy.compile_set t.kb t.qpo ~orderings:front.orderings ~skip_rules:front.skip_rules
      ~params goal
  in
  match form with
  | None -> (compile query [], [])
  | Some (tpl, values) ->
    let program =
      match tpl.set_program with
      | Some p -> p
      | None ->
        let p = compile tpl.goal tpl.sentinels in
        tpl.set_program <- Some p;
        p
    in
    (program, values)

let compile_name = function Hit -> "hit" | Miss -> "miss" | Per_goal -> "per_goal"

(* The strategy's solutions and the report; the interpretive suites'
   inference happens as the stream is pulled. *)
let solutions t query =
  Obs.Metrics.incr "ie.queries";
  Obs.Trace.with_span ~cat:"ie" "ie.solve"
    ~args:
      (if Obs.Trace.enabled () then [ ("query", Obs.Trace.Str (L.Atom.to_string query)) ]
       else [])
    (fun () ->
      let front, status, form = lookup t query in
      Obs.Trace.add_arg "compile" (Obs.Trace.Str (compile_name status));
      if advised t then Qpo.set_advice ?nfa:front.nfa ?forms:front.spec_forms t.qpo front.advice
      else Qpo.set_advice t.qpo { Adv.specs = []; path = None };
      (* Inference strategy controller. *)
      let counters = { Strategy.resolutions = 0; db_goal_queries = 0 } in
      let solutions =
        Strategy.solutions t.strategy t.kb t.qpo ~orderings:front.orderings ~counters
          ~max_depth:t.max_depth ~skip_rules:front.skip_rules
          ~set_program:(set_program t front form query)
          query
      in
      ( solutions,
        {
          graph_size = front.graph_size;
          shaper_stats = front.shaper_stats;
          advice = front.advice;
          counters;
        } ))

(* Adds the inference the goal's counters gained since [last] to the
   engine's running total. *)
let account t counters last =
  let delta = counters.Strategy.resolutions - !last in
  t.total_resolutions <- t.total_resolutions + delta;
  if delta > 0 then Obs.Metrics.incr ~by:delta "ie.resolutions";
  last := counters.Strategy.resolutions

(* Accounts inference work as it happens: the stream's pulls update the
   engine's running total. *)
let counted t report stream =
  TS.from (TS.schema stream)
    (let cursor = TS.cursor stream in
     let last = ref 0 in
     fun () ->
       let r = TS.next cursor in
       account t report.counters last;
       r)

let solve t query =
  let solutions, report = solutions t query in
  match solutions with
  | Strategy.Lazily s -> (counted t report s, report)
  | Strategy.All r -> (counted t report (TS.of_relation r), report)

let solve_all t query =
  let solutions, report = solutions t query in
  match solutions with
  | Strategy.Lazily s -> (TS.to_relation (counted t report s), report)
  | Strategy.All r ->
    account t report.counters (ref 0);
    (r, report)

let solve_first t ?(n = 1) query =
  let stream, report = solve t query in
  let cursor = TS.cursor stream in
  let rec take k acc =
    if k = 0 then List.rev acc
    else
      match TS.next cursor with
      | Some tup -> take (k - 1) (tup :: acc)
      | None -> List.rev acc
  in
  (take n [], report)

let ie_ms t =
  let model = Server.cost_model (Qpo.server t.qpo) in
  model.Braid_remote.Cost_model.ie_resolution_ms *. float_of_int t.total_resolutions
