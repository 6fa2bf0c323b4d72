(* The automaton under construction: states are numbered as they are
   made. *)
type graph = {
  mutable n : int;
  eps : (int, int list ref) Hashtbl.t;
  trans : (int, (string * int) list ref) Hashtbl.t;
}

(* A DFA state: a set of NFA states closed under epsilon edges, with what
   the tracker asks of it memoised. The memo arrays are indexed by label
   number ([nfa.labels]). *)
type dstate = {
  states : int array;  (* ascending *)
  interned : bool;  (* memo fields are written only on interned states *)
  final : bool;
  succ : step array;
  mutable next : string list option;  (* [next_possible], once computed *)
  later : later array;  (* [may_occur_later] *)
}

and step =
  | Unknown
  | Lost  (* the label is not expected here *)
  | To of dstate

and later =
  | Unasked
  | Yes
  | No

type nfa = {
  graph : graph;
  start_state : int;
  final_state : int;
  labels : (string, int) Hashtbl.t;  (* every spec id an edge carries, numbered *)
  reach : string list array Lazy.t;
      (* per state, the labels of every labeled edge reachable from it over
         epsilon and labeled edges; computed on first use *)
  dfa : (int array, dstate) Hashtbl.t;  (* the interned DFA states *)
  start_d : dstate Lazy.t;
  all_d : dstate Lazy.t;  (* every NFA state: where a lost tracker is *)
}

let new_state g =
  let s = g.n in
  g.n <- s + 1;
  s

let add_eps g a b =
  match Hashtbl.find_opt g.eps a with
  | Some cell -> cell := b :: !cell
  | None -> Hashtbl.replace g.eps a (ref [ b ])

let add_trans g a label b =
  match Hashtbl.find_opt g.trans a with
  | Some cell -> cell := (label, b) :: !cell
  | None -> Hashtbl.replace g.trans a (ref [ (label, b) ])

(* Build the fragment for [p]; returns (entry, exit). *)
let rec build g (p : Ast.path) =
  match p with
  | Ast.Pattern (id, _) ->
    let s = new_state g and f = new_state g in
    add_trans g s id f;
    (s, f)
  | Ast.Seq (ps, { Ast.lo; hi }) ->
    let s = new_state g and f = new_state g in
    let unit_entry, unit_exit =
      match ps with
      | [] ->
        let st = new_state g in
        (st, st)
      | first :: rest ->
        let s0, f0 = build g first in
        let fexit =
          List.fold_left
            (fun fprev p ->
              (* The IE may fail and backtrack mid-sequence: the tail of a
                 sequence is abandonable (§4.2.2's tracking example allows
                 "d1, d4, d1, ..."), so each junction can exit early. *)
              add_eps g fprev f;
              let s', f' = build g p in
              add_eps g fprev s';
              f')
            f0 rest
        in
        (s0, fexit)
    in
    add_eps g s unit_entry;
    add_eps g unit_exit f;
    if lo = 0 then add_eps g s f;
    let many = match hi with Ast.Fin k -> k > 1 | Ast.Cardinality _ | Ast.Inf -> true in
    if many then begin
      add_eps g unit_exit unit_entry;
      (* abandoned iterations may also restart the unit *)
      add_eps g f s
    end;
    (s, f)
  | Ast.Alt (ps, sel) ->
    let s = new_state g and f = new_state g in
    List.iter
      (fun p ->
        let s', f' = build g p in
        add_eps g s s';
        add_eps g f' f)
      ps;
    (* Selection term 1 means mutually exclusive members: exactly one per
       occurrence. Otherwise several members may appear in any order. *)
    (match sel with Some 1 -> () | Some _ | None -> add_eps g f s);
    (s, f)

let edges tbl s = match Hashtbl.find_opt tbl s with Some cell -> !cell | None -> []

let rec mem_label id = function
  | [] -> false
  | label :: rest -> String.equal label id || mem_label id rest

let reachable_labels g =
  Array.init g.n (fun s ->
      let visited = Array.make g.n false in
      let rec go labels = function
        | [] -> labels
        | s :: rest when visited.(s) -> go labels rest
        | s :: rest ->
          visited.(s) <- true;
          let labeled = edges g.trans s in
          let labels =
            List.fold_left
              (fun acc (label, _) -> if mem_label label acc then acc else label :: acc)
              labels labeled
          in
          go labels (edges g.eps s @ List.map snd labeled @ rest)
      in
      go [] [ s ])

let successors nfa s =
  let g = nfa.graph in
  List.map (fun dst -> (None, dst)) (edges g.eps s)
  @ List.map (fun (label, dst) -> (Some label, dst)) (edges g.trans s)

let nfa_states nfa = nfa.graph.n
let initial_state nfa = nfa.start_state
let final_state nfa = nfa.final_state

(* --- the DFA, built on demand --- *)

(* Subset construction grows with the states a session actually visits,
   a handful per path expression in practice; a path that reaches more
   keeps its first [max_dfa_states] and computes the others afresh on
   every step. *)
let max_dfa_states = 256

let dfa_states nfa = Hashtbl.length nfa.dfa

(* The epsilon closure of [from], ascending. *)
let closure g from =
  let mark = Array.make g.n false in
  let rec go = function
    | [] -> ()
    | s :: rest ->
      if mark.(s) then go rest
      else begin
        mark.(s) <- true;
        go (edges g.eps s @ rest)
      end
  in
  go from;
  let count = Array.fold_left (fun n b -> if b then n + 1 else n) 0 mark in
  let states = Array.make count 0 in
  let k = ref 0 in
  Array.iteri
    (fun s b ->
      if b then begin
        states.(!k) <- s;
        incr k
      end)
    mark;
  states

let dstate nfa states =
  match Hashtbl.find_opt nfa.dfa states with
  | Some d -> d
  | None ->
    let interned = Hashtbl.length nfa.dfa < max_dfa_states in
    let n = if interned then Hashtbl.length nfa.labels else 0 in
    let d =
      {
        states;
        interned;
        final = Array.mem nfa.final_state states;
        succ = Array.make n Unknown;
        next = None;
        later = Array.make n Unasked;
      }
    in
    if interned then Hashtbl.replace nfa.dfa states d;
    d

let compile p =
  let g = { n = 0; eps = Hashtbl.create 64; trans = Hashtbl.create 64 } in
  let s, f = build g p in
  let labels = Hashtbl.create 16 in
  Hashtbl.iter
    (fun _ cell ->
      List.iter
        (fun (l, _) ->
          if not (Hashtbl.mem labels l) then Hashtbl.replace labels l (Hashtbl.length labels))
        !cell)
    g.trans;
  let rec nfa =
    {
      graph = g;
      start_state = s;
      final_state = f;
      labels;
      reach = lazy (reachable_labels g);
      dfa = Hashtbl.create 16;
      start_d = lazy (dstate nfa (closure g [ s ]));
      all_d = lazy (dstate nfa (closure g (List.init g.n Fun.id)));
    }
  in
  nfa

(* The state after a query for [id], or [None] when no current state has
   an edge labeled with it. *)
let step nfa d id =
  match Hashtbl.find_opt nfa.labels id with
  | None -> None
  | Some k ->
    (match if d.interned then d.succ.(k) else Unknown with
     | To d' -> Some d'
     | Lost -> None
     | Unknown ->
       let targets =
         Array.fold_left
           (fun acc s ->
             List.fold_left
               (fun acc (label, dst) -> if String.equal label id then dst :: acc else acc)
               acc (edges nfa.graph.trans s))
           [] d.states
       in
       let r = if targets = [] then None else Some (dstate nfa (closure nfa.graph targets)) in
       if d.interned then begin
         match r with
         | Some d' -> if d'.interned then d.succ.(k) <- To d'
         | None -> d.succ.(k) <- Lost
       end;
       r)

type t = { nfa : nfa; mutable current : dstate; mutable lost_flag : bool }

let start nfa = { nfa; current = Lazy.force nfa.start_d; lost_flag = false }

let advance t id =
  match step t.nfa t.current id with
  | Some d ->
    t.current <- d;
    true
  | None ->
    t.lost_flag <- true;
    t.current <- Lazy.force t.nfa.all_d;
    false

let lost t = t.lost_flag

let next_possible t =
  let d = t.current in
  match d.next with
  | Some l -> l
  | None ->
    let l =
      Array.fold_left
        (fun acc s ->
          List.fold_left
            (fun acc (label, _) -> if mem_label label acc then acc else label :: acc)
            acc (edges t.nfa.graph.trans s))
        [] d.states
      |> List.rev
    in
    if d.interned then d.next <- Some l;
    l

let may_occur_later t id =
  let d = t.current in
  match Hashtbl.find_opt t.nfa.labels id with
  | None -> false
  | Some k ->
    (match if d.interned then d.later.(k) else Unasked with
     | Yes -> true
     | No -> false
     | Unasked ->
       let reach = Lazy.force t.nfa.reach in
       let b = Array.exists (fun s -> mem_label id reach.(s)) d.states in
       if d.interned then d.later.(k) <- (if b then Yes else No);
       b)

let states t = Array.to_list t.current.states

let finished t = t.current.final
