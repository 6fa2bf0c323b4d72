type nfa = {
  mutable n : int;
  eps : (int, int list ref) Hashtbl.t;
  trans : (int, (string * int) list ref) Hashtbl.t;
  start_state : int;
  final_state : int;
  reach : string list array Lazy.t;
      (* per state, the labels of every labeled edge reachable from it over
         epsilon and labeled edges; computed on first use, then shared by
         every tracker started on this NFA *)
}

let new_state nfa =
  let s = nfa.n in
  nfa.n <- s + 1;
  s

let add_eps nfa a b =
  match Hashtbl.find_opt nfa.eps a with
  | Some cell -> cell := b :: !cell
  | None -> Hashtbl.replace nfa.eps a (ref [ b ])

let add_trans nfa a label b =
  match Hashtbl.find_opt nfa.trans a with
  | Some cell -> cell := (label, b) :: !cell
  | None -> Hashtbl.replace nfa.trans a (ref [ (label, b) ])

(* Build the fragment for [p]; returns (entry, exit). *)
let rec build nfa (p : Ast.path) =
  match p with
  | Ast.Pattern (id, _) ->
    let s = new_state nfa and f = new_state nfa in
    add_trans nfa s id f;
    (s, f)
  | Ast.Seq (ps, { Ast.lo; hi }) ->
    let s = new_state nfa and f = new_state nfa in
    let unit_entry, unit_exit =
      match ps with
      | [] ->
        let st = new_state nfa in
        (st, st)
      | first :: rest ->
        let s0, f0 = build nfa first in
        let fexit =
          List.fold_left
            (fun fprev p ->
              (* The IE may fail and backtrack mid-sequence: the tail of a
                 sequence is abandonable (§4.2.2's tracking example allows
                 "d1, d4, d1, ..."), so each junction can exit early. *)
              add_eps nfa fprev f;
              let s', f' = build nfa p in
              add_eps nfa fprev s';
              f')
            f0 rest
        in
        (s0, fexit)
    in
    add_eps nfa s unit_entry;
    add_eps nfa unit_exit f;
    if lo = 0 then add_eps nfa s f;
    let many = match hi with Ast.Fin k -> k > 1 | Ast.Cardinality _ | Ast.Inf -> true in
    if many then begin
      add_eps nfa unit_exit unit_entry;
      (* abandoned iterations may also restart the unit *)
      add_eps nfa f s
    end;
    (s, f)
  | Ast.Alt (ps, sel) ->
    let s = new_state nfa and f = new_state nfa in
    List.iter
      (fun p ->
        let s', f' = build nfa p in
        add_eps nfa s s';
        add_eps nfa f' f)
      ps;
    (* Selection term 1 means mutually exclusive members: exactly one per
       occurrence. Otherwise several members may appear in any order. *)
    (match sel with Some 1 -> () | Some _ | None -> add_eps nfa f s);
    (s, f)

let edges tbl s = match Hashtbl.find_opt tbl s with Some cell -> !cell | None -> []

let rec mem_label id = function
  | [] -> false
  | label :: rest -> String.equal label id || mem_label id rest

let reachable_labels nfa =
  Array.init nfa.n (fun s ->
      let visited = Array.make nfa.n false in
      let rec go labels = function
        | [] -> labels
        | s :: rest when visited.(s) -> go labels rest
        | s :: rest ->
          visited.(s) <- true;
          let labeled = edges nfa.trans s in
          let labels =
            List.fold_left
              (fun acc (label, _) -> if mem_label label acc then acc else label :: acc)
              labels labeled
          in
          go labels (edges nfa.eps s @ List.map snd labeled @ rest)
      in
      go [] [ s ])

let compile p =
  let nfa =
    {
      n = 0;
      eps = Hashtbl.create 64;
      trans = Hashtbl.create 64;
      start_state = 0;
      final_state = 0;
      reach = lazy [||];
    }
  in
  let s, f = build nfa p in
  { nfa with start_state = s; final_state = f; reach = lazy (reachable_labels nfa) }

let successors nfa s =
  List.map (fun dst -> (None, dst)) (edges nfa.eps s)
  @ List.map (fun (label, dst) -> (Some label, dst)) (edges nfa.trans s)

module Int_set = Set.Make (Int)

let closure nfa states =
  let rec go acc = function
    | [] -> acc
    | s :: rest ->
      if Int_set.mem s acc then go acc rest
      else
        let acc = Int_set.add s acc in
        go acc (edges nfa.eps s @ rest)
  in
  go Int_set.empty states

type t = { nfa : nfa; mutable current : Int_set.t; mutable lost_flag : bool }

let all_states nfa = List.init nfa.n (fun i -> i)

let start nfa = { nfa; current = closure nfa [ nfa.start_state ]; lost_flag = false }

let advance t id =
  let targets =
    Int_set.fold
      (fun s acc ->
        match Hashtbl.find_opt t.nfa.trans s with
        | Some cell ->
          List.fold_left
            (fun acc (label, dst) -> if String.equal label id then dst :: acc else acc)
            acc !cell
        | None -> acc)
      t.current []
  in
  if targets = [] then begin
    t.lost_flag <- true;
    t.current <- closure t.nfa (all_states t.nfa);
    false
  end
  else begin
    t.current <- closure t.nfa targets;
    true
  end

let lost t = t.lost_flag

let next_possible t =
  Int_set.fold
    (fun s acc ->
      match Hashtbl.find_opt t.nfa.trans s with
      | Some cell ->
        List.fold_left (fun acc (label, _) -> if mem_label label acc then acc else label :: acc) acc !cell
      | None -> acc)
    t.current []
  |> List.rev

let may_occur_later t id =
  let reach = Lazy.force t.nfa.reach in
  Int_set.exists (fun s -> mem_label id reach.(s)) t.current

let states t = Int_set.elements t.current

let finished t = Int_set.mem t.nfa.final_state t.current
