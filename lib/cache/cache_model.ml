module V = Braid_relalg.Value
module Form = Braid_subsume.Form
module Sub = Braid_subsume.Subsumption

(* An element's definition form and its atom constants, the first
   [atom_params] of its parameters: what an exact hit and every cover
   lookup know of the elements they want. Constants compare by
   [Value.equal], never by their printed form. *)
module Form_key = Hashtbl.Make (struct
  type t = Form.t * V.t array

  let equal ((f : Form.t), a) (g, b) =
    Form.equal f g
    &&
    let n = f.Form.atom_params in
    let rec go i = i = n || (V.equal a.(i) b.(i) && go (i + 1)) in
    go 0

  let hash ((f : Form.t), a) =
    let h = ref f.Form.hash in
    for i = 0 to f.Form.atom_params - 1 do
      h := (!h * 31) + V.hash a.(i)
    done;
    !h land max_int
end)

type t = {
  capacity_bytes : int;
  elements : (string, Element.t) Hashtbl.t;
  mutable order : string list; (* insertion order, newest first *)
  by_pred : (string, Element.t list ref) Hashtbl.t; (* oldest first *)
  by_form : Element.t list ref Form_key.t; (* oldest first *)
  forms : (string, Form.t * int ref) Hashtbl.t;
      (* the definition forms with elements, by key, and how many *)
  mutable forms_gen : int; (* bumped when a form gains its first element *)
  compatible : (int, int * (Form.t * Sub.plan) list) Hashtbl.t;
      (* query form id -> [forms_gen] and the plans of the forms that can
         cover it *)
  mutable seq : int;
  mutable clock : int;
  mutable counter : int;
}

let create ~capacity_bytes =
  {
    capacity_bytes;
    elements = Hashtbl.create 64;
    order = [];
    by_pred = Hashtbl.create 64;
    by_form = Form_key.create 64;
    forms = Hashtbl.create 16;
    forms_gen = 0;
    compatible = Hashtbl.create 16;
    seq = 0;
    clock = 0;
    counter = 0;
  }

let capacity_bytes t = t.capacity_bytes

let used_bytes t =
  Hashtbl.fold (fun _ e acc -> acc + Element.bytes_estimate e) t.elements 0

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let now t = t.clock

let form_key (e : Element.t) = (e.Element.inst.Form.form, e.Element.inst.Form.consts)

let add t (e : Element.t) =
  if Hashtbl.mem t.elements e.Element.id then
    invalid_arg ("Cache_model.add: duplicate element " ^ e.Element.id);
  Hashtbl.replace t.elements e.Element.id e;
  t.order <- e.Element.id :: t.order;
  t.seq <- t.seq + 1;
  e.Element.seq <- t.seq;
  List.iter
    (fun p ->
      match Hashtbl.find_opt t.by_pred p with
      | Some cell -> cell := !cell @ [ e ]
      | None -> Hashtbl.replace t.by_pred p (ref [ e ]))
    e.Element.inst.Form.form.Form.preds;
  (match Form_key.find_opt t.by_form (form_key e) with
   | Some cell -> cell := !cell @ [ e ]
   | None -> Form_key.replace t.by_form (form_key e) (ref [ e ]));
  let form = e.Element.inst.Form.form in
  match Hashtbl.find_opt t.forms form.Form.key with
  | Some (_, count) -> incr count
  | None ->
    Hashtbl.replace t.forms form.Form.key (form, ref 1);
    t.forms_gen <- t.forms_gen + 1

let remove t id =
  match Hashtbl.find_opt t.elements id with
  | None -> ()
  | Some e ->
    Hashtbl.remove t.elements id;
    t.order <- List.filter (fun x -> not (String.equal x id)) t.order;
    List.iter
      (fun p ->
        match Hashtbl.find_opt t.by_pred p with
        | Some cell -> cell := List.filter (fun (x : Element.t) -> x != e) !cell
        | None -> ())
      e.Element.inst.Form.form.Form.preds;
    (match Form_key.find_opt t.by_form (form_key e) with
     | Some cell ->
       (match List.filter (fun (x : Element.t) -> x != e) !cell with
        | [] -> Form_key.remove t.by_form (form_key e)
        | rest -> cell := rest)
     | None -> ());
    (* A form that lost its last element stays in the [compatible] lists
       it is on; their lookups just find nothing until it returns. *)
    let key = e.Element.inst.Form.form.Form.key in
    match Hashtbl.find_opt t.forms key with
    | Some (_, count) ->
      decr count;
      if !count = 0 then Hashtbl.remove t.forms key
    | None -> ()

let find t id = Hashtbl.find_opt t.elements id

let find_variant t (q : Form.inst) =
  match Form_key.find_opt t.by_form (q.Form.form, q.Form.consts) with
  | Some cell -> List.find_opt (fun (e : Element.t) -> Form.same e.Element.inst q) !cell
  | None -> None

(* One entry per query form a workload issues, which its program fixes:
   16 forms in all in telecom_session, fewer in the other perfbench
   workloads. Starting over only costs recomputing the lists. *)
let max_compatible = 256

let compatible t (qf : Form.t) =
  match Hashtbl.find_opt t.compatible qf.Form.id with
  | Some (gen, plans) when gen = t.forms_gen -> plans
  | Some _ | None ->
    let plans =
      Hashtbl.fold
        (fun _ (df, _) acc ->
          let p = Sub.plan ~query:qf ~def:df in
          if Sub.assignments p = [] then acc else (df, p) :: acc)
        t.forms []
    in
    if Hashtbl.length t.compatible >= max_compatible then Hashtbl.reset t.compatible;
    Hashtbl.replace t.compatible qf.Form.id (t.forms_gen, plans);
    plans

(* Candidate order: the query's predicates sorted, each predicate's
   elements oldest first, an element at its first predicate; then the
   element's covers in search order. *)
let before (r, s, i, _, _) (r', s', i', _, _) =
  if r <> r' then Int.compare r r' else if s <> s' then Int.compare s s' else Int.compare i i'

let covers t (q : Form.inst) =
  let found = ref [] in
  List.iter
    (fun (df, plan) ->
      let rank = Sub.rank plan in
      List.iteri
        (fun i a ->
          if Sub.holds a q then
            match Form_key.find_opt t.by_form (df, Sub.def_key a q) with
            | Some cell ->
              List.iter
                (fun (e : Element.t) ->
                  match Sub.cover a q ~id:e.Element.id e.Element.inst with
                  | Some c -> found := (rank, e.Element.seq, i, e, c) :: !found
                  | None -> ())
                !cell
            | None -> ())
        (Sub.assignments plan))
    (compatible t q.Form.form);
  match !found with
  | [] -> []
  | [ (_, _, _, e, c) ] -> [ (e, c) ]
  | found ->
    List.rev
      (List.fold_left
         (fun acc (_, _, _, e, c) ->
           if List.exists (fun (e', c') -> e' == e && Sub.same_cover c c') acc then acc
           else (e, c) :: acc)
         []
         (List.sort before found))

let elements t = List.rev t.order |> List.filter_map (find t)

let candidates_for_pred t p =
  match Hashtbl.find_opt t.by_pred p with Some cell -> !cell | None -> []

let touch t (e : Element.t) =
  e.Element.hits <- e.Element.hits + 1;
  e.Element.last_used <- tick t

let fresh_id t =
  t.counter <- t.counter + 1;
  Printf.sprintf "e%d" t.counter

let restore t ~counter ~clock =
  t.counter <- max t.counter counter;
  t.clock <- max t.clock clock

type summary = {
  element_count : int;
  materialized : int;
  generators : int;
  total_bytes : int;
  total_hits : int;
}

let summary t =
  Hashtbl.fold
    (fun _ e acc ->
      {
        element_count = acc.element_count + 1;
        materialized = (acc.materialized + if Element.is_materialized e then 1 else 0);
        generators = (acc.generators + if Element.is_materialized e then 0 else 1);
        total_bytes = acc.total_bytes + Element.bytes_estimate e;
        total_hits = acc.total_hits + e.Element.hits;
      })
    t.elements
    { element_count = 0; materialized = 0; generators = 0; total_bytes = 0; total_hits = 0 }
