module A = Braid_caql.Ast
module L = Braid_logic

type t = {
  capacity_bytes : int;
  elements : (string, Element.t) Hashtbl.t;
  mutable order : string list; (* insertion order, newest first *)
  by_pred : (string, Element.t list ref) Hashtbl.t; (* oldest first *)
  by_key : (string, string list ref) Hashtbl.t; (* variant key -> ids, oldest first *)
  mutable clock : int;
  mutable counter : int;
}

let create ~capacity_bytes =
  {
    capacity_bytes;
    elements = Hashtbl.create 64;
    order = [];
    by_pred = Hashtbl.create 64;
    by_key = Hashtbl.create 64;
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

let def_preds (def : A.conj) =
  List.sort_uniq String.compare (List.map (fun a -> a.L.Atom.pred) def.A.atoms)

let add t (e : Element.t) =
  if Hashtbl.mem t.elements e.Element.id then
    invalid_arg ("Cache_model.add: duplicate element " ^ e.Element.id);
  Hashtbl.replace t.elements e.Element.id e;
  t.order <- e.Element.id :: t.order;
  List.iter
    (fun p ->
      match Hashtbl.find_opt t.by_pred p with
      | Some cell -> cell := !cell @ [ e ]
      | None -> Hashtbl.replace t.by_pred p (ref [ e ]))
    (def_preds e.Element.def);
  match Hashtbl.find_opt t.by_key e.Element.key with
  | Some cell -> cell := !cell @ [ e.Element.id ]
  | None -> Hashtbl.replace t.by_key e.Element.key (ref [ e.Element.id ])

let remove t id =
  match Hashtbl.find_opt t.elements id with
  | None -> ()
  | Some e ->
    let others = List.filter (fun x -> not (String.equal x id)) in
    Hashtbl.remove t.elements id;
    t.order <- others t.order;
    List.iter
      (fun p ->
        match Hashtbl.find_opt t.by_pred p with
        | Some cell -> cell := List.filter (fun (x : Element.t) -> x != e) !cell
        | None -> ())
      (def_preds e.Element.def);
    (match Hashtbl.find_opt t.by_key e.Element.key with
     | Some cell ->
       (match others !cell with
        | [] -> Hashtbl.remove t.by_key e.Element.key
        | ids -> cell := ids)
     | None -> ())

let find t id = Hashtbl.find_opt t.elements id

let find_variant t key =
  match Hashtbl.find_opt t.by_key key with
  | Some { contents = id :: _ } -> find t id
  | Some { contents = [] } | None -> None

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
