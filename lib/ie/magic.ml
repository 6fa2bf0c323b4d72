module L = Braid_logic

type t = {
  kb : L.Kb.t;
  query : L.Atom.t;
  adornment : string;
}

let magic_prefix = "m$"

let is_magic p =
  String.length p > String.length magic_prefix
  && String.sub p 0 (String.length magic_prefix) = magic_prefix

let adorned p ad = p ^ "$" ^ ad
let magic_name p ad = magic_prefix ^ p ^ "$" ^ ad

let adornment_of bound args =
  String.concat ""
    (List.map
       (function
         | L.Term.Const _ -> "b"
         | L.Term.Var v -> if Hashtbl.mem bound v then "b" else "f")
       args)

let bound_args ad args = List.filteri (fun i _ -> ad.[i] = 'b') args

let transform kb ?(orderings = []) ?(skip_rules = []) (query : L.Atom.t) =
  let qp = query.L.Atom.pred in
  let no_bound : (string, unit) Hashtbl.t = Hashtbl.create 1 in
  let ad0 = adornment_of no_bound query.L.Atom.args in
  if (not (L.Kb.is_derived kb qp)) || not (String.contains ad0 'b') then None
  else begin
    let skip = Hashtbl.create (max 4 (List.length skip_rules)) in
    List.iter (fun id -> Hashtbl.replace skip id ()) skip_rules;
    let out = L.Kb.create () in
    let declared = Hashtbl.create 16 in
    let declare_base p =
      if not (Hashtbl.mem declared p) then begin
        Hashtbl.replace declared p ();
        match L.Kb.base_arity kb p with
        | Some arity -> L.Kb.declare_base out p ~arity
        | None -> ()
      end
    in
    let rules = ref [] in
    let add_rule r = rules := r :: !rules in
    let seen = Hashtbl.create 16 in
    let queue = Queue.create () in
    Queue.add (qp, ad0) queue;
    while not (Queue.is_empty queue) do
      let p, ad = Queue.pop queue in
      if not (Hashtbl.mem seen (p, ad)) then begin
        Hashtbl.replace seen (p, ad) ();
        let has_magic = String.contains ad 'b' in
        List.iter
          (fun (r : L.Rule.t) ->
            let head = r.L.Rule.head in
            if
              (not (Hashtbl.mem skip r.L.Rule.id))
              && List.length head.L.Atom.args = String.length ad
            then begin
              (* head variables at bound positions are bound by the magic
                 guard; sideways information passing then walks the body
                 in the shaper's cheapest-first order, so bindings flow
                 exactly as the strategy controller would evaluate it. *)
              let bound = Hashtbl.create 8 in
              List.iteri
                (fun i arg ->
                  if ad.[i] = 'b' then
                    match arg with
                    | L.Term.Var v -> Hashtbl.replace bound v ()
                    | L.Term.Const _ -> ())
                head.L.Atom.args;
              let magic_guard =
                if has_magic then
                  [ L.Literal.Rel
                      (L.Atom.make (magic_name p ad) (bound_args ad head.L.Atom.args)) ]
                else []
              in
              (* both accumulated in reverse *)
              let prefix = ref magic_guard in
              let new_body = ref magic_guard in
              let midx = ref 0 in
              let prefix_vars () =
                List.concat_map
                  (function L.Literal.Rel a -> L.Atom.vars a | L.Literal.Cmp _ -> [])
                  !prefix
              in
              List.iter
                (fun lit ->
                  match lit with
                  | L.Literal.Cmp _ ->
                    new_body := lit :: !new_body;
                    (* a comparison joins a magic-rule body only when its
                       variables are bound there (range restriction) *)
                    let pv = prefix_vars () in
                    if List.for_all (fun v -> List.mem v pv) (L.Literal.vars lit) then
                      prefix := lit :: !prefix
                  | L.Literal.Rel a ->
                    let pa = a.L.Atom.pred in
                    if L.Kb.is_base kb pa then begin
                      declare_base pa;
                      new_body := lit :: !new_body;
                      prefix := lit :: !prefix;
                      List.iter (fun v -> Hashtbl.replace bound v ()) (L.Atom.vars a)
                    end
                    else if L.Kb.is_derived kb pa then begin
                      let ad_a = adornment_of bound a.L.Atom.args in
                      if String.contains ad_a 'b' then begin
                        incr midx;
                        let mhead =
                          L.Atom.make (magic_name pa ad_a) (bound_args ad_a a.L.Atom.args)
                        in
                        add_rule
                          (L.Rule.make
                             ~id:(r.L.Rule.id ^ "$" ^ ad ^ "$m" ^ string_of_int !midx)
                             mhead (List.rev !prefix))
                      end;
                      Queue.add (pa, ad_a) queue;
                      let a' = { a with L.Atom.pred = adorned pa ad_a } in
                      new_body := L.Literal.Rel a' :: !new_body;
                      prefix := L.Literal.Rel a' :: !prefix;
                      List.iter (fun v -> Hashtbl.replace bound v ()) (L.Atom.vars a)
                    end
                    else
                      (* neither base nor derived: keep — it Prolog-fails *)
                      new_body := lit :: !new_body)
                (Shaper.reorder orderings r);
              add_rule
                (L.Rule.make ~id:(r.L.Rule.id ^ "$" ^ ad)
                   { head with L.Atom.pred = adorned p ad }
                   (List.rev !new_body))
            end)
          (L.Kb.rules_for kb p)
      end
    done;
    (* the demand seed: the query's own constants *)
    add_rule
      (L.Rule.make ~id:"m$seed"
         (L.Atom.make (magic_name qp ad0) (bound_args ad0 query.L.Atom.args))
         []);
    List.iter (L.Kb.add_rule out) (List.rev !rules);
    Some
      { kb = out; query = { query with L.Atom.pred = adorned qp ad0 }; adornment = ad0 }
  end
