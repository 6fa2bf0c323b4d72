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
let free_args ad args = List.filteri (fun i _ -> ad.[i] = 'f') args
let var_of = function L.Term.Var v -> Some v | L.Term.Const _ -> None

(* Whether [p] is [q] or its kept rules reach [q]. *)
let reaches kb ~skip q p =
  let seen = Hashtbl.create 8 in
  let rec go p =
    p = q
    || (not (Hashtbl.mem seen p))
       && (Hashtbl.replace seen p ();
           List.exists
             (fun (r : L.Rule.t) ->
               (not (Hashtbl.mem skip r.L.Rule.id))
               && List.exists
                    (function L.Literal.Rel a -> go a.L.Atom.pred | L.Literal.Cmp _ -> false)
                    r.L.Rule.body)
             (L.Kb.rules_for kb p))
  in
  go p

(* The right-linear case (Naughton, Ramakrishnan, Sagiv and Ullman, SIGMOD
   1989): [Some ids] names q's recursive rules when each kept rule of q is
   an exit rule (no body atom reaches q) or a right-linear one, and at
   least one is right-linear. Such a rule's one atom reaching q is q
   itself, last in the shaper's order, adorned [ad] again there, with
   every other literal before it in the magic rule emitted for it; and it
   passes each free head argument unchanged, a variable used nowhere
   else. The rows its exit rules give any binding in m$q$ad are then
   rows of the query. *)
let right_linear kb ~orderings ~skip q ad =
  let reaches_q = function
    | L.Literal.Rel a -> reaches kb ~skip q a.L.Atom.pred
    | L.Literal.Cmp _ -> false
  in
  let classify (r : L.Rule.t) =
    let head = r.L.Rule.head.L.Atom.args in
    match List.partition reaches_q r.L.Rule.body with
    | [], _ -> `Exit
    | [ L.Literal.Rel call ], rest
      when call.L.Atom.pred = q && List.length call.L.Atom.args = String.length ad ->
      let free = free_args ad head in
      let free_vars = List.filter_map var_of free in
      let head_bound = List.filter_map var_of (bound_args ad head) in
      (* at the call's bound positions a free variable fails [sip] *)
      let elsewhere = head_bound @ List.concat_map L.Literal.vars rest in
      let bound = Hashtbl.create 8 in
      List.iter (fun v -> Hashtbl.replace bound v ()) head_bound;
      (* sideways, as [transform] walks the body *)
      let rec sip = function
        | [ (L.Literal.Rel a as lit) ] when reaches_q lit -> adornment_of bound a.L.Atom.args = ad
        | (L.Literal.Cmp _ as c) :: more ->
          List.for_all (Hashtbl.mem bound) (L.Literal.vars c) && sip more
        | (L.Literal.Rel a as lit) :: more
          when (not (reaches_q lit))
               && (L.Kb.is_base kb a.L.Atom.pred || L.Kb.is_derived kb a.L.Atom.pred) ->
          List.iter (fun v -> Hashtbl.replace bound v ()) (L.Atom.vars a);
          sip more
        | _ -> false
      in
      if
        List.length free_vars = List.length free
        && List.equal L.Term.equal free (free_args ad call.L.Atom.args)
        && List.length (List.sort_uniq String.compare free_vars) = List.length free_vars
        && not (List.exists (fun v -> List.mem v elsewhere) free_vars)
        && sip (Shaper.reorder orderings r)
      then `Recursive
      else `Other
    | _ -> `Other
  in
  let kinds =
    List.filter_map
      (fun (r : L.Rule.t) ->
        if Hashtbl.mem skip r.L.Rule.id || List.length r.L.Rule.head.L.Atom.args <> String.length ad
        then None
        else Some (r.L.Rule.id, classify r))
      (L.Kb.rules_for kb q)
  in
  let recursive = List.filter_map (fun (id, k) -> if k = `Recursive then Some id else None) kinds in
  if recursive <> [] && List.for_all (fun (_, k) -> k <> `Other) kinds then Some recursive
  else None

let transform kb ?(orderings = []) ?(skip_rules = []) (query : L.Atom.t) =
  let qp = query.L.Atom.pred in
  let no_bound : (string, unit) Hashtbl.t = Hashtbl.create 1 in
  let ad0 = adornment_of no_bound query.L.Atom.args in
  if (not (L.Kb.is_derived kb qp)) || not (String.contains ad0 'b') then None
  else begin
    let skip = Hashtbl.create (max 4 (List.length skip_rules)) in
    List.iter (fun id -> Hashtbl.replace skip id ()) skip_rules;
    let rl =
      if String.contains ad0 'f' then right_linear kb ~orderings ~skip qp ad0 else None
    in
    let answers = adorned (adorned qp ad0) "rl" in
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
                        match List.rev !prefix with
                        | [ L.Literal.Rel a ] when L.Atom.equal a mhead ->
                          (* m(X) <- m(X) copies the demand onto itself: it derives nothing *)
                          ()
                        | body ->
                          add_rule
                            (L.Rule.make
                               ~id:(r.L.Rule.id ^ "$" ^ ad ^ "$m" ^ string_of_int !midx)
                               mhead body)
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
              match rl with
              | Some recursive when p = qp && ad = ad0 ->
                (* right-linear: a recursive rule adds no answer its call
                   does not; an exit rule answers every demanded binding *)
                if not (List.mem r.L.Rule.id recursive) then
                  add_rule
                    (L.Rule.make ~id:(r.L.Rule.id ^ "$" ^ ad ^ "$rl")
                       (L.Atom.make answers (free_args ad head.L.Atom.args))
                       (List.rev !new_body))
              | _ ->
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
    let query =
      match rl with
      | Some _ -> L.Atom.make answers (free_args ad0 query.L.Atom.args)
      | None -> { query with L.Atom.pred = adorned qp ad0 }
    in
    Some { kb = out; query; adornment = ad0 }
  end
