module L = Braid_logic
module G = Grammar

exception Error = Grammar.Error

(* Head terms may be aggregate applications: count(X), sum(X), avg(X),
   min(X), max(X) — CAQL's AGG second-order predicate. *)
type head_term =
  | Plain of L.Term.t
  | Agg_of of string * L.Term.t

let agg_names = [ "count"; "sum"; "avg"; "min"; "max" ]

let head_term st =
  match G.peek st, G.peek2 st with
  | G.Tident f, G.Tlparen when List.mem f agg_names ->
    G.advance st;
    G.advance st;
    let arg = G.term st in
    G.expect st G.Trparen "')'";
    Agg_of (f, arg)
  | _ -> Plain (G.term st)

let clause_of st =
  (* optional SETOF marker *)
  let distinct =
    match G.peek st, G.peek2 st with
    | G.Tident "distinct", G.Tident _ -> G.advance st; true
    | _ -> false
  in
  let name =
    match G.peek st with
    | G.Tident name -> G.advance st; name
    | _ -> G.error "expected a head predicate"
  in
  let head_items = G.parens st head_term in
  let body =
    match G.peek st with
    | G.Tturnstile -> G.advance st; G.body st
    | _ -> []
  in
  G.expect st G.Tdot "'.'";
  let atoms = List.filter_map (function G.Atom a -> Some a | G.Neg _ | G.Cmp _ -> None) body in
  let negs = List.filter_map (function G.Neg a -> Some a | G.Atom _ | G.Cmp _ -> None) body in
  let cmps = List.filter_map (function G.Cmp c -> Some c | G.Atom _ | G.Neg _ -> None) body in
  (* the positive/negative split with a given projection head *)
  let base_query head =
    let positive = Ast.conj ~cmps head atoms in
    if negs = [] then Ast.Conj positive
    else
      (* head :- pos & ~neg  ==  pos-answers minus answers where the negated
         atoms also hold (safe set difference). *)
      Ast.Diff (Ast.Conj positive, Ast.Conj (Ast.conj ~cmps head (atoms @ negs)))
  in
  let keys = List.filter_map (function Plain t -> Some t | Agg_of _ -> None) head_items in
  let aggs = List.filter_map (function Agg_of (f, t) -> Some (f, t) | Plain _ -> None) head_items in
  let query =
    if aggs = [] then base_query keys
    else
      (* group by the plain head terms; aggregate columns follow them in
         the source query's head, in order of appearance *)
      let nkeys = List.length keys in
      let specs =
        List.mapi
          (fun j (f, _) ->
            let col = nkeys + j in
            match f with
            | "count" -> Braid_relalg.Aggregate.Count
            | "sum" -> Braid_relalg.Aggregate.Sum col
            | "avg" -> Braid_relalg.Aggregate.Avg col
            | "min" -> Braid_relalg.Aggregate.Min col
            | "max" -> Braid_relalg.Aggregate.Max col
            | _ -> G.error ("unknown aggregate " ^ f))
          aggs
      in
      Ast.Agg
        { Ast.keys = List.init nkeys (fun i -> i); specs; source = base_query (keys @ List.map snd aggs) }
  in
  let query = if distinct then Ast.Distinct query else query in
  (name, query)

let parse_clause src =
  let st = G.of_string src in
  let r = clause_of st in
  if G.peek st <> G.Teof then G.error "trailing input after clause";
  r

let parse_program src =
  let st = G.of_string src in
  let rec loop acc =
    if G.peek st = G.Teof then List.rev acc else loop (clause_of st :: acc)
  in
  let clauses = loop [] in
  (* Group same-name clauses into unions, preserving name order. *)
  let names =
    List.fold_left (fun acc (n, _) -> if List.mem n acc then acc else n :: acc) [] clauses
    |> List.rev
  in
  List.map
    (fun n ->
      match List.filter_map (fun (m, q) -> if String.equal m n then Some q else None) clauses with
      | [ q ] -> (n, q)
      | qs -> (n, Ast.Union qs))
    names

let parse_query src =
  match parse_program src with
  | [ (_, q) ] -> q
  | [] -> G.error "empty input"
  | _ -> G.error "expected a single query definition"
