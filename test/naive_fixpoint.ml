(* Naive bottom-up Datalog: the oracle the library's semi-naive fixpoint
   ([Braid_ie.Datalog]) is checked against. Every round re-derives every
   derived relation from scratch over the current totals, until no total
   grows. It joins through the tuple-at-a-time generator
   ([Eval.lazy_conj]), which matches substitutions atom by atom and shares
   no join code with the library's compiled plans; the two share only
   schema inference. *)

module L = Braid_logic
module R = Braid_relalg
module A = Braid_caql.Ast
module TS = Braid_stream.Tuple_stream

type outcome = {
  result : R.Relation.t;  (** bindings for the query's variables *)
  tuples_produced : int;  (** total tuples materialized across rounds *)
  derived_sizes : (string * int) list;  (** fixpoint size per derived predicate, sorted *)
}

let body_atoms (r : L.Rule.t) =
  List.filter_map (function L.Literal.Rel a -> Some a | L.Literal.Cmp _ -> None) r.L.Rule.body

let rule_query (r : L.Rule.t) =
  let cmps =
    List.filter_map
      (function L.Literal.Cmp (op, a, b) -> Some (op, a, b) | L.Literal.Rel _ -> None)
      r.L.Rule.body
  in
  A.conj ~cmps r.L.Rule.head.L.Atom.args (body_atoms r)

let conj ~source ~schema_of c =
  TS.to_relation
    (Braid_caql.Eval.lazy_conj ~source:(fun a -> TS.of_relation (source a)) ~schema_of c)

(* Derived predicates reachable from [p] through rule bodies. *)
let rec reachable kb seen p =
  if List.mem p seen || not (L.Kb.is_derived kb p) then seen
  else
    List.fold_left
      (fun seen r ->
        List.fold_left (fun seen a -> reachable kb seen a.L.Atom.pred) seen (body_atoms r))
      (p :: seen) (L.Kb.rules_for kb p)

let solve kb ~base (query : L.Atom.t) =
  let derived = List.sort String.compare (reachable kb [] query.L.Atom.pred) in
  let total : (string, R.Relation.t) Hashtbl.t = Hashtbl.create 16 in
  let schema_of name =
    match Hashtbl.find_opt total name with
    | Some r -> Some (R.Relation.schema r)
    | None -> Option.map R.Relation.schema (base name)
  in
  (* A predicate that is neither derived nor supplied fails (empty). *)
  let source (a : L.Atom.t) =
    match Hashtbl.find_opt total a.L.Atom.pred with
    | Some r -> r
    | None ->
      (match base a.L.Atom.pred with
       | Some r -> r
       | None ->
         R.Relation.create ~name:a.L.Atom.pred
           (R.Schema.make
              (List.mapi (fun i _ -> (Printf.sprintf "a%d" i, R.Value.Tstr)) a.L.Atom.args)))
  in
  List.iter
    (fun p ->
      let schema =
        match L.Kb.rules_for kb p with
        | [] -> R.Schema.make []
        | r :: _ -> Braid_caql.Analyze.schema_of_conj schema_of (rule_query r)
      in
      Hashtbl.replace total p (R.Relation.create ~name:p schema))
    derived;
  let tuples_produced = ref 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun p ->
        let derivations =
          List.map
            (fun r ->
              let rel = conj ~source ~schema_of (rule_query r) in
              tuples_produced := !tuples_produced + R.Relation.cardinality rel;
              rel)
            (L.Kb.rules_for kb p)
        in
        match derivations with
        | [] -> ()
        | first :: rest ->
          let combined = R.Relation.distinct (List.fold_left R.Ops.union_all first rest) in
          if R.Relation.cardinality combined <> R.Relation.cardinality (Hashtbl.find total p)
          then begin
            Hashtbl.replace total p (R.Relation.with_name p combined);
            changed := true
          end)
      derived
  done;
  let result =
    conj ~source ~schema_of
      (A.conj (List.map (fun v -> L.Term.Var v) (L.Atom.vars query)) [ query ])
  in
  {
    result;
    tuples_produced = !tuples_produced;
    derived_sizes = List.map (fun p -> (p, R.Relation.cardinality (Hashtbl.find total p))) derived;
  }
