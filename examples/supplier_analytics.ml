(* CAQL's second-order operations on the classic supplier-parts database:
   aggregation (AGG), set semantics (SETOF), the ALL quantifier as
   relational division, and the fixed point operator — all evaluated by the
   CMS because the remote DML supports none of them (§2/§5).

     dune exec examples/supplier_analytics.exe *)

module L = Braid_logic
module T = L.Term
module R = Braid_relalg
module V = R.Value
module A = Braid_caql.Ast

let v x = T.Var x
let s x = T.Const (V.Str x)
let atom p args = L.Atom.make p args

let () =
  let server = Braid_remote.Server.create () in
  List.iter
    (Braid_remote.Engine.load (Braid_remote.Server.engine server))
    (Braid_workload.Datagen.supplier_parts ~suppliers:8 ~parts:20 ~shipments:120 ());
  let cms = Braid.Cms.create server in
  let tracer = Braid_obs.Trace.create () in
  Braid_obs.Trace.install tracer;

  (* aggregation, straight from text syntax *)
  let per_supplier, _ =
    Braid.Cms.query_text cms "volume(S, count(P), sum(Q)) :- supplies(S, P, Q)."
  in
  Format.printf "shipping volume per supplier:@.";
  R.Relation.iter (fun t -> Format.printf "  %a@." R.Tuple.pp t) per_supplier;

  (* SETOF *)
  let colors, _ = Braid.Cms.query_text cms "distinct colors(C) :- part(P, C, W)." in
  Format.printf "@.%d distinct part colors@." (R.Relation.cardinality colors);

  (* the ALL quantifier: suppliers that ship EVERY red part *)
  let dividend =
    A.Conj
      (A.conj [ v "S"; v "P" ] [ atom "supplies" [ v "S"; v "P"; v "Q" ] ])
  in
  let divisor =
    A.Conj (A.conj [ v "P" ] [ atom "part" [ v "P"; s "red"; v "W" ] ])
  in
  let complete, _ = Braid.Cms.query_full cms (A.Division (dividend, divisor)) in
  Format.printf "@.suppliers shipping every red part: %d@."
    (R.Relation.cardinality complete);
  R.Relation.iter (fun t -> Format.printf "  %a@." R.Tuple.pp t) complete;

  (* the fixed point operator: co-supply reachability — suppliers linked
     transitively by sharing a part *)
  let linked =
    A.Conj
      (A.conj
         [ v "S1"; v "S2" ]
         [
           atom "supplies" [ v "S1"; v "P"; v "Q1" ];
           atom "supplies" [ v "S2"; v "P"; v "Q2" ];
         ])
  in
  let closure =
    A.Fixpoint
      {
        A.name = "conn";
        base = linked;
        step =
          A.Conj
            (A.conj
               [ v "S1"; v "S3" ]
               [ atom "conn" [ v "S1"; v "S2" ]; atom "conn" [ v "S2"; v "S3" ] ]);
      }
  in
  let connected, _ = Braid.Cms.query_full cms closure in
  Format.printf "@.co-supply connectivity: %d linked pairs@."
    (R.Relation.cardinality connected);

  (* the QPO's answer spans show how few times the remote DBMS was consulted *)
  let answers =
    List.filter (fun s -> s.Braid_obs.Trace.name = "qpo.answer") (Braid_obs.Trace.spans tracer)
  in
  let arg k s =
    match List.assoc_opt k s.Braid_obs.Trace.args with
    | Some (Braid_obs.Trace.Str v) -> v
    | _ -> ""
  in
  Format.printf "@.session trace (%d CAQL queries):@." (List.length answers);
  List.iteri
    (fun i s -> if i < 6 then Format.printf "  %s@.    %s@." (arg "query" s) (arg "plan" s))
    answers;
  let st = Braid.Cms.remote_stats cms in
  Format.printf "@.total: %d remote requests, %d tuples moved@."
    st.Braid_remote.Server.requests st.Braid_remote.Server.tuples_returned
