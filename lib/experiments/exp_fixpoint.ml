module L = Braid_logic
module T = L.Term
module V = Braid_relalg.Value
module R = Braid_relalg
module A = Braid_caql.Ast
module Qpo = Braid_planner.Qpo
module Server = Braid_remote.Server

type row = {
  approach : string;
  requests : int;
  tuples_moved : int;
  caql_queries : int;
  total_ms : float;
}

let v x = T.Var x
let s x = T.Const (V.Str x)
let atom p args = L.Atom.make p args

let query = atom "ancestor" [ s "p0"; v "Y" ]

let run_ie ~label ~strategy ~persons =
  let r =
    Runner.run_batch ~label ~config:Qpo.no_advice_config ~strategy
      ~kb:(fun () -> Braid_workload.Kbgen.ancestor ())
      ~data:(fun () -> Braid_workload.Datagen.family ~persons ~fanout:3 ())
      [ query ]
  in
  {
    approach = label;
    requests = r.Runner.requests;
    tuples_moved = r.Runner.tuples_returned;
    caql_queries = r.Runner.caql_queries;
    total_ms = r.Runner.total_ms;
  }

let run_cms_fixpoint ~persons =
  let server = Server.create () in
  List.iter
    (Braid_remote.Engine.load (Server.engine server))
    (Braid_workload.Datagen.family ~persons ~fanout:3 ());
  let cms = Braid.Cms.create ~config:Qpo.no_advice_config server in
  let fix =
    A.Fixpoint
      {
        A.name = "tc";
        base = A.Conj (A.conj [ v "X"; v "Y" ] [ atom "parent" [ v "X"; v "Y" ] ]);
        step =
          A.Conj
            (A.conj [ v "X"; v "Z" ]
               [ atom "tc" [ v "X"; v "Y" ]; atom "parent" [ v "Y"; v "Z" ] ]);
      }
  in
  let closure, _plan = Braid.Cms.query_full cms fix in
  (* the AI query's selection on the closure *)
  let answers =
    R.Ops.select (R.Row_pred.Cmp (R.Row_pred.Eq, Col 0, Lit (V.Str "p0"))) closure
  in
  ignore answers;
  let st = Braid.Cms.remote_stats cms in
  let m = Braid.Cms.metrics cms in
  {
    approach = "CMS fixpoint DAP";
    requests = st.Server.requests;
    tuples_moved = st.Server.tuples_returned;
    caql_queries = m.Qpo.queries;
    total_ms = m.Qpo.elapsed_ms;
  }

let run ?(persons = 200) () =
  let rows_data =
    [
      run_ie ~label:"interpretive IE" ~strategy:Braid_ie.Strategy.Interpretive ~persons;
      run_ie ~label:"set-oriented IE + workstation fixpoint"
        ~strategy:Braid_ie.Strategy.Set_oriented ~persons;
      run_cms_fixpoint ~persons;
    ]
  in
  let rows =
    List.map
      (fun r ->
        [
          Table.Text r.approach;
          Table.Int r.requests;
          Table.Int r.tuples_moved;
          Table.Int r.caql_queries;
          Table.Float r.total_ms;
        ])
      rows_data
  in
  let table =
    Table.make
      ~title:
        (Printf.sprintf "E11  recursion via the fixpoint operator — ancestor closure (%d persons)"
           persons)
      ~columns:[ "approach"; "remote req"; "tuples moved"; "CAQL queries"; "total ms" ]
      ~notes:
        [
          "paper §2 (extension): a fixed-point operator in the interface gives the \
           compiled strategy's round-trip economy without IE-side machinery";
        ]
      rows
  in
  (rows_data, table)
