type row = {
  strategy : string;
  demand : string;
  requests : int;
  tuples_moved : int;
  total_ms : float;
}

let strategies =
  Braid_ie.Strategy.
    [ Interpretive; Conjunction_compiled 2; Conjunction_compiled 4; Set_oriented; Adaptive ]

let run ?(persons = 600) ?(queries = 5) () =
  let kb () = Braid_workload.Kbgen.ancestor () in
  let data () = Braid_workload.Datagen.family ~persons ~fanout:3 () in
  let batch = Braid_workload.Queries.ancestor_batch ~persons ~n:queries ~skew:0.5 () in
  let rows_data =
    List.concat_map
      (fun strategy ->
        let name = Braid_ie.Strategy.label strategy in
        List.map
          (fun (demand, first_only) ->
            let r =
              (* advice off: with generalization/prefetching the CMS flattens
                 the I-C range (few remote requests for every strategy); this
                 experiment isolates the strategies' intrinsic access
                 patterns. *)
              Runner.run_batch
                ~label:(name ^ "/" ^ demand)
                ~config:Braid_planner.Qpo.no_advice_config ~strategy ?first_only ~kb ~data
                batch
            in
            {
              strategy = name;
              demand;
              requests = r.Runner.requests;
              tuples_moved = r.Runner.tuples_returned;
              total_ms = r.Runner.total_ms;
            })
          [ ("first", Some 1); ("all", None) ])
      strategies
  in
  let rows =
    List.map
      (fun r ->
        [
          Table.Text r.strategy;
          Table.Text r.demand;
          Table.Int r.requests;
          Table.Int r.tuples_moved;
          Table.Float r.total_ms;
        ])
      rows_data
  in
  let table =
    Table.make
      ~title:
        (Printf.sprintf "E6  the I-C range — ancestor (%d persons, %d queries)" persons
           queries)
      ~columns:[ "strategy"; "demand"; "remote req"; "tuples moved"; "total ms" ]
      ~notes:
        [
          "paper §2: the optimum point on the I-C range differs from problem to \
           problem; compiled all-solutions wastes work when only one answer is wanted";
          "advice disabled here: with it, the CMS generalizes and the whole range \
           collapses to a handful of requests (see E8)";
        ]
      rows
  in
  (rows_data, table)
