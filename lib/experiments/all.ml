let experiments : (string * (?seed:int -> unit -> Table.t)) list =
  [
    ("e1", fun ?seed:_ () -> snd (Exp_coupling.run ()));
    ("e2", fun ?seed:_ () -> snd (Exp_ablation.run ()));
    ("e3", fun ?seed:_ () -> snd (Exp_cost_split.run ()));
    ("e4", fun ?seed:_ () -> snd (Exp_ie_pipeline.run ()));
    ("e5", fun ?seed:_ () -> snd (Exp_reuse.run ()));
    ("e6", fun ?seed:_ () -> snd (Exp_ic_range.run ()));
    ("e7", fun ?seed:_ () -> snd (Exp_lazy.run ()));
    ("e8", fun ?seed:_ () -> snd (Exp_advice.run ()));
    ("e9", fun ?seed:_ () -> snd (Exp_replacement.run ()));
    ("e10", fun ?seed () -> snd (Exp_indexing.run ?seed ()));
    ("e11", fun ?seed:_ () -> snd (Exp_fixpoint.run ()));
    ("e12", fun ?seed:_ () -> snd (Exp_application.run ()));
    ("e13", fun ?seed () -> snd (Exp_faults.run ?seed ()));
    ("e14", fun ?seed () -> snd (Exp_serve.run ?seed ()));
    ("e15", fun ?seed () -> snd (Exp_join_planning.run ?seed ()));
    ("e16", fun ?seed () -> snd (Exp_sharding.run ?seed ()));
    ("e17", fun ?seed () -> snd (Exp_replication.run ?seed ()));
    ("e18", fun ?seed () -> snd (Exp_ivm.run ?seed ()));
    ("e19", fun ?seed () -> snd (Exp_set_oriented.run ?seed ()));
  ]

let id_range =
  let ids = List.map fst experiments in
  Printf.sprintf "%s..%s" (List.hd ids) (List.nth ids (List.length ids - 1))

(* Bracket each experiment with a metrics-registry reset so the
   observability table printed under its result attributes counters and
   simulated-ms histograms to that experiment alone. *)
let run_with_obs run ?seed () =
  Braid_obs.Metrics.reset ();
  let table = run ?seed () in
  Table.print table;
  (match Braid_obs.Metrics.render () with
   | "" -> ()
   | text ->
     print_endline "-- observability --";
     print_string text);
  Braid_obs.Metrics.reset ()

let run_all ?seed () =
  List.iter
    (fun (_, run) ->
      run_with_obs run ?seed ();
      print_newline ())
    experiments

let run_one ?seed id =
  match List.assoc_opt (String.lowercase_ascii id) experiments with
  | Some run ->
    run_with_obs run ?seed ();
    true
  | None -> false
