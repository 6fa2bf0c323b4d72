(* The braid command-line interface.

   braid demo --workload family --query "ancestor(p0, Y)" [--system braid]
       run a built-in workload end to end and print solutions + accounting
   braid solve --rules prog.pl --data parent.csv --query "anc(p0, Y)"
       load Horn rules from a file and relations from CSV files
   braid experiments [ID ...]
       regenerate the paper-claim experiment tables (see EXPERIMENTS.md) *)

module L = Braid_logic
module R = Braid_relalg
module V = R.Value
module A = Braid_caql.Ast

(* --- shared pieces --- *)

let setup_verbose verbose =
  if verbose then begin
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level (Some Logs.Debug)
  end

let config_of_label label =
  match Braid.Baselines.of_label label with
  | Ok b -> b.Braid.Baselines.config
  | Error msg -> invalid_arg msg

let strategy_of_label label =
  match Braid_ie.Strategy.of_label label with
  | Ok k -> k
  | Error msg -> invalid_arg msg

let parse_query = Braid.Loader.parse_atomic_query

let print_solutions ?(limit = 20) rel =
  Format.printf "%d solutions@." (R.Relation.cardinality rel);
  List.iteri
    (fun i t ->
      if i < limit then Format.printf "  %a@." R.Tuple.pp t
      else if i = limit then Format.printf "  ...@.")
    (R.Relation.to_list rel)

let run_and_report sys query show_advice =
  let answers, report = Braid_ie.Engine.solve_all (Braid.System.engine sys) query in
  print_solutions answers;
  if show_advice then
    Format.printf "@.advice generated for this session:@.%a@." Braid_advice.Ast.pp
      report.Braid_ie.Engine.advice;
  Format.printf "@.%a@." Braid.System.pp_metrics (Braid.System.metrics sys)

(* --- commands --- *)

let demo workload query system strategy show_advice verbose =
  setup_verbose verbose;
  let kb, data =
    match workload with
    | "family" ->
      (Braid_workload.Kbgen.ancestor (), Braid_workload.Datagen.family ~persons:100 ~fanout:3 ())
    | "bom" ->
      ( Braid_workload.Kbgen.bill_of_materials (),
        Braid_workload.Datagen.bill_of_materials ~parts:80 ~max_children:3 () )
    | "university" ->
      ( Braid_workload.Kbgen.university (),
        Braid_workload.Datagen.university ~students:60 ~courses:30 ~enrollments:240 () )
    | "example1" ->
      (Braid_workload.Kbgen.example1 (), Braid_workload.Datagen.paper_example ~size:25 ())
    | "example2" ->
      (Braid_workload.Kbgen.example2 (), Braid_workload.Datagen.paper_example ~size:25 ())
    | w -> invalid_arg (Printf.sprintf "unknown workload %S" w)
  in
  let sys =
    Braid.System.build ~config:(config_of_label system)
      ~strategy:(strategy_of_label strategy) ~kb ~data ()
  in
  run_and_report sys (parse_query query) show_advice;
  0

let solve rules_file data_files query system strategy show_advice verbose =
  setup_verbose verbose;
  let kb = Braid.Loader.kb_of_rules_file rules_file in
  let data = List.map Braid.Loader.relation_of_csv_file data_files in
  let sys =
    Braid.System.build ~config:(config_of_label system)
      ~strategy:(strategy_of_label strategy) ~kb ~data ()
  in
  run_and_report sys (parse_query query) show_advice;
  0

let caql data_files advice_file queries show_plan =
  let server = Braid_remote.Server.create () in
  List.iter
    (fun path ->
      Braid_remote.Engine.load (Braid_remote.Server.engine server)
        (Braid.Loader.relation_of_csv_file path))
    data_files;
  let cms = Braid.Cms.create server in
  (match advice_file with
   | Some path ->
     let advice =
       Braid_advice.Parser.parse (In_channel.with_open_text path In_channel.input_all)
     in
     Braid.Cms.begin_session cms advice
   | None -> ());
  List.iter
    (fun text ->
      Format.printf "?- %s@." (String.trim text);
      let result, plan = Braid.Cms.query_text cms text in
      print_solutions result;
      if show_plan then Format.printf "plan:@.%a@." Braid_planner.Plan.pp plan;
      Format.printf "@.")
    queries;
  Format.printf "%d remote requests, %d tuples moved@."
    (Braid.Cms.remote_stats cms).Braid_remote.Server.requests
    (Braid.Cms.remote_stats cms).Braid_remote.Server.tuples_returned;
  0

let repl shards replicas =
  print_endline Braid_serve.Repl.banner;
  let session = Braid_serve.Repl.create ~shards ~replicas () in
  let rec loop () =
    print_string "braid> ";
    match In_channel.input_line stdin with
    | None -> 0
    | Some line ->
      let out = Braid_serve.Repl.exec_line session line in
      if out <> "" then print_endline out;
      if String.trim line = ":quit" || String.trim line = ":q" then 0 else loop ()
  in
  loop ()

let experiments ids =
  (match ids with
   | [] -> Braid_experiments.All.run_all ()
   | ids ->
     List.iter
       (fun id ->
         if not (Braid_experiments.All.run_one id) then begin
           Printf.eprintf "unknown experiment %S (expected %s)\n" id
             Braid_experiments.All.id_range;
           exit 1
         end)
       ids);
  0

(* --- cmdliner wiring --- *)

open Cmdliner

let system_arg =
  let doc = "Coupling discipline: loose, bermuda, ceri, braid-sub or braid." in
  Arg.(value & opt string "braid" & info [ "system" ] ~docv:"SYSTEM" ~doc)

let strategy_arg =
  let doc =
    "Inference strategy: interpretive, conjunction-N, set-oriented or adaptive."
  in
  Arg.(value & opt string "interpretive" & info [ "strategy" ] ~docv:"STRATEGY" ~doc)

let query_arg =
  let doc = "The AI query, e.g. \"ancestor(p0, Y)\"." in
  Arg.(required & opt (some string) None & info [ "query"; "q" ] ~docv:"QUERY" ~doc)

let advice_arg =
  let doc = "Print the view specifications and path expression the IE generated." in
  Arg.(value & flag & info [ "show-advice" ] ~doc)

let verbose_arg =
  let doc = "Trace the CMS's planning decisions (generalization, prefetch, splits)." in
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc)

let demo_cmd =
  let workload =
    let doc = "Built-in workload: family, bom, university, example1 or example2." in
    Arg.(value & opt string "family" & info [ "workload"; "w" ] ~docv:"NAME" ~doc)
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"Run a built-in workload end to end")
    Term.(const demo $ workload $ query_arg $ system_arg $ strategy_arg $ advice_arg $ verbose_arg)

let solve_cmd =
  let rules =
    let doc = "Horn rules in CAQL clause syntax (see braid_caql's Parser docs)." in
    Arg.(required & opt (some file) None & info [ "rules" ] ~docv:"FILE" ~doc)
  in
  let data =
    let doc = "CSV relation file (header = attributes, name = file basename); repeatable." in
    Arg.(value & opt_all file [] & info [ "data" ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Solve a query against user-supplied rules and CSV data")
    Term.(const solve $ rules $ data $ query_arg $ system_arg $ strategy_arg $ advice_arg $ verbose_arg)

let caql_cmd =
  let data =
    let doc = "CSV relation file; repeatable." in
    Arg.(value & opt_all file [] & info [ "data" ] ~docv:"FILE" ~doc)
  in
  let advice =
    let doc = "Advice file: view specifications and a path expression (paper §4.2 syntax)." in
    Arg.(value & opt (some file) None & info [ "advice" ] ~docv:"FILE" ~doc)
  in
  let queries =
    let doc = "A CAQL query, e.g. \"q(X,Y) :- edge(X,Z) & edge(Z,Y).\"; repeatable, executed in order against one cache." in
    Arg.(non_empty & opt_all string [] & info [ "e" ] ~docv:"QUERY" ~doc)
  in
  let show_plan =
    let doc = "Print the plan the QPO executed for each query." in
    Arg.(value & flag & info [ "show-plan" ] ~doc)
  in
  Cmd.v
    (Cmd.info "caql" ~doc:"Run CAQL queries directly against the CMS (one session)")
    Term.(const caql $ data $ advice $ queries $ show_plan)

let repl_cmd =
  let shards =
    let doc = "Shard the remote DBMS across $(docv) partitions (1 = single server)." in
    Arg.(value & opt int 1 & info [ "shards" ] ~docv:"N" ~doc)
  in
  let replicas =
    let doc =
      "Keep $(docv) copies of every shard (primary/backup failover, \
       anti-entropy repair; 1 = unreplicated)."
    in
    Arg.(value & opt int 1 & info [ "replicas" ] ~docv:"R" ~doc)
  in
  Cmd.v (Cmd.info "repl" ~doc:"Interactive session (facts, rules, queries, cache inspection)")
    Term.(const repl $ shards $ replicas)

let experiments_cmd =
  let ids =
    let doc =
      Printf.sprintf "Experiment ids (%s); all when omitted." Braid_experiments.All.id_range
    in
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc)
  in
  Cmd.v
    (Cmd.info "experiments" ~doc:"Regenerate the paper-claim experiment tables")
    Term.(const experiments $ ids)

let main_cmd =
  let doc = "BrAID: a bridge between logic-based AI systems and relational DBMSs" in
  Cmd.group
    (Cmd.info "braid" ~version:"1.0.0" ~doc)
    [ demo_cmd; solve_cmd; caql_cmd; repl_cmd; experiments_cmd ]

let () = exit (Cmd.eval' main_cmd)
