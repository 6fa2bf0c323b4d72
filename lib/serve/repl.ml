module L = Braid_logic
module R = Braid_relalg
module V = R.Value
module Qpo = Braid_planner.Qpo
module Obs = Braid_obs
module System = Braid.System
module Cms = Braid.Cms
module Loader = Braid.Loader
module Baselines = Braid.Baselines
module Router = Braid_remote.Shard_router

type t = {
  mutable config : Qpo.config;
  mutable strategy : Braid_ie.Strategy.kind;
  mutable shards : int; (* 1 = single-server remote *)
  mutable replicas : int; (* copies per shard; 1 = unreplicated *)
  mutable clauses : string list; (* rule clauses, oldest first *)
  facts : (string, R.Relation.t) Hashtbl.t; (* base relations typed in or loaded *)
  mutable sys : System.t option; (* rebuilt lazily after changes *)
  mutable serve : Scheduler.t option; (* serving layer over [sys]'s CMS *)
  mutable last_advice : Braid_advice.Ast.t option;
}

let create ?(config = Qpo.braid_config) ?(shards = 1) ?(replicas = 1) () =
  {
    config;
    strategy = Braid_ie.Strategy.Interpretive;
    shards = max 1 shards;
    replicas = max 1 replicas;
    clauses = [];
    facts = Hashtbl.create 16;
    sys = None;
    serve = None;
    last_advice = None;
  }

let banner =
  "BrAID interactive session — facts and rules in CAQL clause syntax,\n\
   queries as \"?- atom.\"; :help lists commands."

let commands_help =
  "input:\n\
  \  parent(tom, bob).                  add a ground fact (a remote-DB tuple)\n\
  \  anc(X,Y) :- parent(X,Y).           add a rule (several clauses = union)\n\
  \  ?- anc(tom, Y).                    solve an AI query\n\
   commands:\n\
  \  :caql <clause>                     run a CAQL query directly on the CMS\n\
  \  :explain <atom>                    justify the first solutions (proof trees)\n\
  \  :explain <head> :- <body>          remote query plan with est vs actual rows\n\
  \  :load rules <file> | :load data <file.csv>\n\
  \  :system loose|bermuda|ceri|braid-sub|braid\n\
  \  :strategy interpretive|conjunction-N|set-oriented|adaptive\n\
  \  :trace on|off                      record plans and observability spans; :trace shows plans\n\
  \  :spans [N]                         last N recorded spans (default 15); needs :trace on\n\
  \  :journal [N]                       last N cache journal entries (default 20) + epoch\n\
  \  :sessions                          serving sessions (queued/running/shed per session)\n\
  \  :shards [N]                        show shards + per-replica health, or set the shard count\n\
  \  :replicas [N]                      show or set copies per shard (rebuilds the session)\n\
  \  :rules | :cache | :advice | :metrics | :lint | :help | :quit (or :q)"

(* Every command the dispatcher accepts, for the :help audit test — keep in
   sync with [exec_line]. *)
let command_names =
  [
    ":help";
    ":quit";
    ":q";
    ":cache";
    ":rules";
    ":lint";
    ":trace";
    ":spans";
    ":journal";
    ":sessions";
    ":shards";
    ":replicas";
    ":metrics";
    ":advice";
    ":caql";
    ":explain";
    ":load";
    ":system";
    ":strategy";
  ]

let invalidate t =
  t.sys <- None;
  t.serve <- None

(* --- building the system --- *)

let kb_of t =
  let kb =
    if t.clauses = [] then L.Kb.create ()
    else Loader.kb_of_rules_text (String.concat "\n" t.clauses)
  in
  Hashtbl.iter
    (fun name rel ->
      if not (L.Kb.is_base kb name || L.Kb.is_derived kb name) then
        L.Kb.declare_base kb name ~arity:(R.Schema.arity (R.Relation.schema rel)))
    t.facts;
  kb

(* Routing, replica and shard detail only means something for a fleet;
   the single server is a 1×1 router. *)
let fleet r = Router.shard_count r > 1 || Router.replica_count r > 1

let system t =
  match t.sys with
  | Some sys -> sys
  | None ->
    let data = Hashtbl.fold (fun _ rel acc -> rel :: acc) t.facts [] in
    (* Sharded sessions hash-partition every base relation on its first
       column — the column REPL facts most often pin. *)
    let partitioning =
      if t.shards <= 1 then []
      else
        List.map
          (fun rel ->
            (R.Relation.name rel, Braid_remote.Catalog.Hash { column = 0 }))
          (List.sort
             (fun a b -> String.compare (R.Relation.name a) (R.Relation.name b))
             data)
    in
    let sys =
      System.build ~config:t.config ~strategy:t.strategy ~shards:t.shards
        ~replicas:t.replicas ~partitioning ~kb:(kb_of t) ~data ()
    in
    t.sys <- Some sys;
    sys

(* The serving layer over the current system's CMS: built lazily, rebuilt
   whenever the system is (the scheduler holds per-session planner state
   that would dangle across a rebuild). Conjunctive [:caql] queries are
   routed through session "repl". *)
let scheduler t =
  let sys = system t in
  match t.serve with
  | Some sch when Scheduler.cms sch == System.cms sys -> sch
  | _ ->
    let sch = Scheduler.create (System.cms sys) in
    ignore
      (Scheduler.add_session sch ~sid:"repl"
         { Braid_advice.Ast.specs = []; path = None });
    t.serve <- Some sch;
    sch

(* --- fact handling --- *)

let default_schema values =
  R.Schema.make
    (List.mapi
       (fun i v ->
         ( Printf.sprintf "a%d" i,
           match V.type_of v with Some ty -> ty | None -> V.Tstr ))
       values)

let add_fact t name (values : V.t list) =
  match Hashtbl.find_opt t.facts name with
  | Some rel ->
    if R.Schema.arity (R.Relation.schema rel) <> List.length values then
      Printf.sprintf "error: %s expects %d arguments" name
        (R.Schema.arity (R.Relation.schema rel))
    else begin
      (match t.sys with
       | Some sys ->
         (* Live insert: the remote table shares this relation object, so
            insert_remote both stores the tuple and invalidates the cache. *)
         (try System.insert_remote sys name (Array.of_list values)
          with Invalid_argument _ | Not_found ->
            R.Relation.add rel (Array.of_list values);
            invalidate t)
       | None -> R.Relation.add rel (Array.of_list values));
      Printf.sprintf "%s now has %d tuples" name (R.Relation.cardinality rel)
    end
  | None ->
    let rel = R.Relation.create ~name (default_schema values) in
    R.Relation.add rel (Array.of_list values);
    Hashtbl.replace t.facts name rel;
    invalidate t;
    Printf.sprintf "new base relation %s/%d" name (List.length values)

(* --- rendering --- *)

let render_solutions ?(limit = 20) rel =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "%d solutions" (R.Relation.cardinality rel));
  List.iteri
    (fun i tuple ->
      if i < limit then
        Buffer.add_string buf (Format.asprintf "@.  %a" R.Tuple.pp tuple)
      else if i = limit then Buffer.add_string buf "\n  ...")
    (R.Relation.to_list rel);
  Buffer.contents buf

let strip_prefix p s =
  if String.length s >= String.length p && String.sub s 0 (String.length p) = p then
    Some (String.trim (String.sub s (String.length p) (String.length s - String.length p)))
  else None

(* --- command handling --- *)

let handle_query t text =
  let text = String.trim text in
  let text = if String.length text > 0 && text.[String.length text - 1] = '.' then String.sub text 0 (String.length text - 1) else text in
  let query = Loader.parse_atomic_query text in
  let sys = system t in
  let stream, report = System.solve sys query in
  t.last_advice <- Some report.Braid_ie.Engine.advice;
  render_solutions (Braid_stream.Tuple_stream.to_relation stream)

let render_answer rel plan =
  render_solutions rel ^ Format.asprintf "@.plan:@.%a" Braid_planner.Plan.pp plan

let handle_caql t text =
  let sys = system t in
  match Braid_caql.Parser.parse_program text with
  | [ (_, Braid_caql.Ast.Conj c) ] ->
    (* Single conjunctive query: through the serving layer, so it shows up
       in :sessions and shares the scheduler's admission/coalescing path. *)
    let sch = scheduler t in
    let result = ref None in
    (match Scheduler.submit sch ~sid:"repl" ~on_reply:(fun o -> result := Some o) c with
     | `Queued -> ignore (Scheduler.drain sch)
     | `Shed -> ());
    (match !result with
     | Some (Scheduler.Answered a) | Some (Scheduler.Shed (Some a)) ->
       render_answer (Braid_stream.Tuple_stream.to_relation a.Qpo.stream) a.Qpo.plan
     | Some (Scheduler.Goal_answered rel) -> render_solutions rel
     | Some (Scheduler.Shed None) -> "shed: the serving layer had no cached cover"
     | None -> "error: the serving layer returned no reply")
  | _ ->
    let result, plan = Cms.query_text (System.cms sys) text in
    render_answer result plan

(* A conjunctive CAQL clause is explained as a shipped query plan: the
   remote engine's enumerator renders the chosen tree with estimated vs
   actual cardinalities. *)
let explain_clause t text =
  let sys = system t in
  let server = Cms.server (System.cms sys) in
  match Braid_caql.Parser.parse_program (text ^ ".") with
  | [ (_, Braid_caql.Ast.Conj c) ] ->
    let schema_of name =
      Braid_remote.Catalog.schema_of (Braid_remote.Server.catalog server) name
    in
    (match Braid_caql.To_sql.translate ~schema_of c with
     | Ok sql ->
       (* Sharded remote: show where the router places the request —
          pruned to one shard, fanned out, or gathered at the router. *)
       let r = System.router sys in
       let route_line =
         if not (fleet r) then ""
         else begin
           let n = Router.shard_count r in
           (* With replication, also say which copy of each target shard
              the read will be offered to first, and why. *)
           let replica_line targets =
             if Router.replica_count r = 1 then ""
             else
               String.concat ""
                 (List.map
                    (fun i ->
                      let ri, why = Router.replica_choice r i in
                      Printf.sprintf "replica: shard %d -> r%d (%s)\n" i ri why)
                    targets)
           in
           (match Router.route r sql with
            | Router.Pinned { shard; _ } ->
              Printf.sprintf "route: pinned to shard %d (%d of %d pruned)\n%s" shard
                (n - 1) n (replica_line [ shard ])
            | Router.Fanout targets ->
              Printf.sprintf "route: fan-out to shards [%s] (%d of %d pruned)\n%s"
                (String.concat "," (List.map string_of_int targets))
                (n - List.length targets) n (replica_line targets)
            | Router.Gather srcs as g ->
              let targets =
                List.sort_uniq Int.compare (List.concat_map snd srcs)
              in
              Printf.sprintf "route: %s (router-side join over %d shards)\n%s"
                (Router.route_to_string g) n (replica_line targets))
         end
       in
       Printf.sprintf "%s\n%s%s" (Braid_remote.Sql.to_string sql) route_line
         (Braid_remote.Engine.explain (Braid_remote.Server.engine server) sql)
     | Error f -> "cannot ship this clause: " ^ Braid_caql.To_sql.failure_to_string f)
  | _ -> "usage: :explain <atom> (proof trees) | :explain head :- body (query plan)"
  | exception _ ->
    "usage: :explain <atom> (proof trees) | :explain head :- body (query plan)"

let handle_explain t text =
  let text = String.trim text in
  let text =
    if String.length text > 0 && text.[String.length text - 1] = '.' then
      String.sub text 0 (String.length text - 1)
    else text
  in
  if
    (* a full clause: show the remote plan instead of proof trees *)
    let rec has_neck i =
      i + 2 <= String.length text && (String.sub text i 2 = ":-" || has_neck (i + 1))
    in
    has_neck 0
  then explain_clause t text
  else begin
    let query = Loader.parse_atomic_query text in
    let sys = system t in
    let proofs =
      Braid_ie.Justify.explain (System.kb sys) (Cms.qpo (System.cms sys)) ~max_proofs:3 query
    in
    if proofs = [] then "no solutions"
    else
      String.concat "\n"
        (List.map
           (fun (tuple, proof) ->
             Format.asprintf "%a@.%a" R.Tuple.pp tuple Braid_ie.Justify.pp_proof proof)
           proofs)
  end

let handle_load t what =
  match String.index_opt what ' ' with
  | None -> "usage: :load rules <file> | :load data <file.csv>"
  | Some i ->
    let kind = String.sub what 0 i in
    let path = String.trim (String.sub what (i + 1) (String.length what - i - 1)) in
    (match kind with
     | "rules" ->
       let text = In_channel.with_open_text path In_channel.input_all in
       (* validate before accepting *)
       ignore (Loader.kb_of_rules_text text);
       t.clauses <- t.clauses @ [ text ];
       invalidate t;
       Printf.sprintf "loaded rules from %s" path
     | "data" ->
       let rel = Loader.relation_of_csv_file path in
       Hashtbl.replace t.facts (R.Relation.name rel) rel;
       invalidate t;
       Printf.sprintf "loaded %s (%d tuples)" (R.Relation.name rel)
         (R.Relation.cardinality rel)
     | _ -> "usage: :load rules <file> | :load data <file.csv>")

let handle_system t label =
  match Baselines.of_label label with
  | Ok b ->
    t.config <- b.Baselines.config;
    invalidate t;
    Printf.sprintf "system = %s (%s)" b.Baselines.label b.Baselines.description
  | Error msg -> "error: " ^ msg

let handle_strategy t label =
  match Braid_ie.Strategy.of_label label with
  | Ok k ->
    t.strategy <- k;
    invalidate t;
    "strategy = " ^ Braid_ie.Strategy.label k
  | Error msg -> "error: " ^ msg

let handle_cache t =
  match t.sys with
  | None -> "no session yet"
  | Some sys ->
    let model = Braid_cache.Cache_manager.model (Cms.cache (System.cms sys)) in
    let summary = Braid_cache.Cache_model.summary model in
    let buf = Buffer.create 256 in
    Buffer.add_string buf
      (Printf.sprintf "%d elements, %d bytes" summary.Braid_cache.Cache_model.element_count
         summary.Braid_cache.Cache_model.total_bytes);
    List.iteri
      (fun i e ->
        if i < 15 then
          Buffer.add_string buf (Format.asprintf "@.  %a" Braid_cache.Element.pp e)
        else if i = 15 then Buffer.add_string buf "\n  ...")
      (Braid_cache.Cache_model.elements model);
    Buffer.contents buf

let handle_journal t n =
  match t.sys with
  | None -> "no session yet"
  | Some sys ->
    let jnl = Cms.journal (System.cms sys) in
    let entries = Braid_cache.Journal.tail jnl n in
    let header =
      Printf.sprintf "journal: %d entries, checkpoint epoch %d"
        (Braid_cache.Journal.length jnl)
        (Braid_cache.Journal.epoch jnl)
    in
    if entries = [] then header
    else
      String.concat "\n"
        (header :: List.map Braid_cache.Journal.entry_to_string entries)

let handle_sessions t =
  match t.serve with
  | None -> "no serving sessions yet (:caql routes conjunctive queries through one)"
  | Some sch ->
    let views = Scheduler.session_views sch in
    let current = Scheduler.current_session sch in
    let header =
      Printf.sprintf "%d session(s), %d queued, %d shed total" (List.length views)
        (Scheduler.queued sch) (Scheduler.shed_total sch)
    in
    String.concat "\n"
      (header
      :: List.map
           (fun (v : Scheduler.session_view) ->
             Printf.sprintf
               "  %-8s %s queued=%d submitted=%d answered=%d shed=%d p95=%.1fms"
               v.Scheduler.sid
               (if current = Some v.Scheduler.sid then "running" else "idle   ")
               v.Scheduler.queued v.Scheduler.submitted v.Scheduler.answered
               v.Scheduler.shed v.Scheduler.p95_ms)
           views)

let handle_rules t =
  let kb = kb_of t in
  Format.asprintf "%a" L.Kb.pp kb

let render_arg = function
  | Obs.Trace.Str s -> s
  | Obs.Trace.Int n -> string_of_int n
  | Obs.Trace.Float f -> Printf.sprintf "%.1f" f
  | Obs.Trace.Bool b -> string_of_bool b

let render_span (s : Obs.Trace.span) =
  let args =
    match s.Obs.Trace.args with
    | [] -> ""
    | args ->
      "  "
      ^ String.concat " "
          (List.rev_map (fun (k, v) -> Printf.sprintf "%s=%s" k (render_arg v)) args)
  in
  if s.Obs.Trace.instant then
    Printf.sprintf "#%-4d @%-5d  %s/%s%s" s.Obs.Trace.id s.Obs.Trace.start_ts
      s.Obs.Trace.cat s.Obs.Trace.name args
  else
    Printf.sprintf "#%-4d %d..%-5d %s/%s%s%s" s.Obs.Trace.id s.Obs.Trace.start_ts
      s.Obs.Trace.end_ts s.Obs.Trace.cat s.Obs.Trace.name
      (match s.Obs.Trace.parent with
       | Some p -> Printf.sprintf " (in #%d)" p
       | None -> "")
      args

let handle_spans n =
  match Obs.Trace.installed () with
  | None -> "span recording is off (enable with :trace on)"
  | Some tr ->
    let all = Obs.Trace.spans tr in
    let total = List.length all in
    let shown = if total > n then ref (total - n) else ref 0 in
    let tail = List.filteri (fun i _ -> i >= !shown) all in
    if tail = [] then "no spans recorded yet"
    else
      String.concat "\n"
        (Printf.sprintf "%d spans (last %d):" total (List.length tail)
        :: List.map render_span tail)

(* The QPO's decisions: every recorded [qpo.answer] span, as the query
   and the plan that satisfied it. *)
let handle_trace () =
  let str k (s : Obs.Trace.span) =
    match List.assoc_opt k s.Obs.Trace.args with Some (Obs.Trace.Str v) -> Some v | _ -> None
  in
  let answers =
    match Obs.Trace.installed () with
    | None -> []
    | Some tr ->
      List.filter_map
        (fun (s : Obs.Trace.span) ->
          match (s.Obs.Trace.name, str "query" s, str "plan" s) with
          | "qpo.answer", Some q, Some plan -> Some (q ^ "\n  " ^ plan)
          | _ -> None)
        (Obs.Trace.spans tr)
  in
  if answers = [] then "trace is empty (enable with :trace on)"
  else String.concat "\n" answers

let handle_lint t =
  match L.Kb.lint (kb_of t) with
  | [] -> "knowledge base is clean"
  | findings ->
    String.concat "\n"
      (List.map (fun f -> Format.asprintf "%a" L.Kb.pp_lint f) findings)

let exec_line t line =
  let line = String.trim line in
  try
    if line = "" then ""
    else if line = ":help" then commands_help
    else if line = ":quit" || line = ":q" then "bye"
    else if line = ":cache" then handle_cache t
    else if line = ":rules" then handle_rules t
    else if line = ":lint" then handle_lint t
    else if line = ":sessions" then handle_sessions t
    else if line = ":trace" then
      if Option.is_none t.sys then "no session yet" else handle_trace ()
    else if line = ":trace on" then begin
      if not (Obs.Trace.enabled ()) then Obs.Trace.install (Obs.Trace.create ());
      "tracing on (plans + spans; :trace shows plans, :spans shows spans)"
    end
    else if line = ":trace off" then begin
      Obs.Trace.uninstall ();
      "tracing off"
    end
    else if strip_prefix ":spans" line <> None then begin
      match strip_prefix ":spans" line with
      | Some "" -> handle_spans 15
      | Some n ->
        (match int_of_string_opt n with
         | Some n when n > 0 -> handle_spans n
         | Some _ | None -> "usage: :spans [N] with N a positive integer")
      | None -> assert false
    end
    else if strip_prefix ":journal" line <> None then begin
      match strip_prefix ":journal" line with
      | Some "" -> handle_journal t 20
      | Some n ->
        (match int_of_string_opt n with
         | Some n when n > 0 -> handle_journal t n
         | Some _ | None -> "usage: :journal [N] with N a positive integer")
      | None -> assert false
    end
    else if strip_prefix ":shards" line <> None then begin
      match strip_prefix ":shards" line with
      | Some "" ->
        let base =
          if t.shards = 1 && t.replicas = 1 then "remote is a single server"
          else
            Printf.sprintf "remote is sharded %d ways x %d replica%s" t.shards
              t.replicas
              (if t.replicas = 1 then "" else "s")
        in
        (* Per-replica health of the live router, when a session exists. *)
        let health =
          match t.sys with
          | Some sys when fleet (System.router sys) ->
            let r = System.router sys in
            let buf = Buffer.create 256 in
            for i = 0 to Router.shard_count r - 1 do
              Buffer.add_string buf
                (Printf.sprintf "\nshard %d (log %d):" i (Router.log_length r i));
              List.iter
                (fun (h : Router.replica_health) ->
                  Buffer.add_string buf
                    (Printf.sprintf "\n  r%d@node%d %s lag=%d hints=%d breaker=%s%s"
                       h.Router.rh_replica h.Router.rh_node
                       (if h.Router.rh_replica = 0 then "primary" else "backup ")
                       h.Router.rh_lag h.Router.rh_hints
                       (match h.Router.rh_breaker with
                        | Braid_remote.Rdi.Closed -> "closed"
                        | Braid_remote.Rdi.Open -> "open"
                        | Braid_remote.Rdi.Half_open -> "half-open")
                       (if h.Router.rh_partitioned then " PARTITIONED" else "")))
                (Router.replica_health r i)
            done;
            Buffer.contents buf
          | Some _ | None -> ""
        in
        base ^ health
      | Some n ->
        (match int_of_string_opt n with
         | Some n when n >= 1 ->
           t.shards <- n;
           invalidate t;
           if n = 1 then "remote back to a single server (session rebuilds on next query)"
           else
             Printf.sprintf
               "remote sharded %d ways, base relations hash-partitioned on column 0 \
                (session rebuilds on next query)"
               n
         | Some _ | None -> "usage: :shards [N] with N a positive integer")
      | None -> assert false
    end
    else if strip_prefix ":replicas" line <> None then begin
      match strip_prefix ":replicas" line with
      | Some "" ->
        if t.replicas = 1 then "shards are unreplicated (1 copy each)"
        else Printf.sprintf "each shard keeps %d replicas (primary + %d backups)"
               t.replicas (t.replicas - 1)
      | Some n ->
        (match int_of_string_opt n with
         | Some n when n >= 1 ->
           t.replicas <- n;
           invalidate t;
           if n = 1 then "replication off (session rebuilds on next query)"
           else
             Printf.sprintf
               "each shard now keeps %d replicas with primary/backup failover \
                (session rebuilds on next query)"
               n
         | Some _ | None -> "usage: :replicas [N] with N a positive integer")
      | None -> assert false
    end
    else if line = ":metrics" then begin
      match t.sys with
      | None -> "no session yet"
      | Some sys ->
        let base = Format.asprintf "%a" System.pp_metrics (System.metrics sys) in
        (match Obs.Metrics.render () with
         | "" -> base
         | obs -> base ^ "\n-- observability --\n" ^ String.trim obs)
    end
    else if line = ":advice" then
      match t.last_advice with
      | None -> "no query answered yet"
      | Some a -> Format.asprintf "%a" Braid_advice.Ast.pp a
    else
      match strip_prefix "?-" line with
      | Some q -> handle_query t q
      | None ->
        (match strip_prefix ":caql" line with
         | Some q -> handle_caql t q
         | None ->
           (match strip_prefix ":explain" line with
            | Some q -> handle_explain t q
            | None ->
              (match strip_prefix ":load" line with
               | Some w -> handle_load t w
               | None ->
                 (match strip_prefix ":system" line with
                  | Some l -> handle_system t l
                  | None ->
                    (match strip_prefix ":strategy" line with
                     | Some l -> handle_strategy t l
                     | None ->
                       if String.length line > 0 && line.[0] = ':' then
                         "unknown command; :help lists them"
                       else begin
                         (* a clause: ground bodyless fact -> remote tuple;
                            otherwise a rule *)
                         match Braid_caql.Parser.parse_clause line with
                         | name, Braid_caql.Ast.Conj c
                           when c.Braid_caql.Ast.atoms = []
                                && c.Braid_caql.Ast.cmps = []
                                && List.for_all L.Term.is_const c.Braid_caql.Ast.head ->
                           add_fact t name
                             (List.filter_map
                                (function L.Term.Const v -> Some v | L.Term.Var _ -> None)
                                c.Braid_caql.Ast.head)
                         | _ ->
                           (* validate through the loader for better errors *)
                           ignore (Loader.kb_of_rules_text line);
                           t.clauses <- t.clauses @ [ line ];
                           invalidate t;
                           "rule added"
                       end)))))
  with
  | Braid_caql.Parser.Error m (* = Braid_advice.Parser.Error *) -> "error: " ^ m
  | Invalid_argument m -> "error: " ^ m
  | Not_found -> "error: not found"
  | Sys_error m -> "error: " ^ m
  | Braid_cache.Query_processor.Unknown_relation r -> "error: unknown relation " ^ r
