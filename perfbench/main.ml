(* The end-to-end benchmark: three seeded, fixed-work workloads driven
   through the public APIs ([Braid.System], [Braid.Cms],
   [Braid_serve.Scheduler]) and timed from outside.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   A run replays one fixed op sequence until [--seconds] have passed (and
   at least [min_replays] times), each replay in a forked child that builds
   a fresh system. Latencies are statistics over each op's best latency
   across the replays: on a small shared VM slow phases start at random
   points and last from a second to a whole run, so a per-op minimum
   filters much of them out, while the work itself repeats exactly (the
   determinism gate checks that, because wall-clock numbers from differing
   work cannot be compared). Answers are checked against references
   computed after the timed replays. See README.md next to this file.

   With [--trace 0] the last stdout line carries the end-to-end metrics.
   With [--trace 1] the replays alternate between untraced and traced
   (a fresh [Braid_obs.Trace] per op), wrappers time the calls into each
   layer's public functions, and the last line carries the per-layer
   metrics, including the tracing overhead. *)

module R = Braid_relalg
module V = R.Value
module A = Braid_caql.Ast
module L = Braid_logic
module Sys_ = Braid.System
module Cms = Braid.Cms
module Server = Braid_remote.Server
module Qpo = Braid_planner.Qpo
module Cache_manager = Braid_cache.Cache_manager
module Journal = Braid_cache.Journal
module Scheduler = Braid_serve.Scheduler
module Coalescer = Braid_serve.Coalescer
module Metrics = Braid_obs.Metrics
module Trace = Braid_obs.Trace
module Prng = Braid_prng.Prng
module Datagen = Braid_workload.Datagen
module Queries = Braid_workload.Queries
module Kbgen = Braid_workload.Kbgen

let min_replays = 3
let max_replays = 40

(* ---------------------------------------------------------------- clock *)

let now = Monotonic_clock.now
let ms_since t0 = Int64.to_float (Int64.sub (now ()) t0) /. 1e6

(* Nearest-rank percentile of an ascending array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let sorted_of a =
  let s = Array.copy a in
  Array.sort compare s;
  s

let sum = Array.fold_left ( +. ) 0.0

(* -------------------------------------------------------------- answers *)

(* Answers are compared as sets: IE strategies may return duplicates (the
   interpretive suite keeps them, as Prolog does) and the references are
   set-valued fixpoints. *)
let tuple_set rel =
  R.Relation.to_list rel
  |> List.map (fun t -> String.concat "\031" (List.map V.to_string (R.Tuple.to_list t)))
  |> List.sort_uniq compare

let digest set = Digest.string (String.concat "\030" set)

(* What one op gave, as checked against its reference after the replays:
   a fresh answer must equal the reference; a [Degraded] answer (read from
   cache elements that a write stale-marked) must be a subset of it — the
   invariant docs/CONSISTENCY.md defines and [Braid_check.Oracle] checks. *)
type answer =
  | Written  (** a write that took effect *)
  | Exact of string  (** digest of a fresh answer's tuple set *)
  | Subset of string list  (** a degraded answer's tuple set *)
  | Failed of string

(* [subset a b] for ascending lists without duplicates. *)
let rec subset a b =
  match (a, b) with
  | [], _ -> true
  | _, [] -> false
  | x :: a', y :: b' ->
    let c = compare x y in
    if c = 0 then subset a' b' else if c > 0 then subset a b' else false

let answer_ok ~reference = function
  | Written -> reference = []
  | Exact d -> d = digest reference
  | Subset set -> subset set reference
  | Failed _ -> false

let raised e = "raised " ^ Printexc.to_string e

(* ------------------------------------------------------------ workloads *)

type op =
  | Goal of L.Atom.t  (** one [System.solve_all] *)
  | Read of A.conj  (** one scheduled CAQL query *)
  | Write of { insert : bool; table : string; row : R.Tuple.t }

type replay = {
  setup_s : float list;  (** one per build *)
  lat : float array;  (** per op, ms *)
  answers : answer array;
  series : (string * float array) list;
      (** per-item times inside wrapped layer calls, ms; empty unless the
          wrappers are installed *)
  counts : (string * float) list;  (** deterministic per-layer counts *)
  gc : (string * float) list;
      (** allocation counts, reported but not gated: minor words differ by
          a few hundredths of a percent between identical replays of the
          set-oriented tier, and the major GC's collection count with the
          heap inherited from the parent *)
  spans : (string, int) Hashtbl.t;  (** span and instant counts by name *)
  live_words : int;  (** live heap after the last op, after a full major GC *)
  events : float;  (** counter increments plus histogram observations *)
}

type workload = {
  name : string;
  ops : op array;
  sizes : string;
  replay : traced:bool -> wrap:bool -> replay;
  reference : unit -> string list array;  (** expected tuple set per op; [] for writes *)
}

let describe = function
  | Goal g -> Format.asprintf "%a" L.Atom.pp g
  | Read q -> A.conj_to_string q
  | Write { insert; table; row } ->
    Format.asprintf "%s %s%a" (if insert then "insert into" else "delete from") table R.Tuple.pp row

let primary op = match op with Goal _ | Read _ -> true | Write _ -> false

(* A fresh tracer per op keeps span memory bounded whatever the run length;
   the counts are folded into the replay's table once the op's timer has
   stopped. *)
let begin_trace traced =
  if traced then begin
    let tr = Trace.create () in
    Trace.install tr;
    Some tr
  end
  else None

let end_trace spans = function
  | None -> ()
  | Some tr ->
    Trace.uninstall ();
    List.iter
      (fun (s : Trace.span) ->
        Hashtbl.replace spans s.Trace.name
          (1 + Option.value ~default:0 (Hashtbl.find_opt spans s.Trace.name)))
      (Trace.spans tr)

let registry_counts () =
  List.filter_map
    (function
      | Metrics.Counter { name; value } -> Some (name, float_of_int value)
      | Metrics.Histogram { name; count; _ } -> Some (name ^ ".count", float_of_int count)
      | Metrics.Gauge _ -> None)
    (Metrics.snapshot ())

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let events registry = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 registry

let gc_delta (g0 : Gc.stat) =
  let g1 = Gc.quick_stat () in
  [
    ("gc.minor_words", g1.Gc.minor_words -. g0.Gc.minor_words);
    ("gc.major_collections", float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
  ]

let cms_counts cms =
  let remote = Cms.remote_stats cms in
  let cache = Cache_manager.stats (Cms.cache cms) in
  let delta = Cms.delta_totals cms in
  [
    ("remote.requests", float_of_int remote.Server.requests);
    ("remote.tuples_returned", float_of_int remote.Server.tuples_returned);
    ("remote.tuples_scanned", float_of_int remote.Server.tuples_scanned);
    ("cache.insertions", float_of_int cache.Cache_manager.insertions);
    ("cache.evictions_total", float_of_int cache.Cache_manager.evictions);
    ("cache.tuples_touched", float_of_int cache.Cache_manager.tuples_touched);
    ( "cache.elements_end",
      float_of_int (Cms.cache_summary cms).Braid_cache.Cache_model.element_count );
    ("cache.journal_entries", float_of_int (Journal.length (Cms.journal cms)));
    ("cache.delta.maintained", float_of_int delta.Braid_cache.Maintain.maintained);
    ("cache.delta.fallback_total", float_of_int delta.Braid_cache.Maintain.fallbacks);
  ]

(* Installs a fetch hook that times every remote fetch; [inner] is what the
   planner would have called without the hook. *)
let time_fetches cms acc inner =
  Cms.set_fetcher cms
    (Some
       (fun def sql ->
         let t = now () in
         Fun.protect ~finally:(fun () -> acc := !acc +. ms_since t) (fun () -> inner def sql)))

(* Set-up times are a millisecond or less, so each replay builds its system
   [setup_reps] times from freshly generated inputs and keeps the last. The
   registry is reset and the heap compacted before the ops run. *)
let setup_reps = 10

let set_up ~inputs ~build =
  let rec go k times =
    let x = inputs () in
    let t0 = now () in
    let sys = build x in
    let times = (ms_since t0 /. 1000.0) :: times in
    if k <= 1 then (sys, times) else go (k - 1) times
  in
  let sys, times = go setup_reps [] in
  Metrics.reset ();
  Gc.compact ();
  (sys, times)

(* IE workloads: each op is one [System.solve_all] over a system built from
   freshly generated data. *)
let ie_replay ~kb ~data ~config ~strategy ops ~traced ~wrap =
  let sys, setup_s =
    set_up
      ~inputs:(fun () -> (kb (), data ()))
      ~build:(fun (kb, data) -> Sys_.build ~config ~strategy ~kb ~data ())
  in
  let cms = Sys_.cms sys in
  let fetch_acc = ref 0.0 in
  if wrap then time_fetches cms fetch_acc (fun _ sql -> Cms.exec_remote cms sql);
  let n = Array.length ops in
  let lat = Array.make n 0.0 and answers = Array.make n Written in
  let fetch = Array.make n 0.0 in
  let spans = Hashtbl.create 16 in
  let g0 = Gc.quick_stat () in
  Array.iteri
    (fun i op ->
      match op with
      | Goal g ->
        fetch_acc := 0.0;
        let tr = begin_trace traced in
        let t = now () in
        let answer = match Sys_.solve_all sys g with rel -> Ok rel | exception e -> Error e in
        lat.(i) <- ms_since t;
        end_trace spans tr;
        fetch.(i) <- !fetch_acc;
        answers.(i) <-
          (match answer with
           | Ok rel -> Exact (digest (tuple_set rel))
           | Error e -> Failed (raised e))
      | Read _ | Write _ -> invalid_arg "ie_replay: not a goal")
    ops;
  let gc = gc_delta g0 in
  let registry = registry_counts () in
  let counts = registry @ cms_counts cms in
  let series = if wrap then [ ("remote.fetch", fetch) ] else [] in
  {
    setup_s;
    lat;
    answers;
    series;
    counts;
    gc;
    spans;
    live_words = live_words ();
    events = events registry;
  }

(* The reference answer of each goal: a fault-free local fixpoint straight
   over the generated extensions, never through the CMS (once per distinct
   goal). *)
let ie_reference ~kb ~data ops () =
  let rels = data () in
  let base name = List.find_opt (fun r -> R.Relation.name r = name) rels in
  let kb = kb () in
  let memo = Hashtbl.create 64 in
  Array.map
    (function
      | Goal g ->
        let key = describe (Goal g) in
        (match Hashtbl.find_opt memo key with
         | Some set -> set
         | None ->
           let set = tuple_set (Braid_ie.Datalog.solve kb ~base g).Braid_ie.Datalog.result in
           Hashtbl.add memo key set;
           set)
      | Read _ | Write _ -> [])
    ops

(* Every workload runs over a fixed database and a fixed multiset of ops
   (the generators' own seeds); [--seed] permutes the ops within
   consecutive blocks of [block]. Drawing the database, the op mix or a
   free order from the seed moved ops/s by up to 30% and the IE tail by
   40% between seeds — variation between inputs, which would hide a change
   to the program (the IE's cost per goal grows as its cache fills, so
   where in the run the expensive goals land matters). *)
let block = 10

let block_shuffle ~seed xs =
  let prng = Prng.create seed in
  let rec go acc = function
    | [] -> List.concat (List.rev acc)
    | xs ->
      let chunk = List.filteri (fun i _ -> i < block) xs in
      let rest = List.filteri (fun i _ -> i >= block) xs in
      go (Prng.shuffle prng chunk :: acc) rest
  in
  go [] xs

let goal_stream ~seed goals = Array.of_list (List.map (fun g -> Goal g) (block_shuffle ~seed goals))

(* telecom_session: the paper's own setting at a larger scale —
   interpretive IE with full advice over a provisioning database. SLD
   resolution, QPO advice and subsumption, and the cache do almost all the
   work; remote fetches are a fraction of a percent of wall time, so a
   remote-side change should show no change here. *)
let telecom_session ~seed =
  let offices = 30 and customers = 100 and orders = 100 and goals = 1000 in
  let data () = Datagen.telecom ~offices ~customers ~orders () in
  let ops = goal_stream ~seed (Queries.telecom_batch ~orders ~offices ~n:goals ()) in
  {
    name = "telecom_session";
    ops;
    sizes =
      Printf.sprintf "%d offices, %d customers, %d orders; %d goals" offices customers orders
        goals;
    replay =
      ie_replay ~kb:Kbgen.telecom ~data ~config:Qpo.braid_config
        ~strategy:Braid_ie.Strategy.Interpretive ops;
    reference = ie_reference ~kb:Kbgen.telecom ~data ops;
  }

(* ancestor_closure: the set-oriented tier (magic sets plus semi-naive
   Datalog fed by conjunctive fetches) over a family forest with a Zipf
   goal stream and no advice. Datalog hash-set work dominates and the tail
   is heavy (the ancestors of roots have large closures). *)
let ancestor_closure ~seed =
  let persons = 200 and goals = 1000 in
  let data () = Datagen.family ~persons ~fanout:3 () in
  let ops = goal_stream ~seed (Queries.ancestor_batch ~persons ~n:goals ~skew:0.5 ()) in
  {
    name = "ancestor_closure";
    ops;
    sizes = Printf.sprintf "%d persons, fanout 3; %d goals, Zipf skew 0.5" persons goals;
    replay =
      ie_replay ~kb:Kbgen.ancestor ~data ~config:Qpo.no_advice_config
        ~strategy:Braid_ie.Strategy.Set_oriented ops;
    reference = ie_reference ~kb:Kbgen.ancestor ~data ops;
  }

(* serve_rw: two cooperative sessions on the scheduler in a closed loop —
   a session submits its next read only after its reply arrives, so each
   wave carries one read per session — with single-tuple writes between
   waves through the IVM write path. The cache is smaller than the working
   set and no faults are injected. *)
let sessions = 2

type serve_sizes = { suppliers : int; parts : int; shipments : int; waves : int; capacity : int }

let serve_sizes =
  { suppliers = 100; parts = 400; shipments = 2500; waves = 500; capacity = 256 * 1024 }

let gen_read prng sz =
  let cities = [ "athens"; "paris"; "london"; "oslo"; "rome" ] in
  let city = List.nth cities (Prng.zipf prng ~n:5 ~skew:1.0) in
  let color = List.nth [ "red"; "green"; "blue"; "black" ] (Prng.zipf prng ~n:4 ~skew:1.0) in
  let sup = Printf.sprintf "sup%d" (Prng.zipf prng ~n:sz.suppliers ~skew:1.0) in
  let prt = Printf.sprintf "prt%d" (Prng.zipf prng ~n:sz.parts ~skew:1.0) in
  let text =
    match Prng.int prng 6 with
    | 0 -> Printf.sprintf "q(S) :- supplier(S, %s)." city
    | 1 -> Printf.sprintf "q(P, W) :- part(P, %s, W) & W > %d." color (10 * Prng.int prng 9)
    | 2 -> Printf.sprintf "q(P, Q) :- supplies(%s, P, Q)." sup
    | 3 -> Printf.sprintf "q(S, P) :- supplies(S, P, Q) & part(P, %s, W)." color
    | 4 -> Printf.sprintf "q(S, Q) :- supplier(S, %s) & supplies(S, %s, Q)." city prt
    | _ ->
      Printf.sprintf "q(S, P) :- supplier(S, %s) & supplies(S, P, Q) & part(P, %s, W)." city
        color
  in
  match Braid_caql.Parser.parse_query text with
  | A.Conj c -> c
  | _ -> invalid_arg ("gen_read: not conjunctive: " ^ text)

(* About one write per two waves (a fifth of all ops): 70% inserts, 30%
   deletes of rows inserted earlier, so every delete names a row the
   remote holds. *)
let gen_serve_ops prng sz =
  let live = ref [] and fresh = ref 0 in
  let write () =
    match !live with
    | _ :: _ when Prng.bool prng 0.3 ->
      let i = Prng.int prng (List.length !live) in
      let table, row = List.nth !live i in
      live := List.filteri (fun j _ -> j <> i) !live;
      Write { insert = false; table; row }
    | _ ->
      incr fresh;
      let table, row =
        if Prng.bool prng 0.2 then
          ( "part",
            [| V.Str (Printf.sprintf "prt_new%d" !fresh);
               V.Str (List.nth [ "red"; "green"; "blue"; "black" ] (Prng.int prng 4));
               V.Int (1 + Prng.int prng 99) |] )
        else
          ( "supplies",
            [| V.Str (Printf.sprintf "sup%d" (Prng.zipf prng ~n:sz.suppliers ~skew:1.0));
               V.Str (Printf.sprintf "prt%d" (Prng.int prng sz.parts));
               V.Int (1 + Prng.int prng 400) |] )
      in
      live := (table, row) :: !live;
      Write { insert = true; table; row }
  in
  List.init sz.waves (fun _ ->
      let reads = List.init sessions (fun _ -> Read (gen_read prng sz)) in
      let writes = if Prng.bool prng 0.5 then [ write () ] else [] in
      reads @ writes)

let serve_replay ~seed ~data ~sz ops ~traced ~wrap =
  let (cms, sched, sids), setup_s =
    set_up ~inputs:data ~build:(fun rels ->
        let server = Server.create () in
        List.iter (Braid_remote.Engine.load (Server.engine server)) rels;
        let cms =
          Cms.create ~config:Qpo.braid_config ~capacity_bytes:sz.capacity ~maintain:true server
        in
        let sched = Scheduler.create ~seed cms in
        let sids =
          Array.init sessions (fun _ ->
              Scheduler.add_session sched { Braid_advice.Ast.specs = []; path = None })
        in
        (cms, sched, sids))
  in
  let fetch_acc = ref 0.0 in
  let coalescer = Scheduler.coalescer sched in
  if wrap then time_fetches cms fetch_acc (Coalescer.fetch coalescer);
  let n = Array.length ops in
  let lat = Array.make n 0.0 and answers = Array.make n Written in
  let fetch = Array.make n 0.0 and job = Array.make n 0.0 in
  let waves = ref [] in
  let spans = Hashtbl.create 16 in
  let g0 = Gc.quick_stat () in
  let i = ref 0 in
  while !i < n do
    (* one wave: the next read of every session, then the writes after it *)
    let first = !i in
    let replies = Array.make sessions None in
    fetch_acc := 0.0;
    let tr = begin_trace traced in
    let start = now () in
    let last = ref start in
    Array.iteri
      (fun s sid ->
        match ops.(first + s) with
        | Read q ->
          let on_reply outcome =
            let t = now () in
            let reply =
              match outcome with
              | Scheduler.Answered a -> (
                match Braid_stream.Tuple_stream.to_relation a.Qpo.stream with
                | rel -> Ok (rel, a.Qpo.provenance)
                | exception e -> Error (raised e))
              | Scheduler.Goal_answered rel -> Ok (rel, Braid_planner.Plan.Fresh)
              | Scheduler.Shed _ -> Error "shed"
            in
            lat.(first + s) <- Int64.to_float (Int64.sub t start) /. 1e6;
            job.(first + s) <- Int64.to_float (Int64.sub t !last) /. 1e6;
            last := t;
            replies.(s) <- Some reply
          in
          (match Scheduler.submit sched ~sid ~prefer_lazy:false ~on_reply q with
           | `Queued -> ()
           | `Shed -> replies.(s) <- Some (Error "shed"))
        | Goal _ | Write _ -> invalid_arg "serve_replay: wave does not start with reads")
      sids;
    (match Scheduler.step sched with
     | _ -> ()
     | exception e ->
       Array.iteri
         (fun s r -> if r = None then replies.(s) <- Some (Error (raised e)))
         replies);
    waves := ms_since start :: !waves;
    end_trace spans tr;
    (* the wave's fetch time, attributed evenly to its reads *)
    for s = 0 to sessions - 1 do
      fetch.(first + s) <- !fetch_acc /. float_of_int sessions;
      answers.(first + s) <-
        (match replies.(s) with
         | Some (Ok (rel, Braid_planner.Plan.Fresh)) -> Exact (digest (tuple_set rel))
         | Some (Ok (rel, Braid_planner.Plan.Degraded)) -> Subset (tuple_set rel)
         | Some (Error why) -> Failed why
         | None -> Failed "no reply")
    done;
    i := first + sessions;
    while !i < n && not (primary ops.(!i)) do
      (match ops.(!i) with
       | Write { insert; table; row } ->
         fetch_acc := 0.0;
         let tr = begin_trace traced in
         let t = now () in
         let outcome =
           match
             if insert then (Cms.apply_insert cms table row; true)
             else Cms.apply_delete cms table row
           with
           | true -> Written
           | false -> Failed "delete of an absent row"
           | exception e -> Failed (raised e)
         in
         lat.(!i) <- ms_since t;
         end_trace spans tr;
         fetch.(!i) <- !fetch_acc;
         answers.(!i) <- outcome
       | Goal _ | Read _ -> ());
      incr i
    done
  done;
  let gc = gc_delta g0 in
  let cstats = Coalescer.stats coalescer in
  let registry = registry_counts () in
  let counts =
    registry @ cms_counts cms
    @ [
        ("serve.shed_total", float_of_int (Scheduler.shed_total sched));
        ("serve.coalesce.requests", float_of_int cstats.Coalescer.requests);
        ("serve.coalesce.hits",
         float_of_int (cstats.Coalescer.identical_hits + cstats.Coalescer.subsumed_hits));
        ("serve.waves", float_of_int cstats.Coalescer.rounds);
      ]
  in
  let series =
    if wrap then
      [
        ("remote.fetch", fetch);
        ("serve.job", job);
        ("serve.wave", Array.of_list (List.rev !waves));
      ]
    else []
  in
  {
    setup_s;
    lat;
    answers;
    series;
    counts;
    gc;
    spans;
    live_words = live_words ();
    events = events registry;
  }

(* The expected answers: the same op sequence against a bare server —
   writes applied to its tables, reads evaluated directly over them by the
   consistency oracle. *)
let serve_reference ~data ops () =
  let server = Server.create () in
  let engine = Server.engine server in
  List.iter (Braid_remote.Engine.load engine) (data ());
  let oracle = Braid_check.Oracle.create server in
  Array.map
    (function
      | Read q -> tuple_set (Braid_check.Oracle.ground_truth oracle q)
      | Write { insert = true; table; row } ->
        Braid_remote.Engine.insert engine table row;
        []
      | Write { insert = false; table; row } ->
        ignore (Braid_remote.Engine.delete engine table row);
        []
      | Goal _ -> invalid_arg "serve_reference: goal")
    ops

let serve_rw ~seed =
  let sz = serve_sizes in
  let data () =
    Datagen.supplier_parts ~suppliers:sz.suppliers ~parts:sz.parts ~shipments:sz.shipments ()
  in
  let ops = List.concat (gen_serve_ops (Prng.create 0) sz) in
  (* only the reads are permuted: a delete must follow its insert *)
  let reads = ref (block_shuffle ~seed (List.filter primary ops)) in
  let next_read () =
    match !reads with
    | r :: rest ->
      reads := rest;
      r
    | [] -> invalid_arg "serve_rw: read slots exceed reads"
  in
  let ops = Array.of_list (List.map (fun op -> if primary op then next_read () else op) ops) in
  {
    name = "serve_rw";
    ops;
    sizes =
      Printf.sprintf "%d suppliers, %d parts, %d shipments; %d waves x %d sessions; cache %d KiB"
        sz.suppliers sz.parts sz.shipments sz.waves sessions (sz.capacity / 1024);
    replay = serve_replay ~seed ~data ~sz ops;
    reference = serve_reference ~data ops;
  }

let workloads =
  [
    ("telecom_session", telecom_session);
    ("ancestor_closure", ancestor_closure);
    ("serve_rw", serve_rw);
  ]

(* ----------------------------------------------------------- measuring *)

(* The best (lowest) value of each item across replays. *)
let best_of arrays =
  match arrays with
  | [] -> [||]
  | a :: rest -> List.fold_left (fun acc b -> Array.map2 Float.min acc b) (Array.copy a) rest

let median xs = percentile (sorted_of (Array.of_list xs)) 0.5

(* Counts must be identical across replays; [what] names the kind. *)
let check_same what (replays : (string * float) list list) =
  match replays with
  | [] -> []
  | first :: rest ->
    List.concat_map
      (fun other ->
        List.filter_map
          (fun (name, v) ->
            match List.assoc_opt name other with
            | Some v' when v' = v -> None
            | Some v' -> Some (Printf.sprintf "%s %s: %.0f vs %.0f" what name v v')
            | None -> Some (Printf.sprintf "%s %s: missing in a replay" what name))
          first)
      rest

(* The counts recorded by an earlier run of this very executable with the
   same workload and seed must match this run's. *)
let check_across_runs ~key counts =
  let exe = Digest.to_hex (Digest.file Sys.executable_name) in
  let dir = Filename.concat "_build" "perfbench-counts" in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let file = Filename.concat dir (Printf.sprintf "%s-%s.txt" key (String.sub exe 0 12)) in
  let render = String.concat "" (List.map (fun (k, v) -> Printf.sprintf "%s %.0f\n" k v) counts) in
  if Sys.file_exists file then begin
    let ic = open_in_bin file in
    let previous = really_input_string ic (in_channel_length ic) in
    close_in ic;
    if previous = render then []
    else
      let parse s =
        List.filter_map
          (fun line ->
            match String.rindex_opt line ' ' with
            | Some j ->
              let value = String.sub line (j + 1) (String.length line - j - 1) in
              Some (String.sub line 0 j, float_of_string value)
            | None -> None)
          (String.split_on_char '\n' s)
      in
      check_same "across runs" [ parse previous; counts ]
  end
  else begin
    let oc = open_out_bin file in
    output_string oc render;
    close_out oc;
    []
  end

(* The cost of one [Metrics.incr], from timing a loop of calls (best of
   five rounds); the probe counter is dropped afterwards. *)
let incr_ns () =
  let n = 200_000 in
  let best = ref infinity in
  for _ = 1 to 5 do
    let t = now () in
    for _ = 1 to n do
      Metrics.incr "perfbench.probe"
    done;
    best := Float.min !best (ms_since t *. 1e6 /. float_of_int n)
  done;
  Metrics.reset ();
  !best

type metric = { name : string; unit_ : string; value : float }

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  let ms =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value) m.unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed (String.concat ", " ms)

(* Runs one replay in a forked child and returns its result. Every replay
   thus starts from the same heap: in one long-lived process the heap left
   behind by earlier replays made later ones slower and changed their GC
   counts. *)
let in_child (f : unit -> replay) : replay =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let oc = Unix.out_channel_of_descr wr in
    (* the heap inherited from the parent grows with the results it holds *)
    let inherited = live_words () in
    let status =
      match f () with
      | r ->
        Marshal.to_channel oc { r with live_words = r.live_words - inherited } [];
        close_out oc;
        0
      | exception e ->
        prerr_endline ("perfbench: replay raised " ^ Printexc.to_string e);
        1
    in
    Unix._exit status
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let result = try Some (Marshal.from_channel ic : replay) with End_of_file -> None in
    close_in ic;
    (match (Unix.waitpid [] pid, result) with
     | (_, Unix.WEXITED 0), Some r -> r
     | _ -> failwith "replay process failed")

let run (wl : workload) ~seed ~seconds ~trace =
  let deadline = Int64.add (now ()) (Int64.of_float (seconds *. 1e9)) in
  let rec loop k acc =
    if k >= max_replays || (k >= min_replays && now () >= deadline) then List.rev acc
    else begin
      (* untraced first, so the wrappers' times come from untraced replays *)
      let traced = trace && k mod 2 = 1 in
      let r = in_child (fun () -> wl.replay ~traced ~wrap:trace) in
      Printf.printf
        "replay %d%s: ops %.1f ms, live heap %d words, %.0f minor words, %.0f major GCs\n%!" k
        (if traced then " (traced)" else "")
        (sum r.lat) r.live_words
        (List.assoc "gc.minor_words" r.gc)
        (List.assoc "gc.major_collections" r.gc);
      loop (k + 1) ((traced, r) :: acc)
    end
  in
  let replays = loop 0 [] in
  let reference = wl.reference () in
  let n = Array.length wl.ops in
  let attempted = n * List.length replays in
  let mismatches =
    List.concat_map
      (fun (_, r) ->
        List.filter_map
          (fun i ->
            if answer_ok ~reference:reference.(i) r.answers.(i) then None
            else
              Some
                (Printf.sprintf "op %d (%s): %s" i (describe wl.ops.(i))
                   (match r.answers.(i) with
                    | Failed why -> why
                    | Written | Exact _ | Subset _ -> "answer differs from the reference")))
          (List.init n Fun.id))
      replays
  in
  let failed = List.length mismatches in
  let untraced = List.filter_map (fun (t, r) -> if t then None else Some r) replays in
  let traced = List.filter_map (fun (t, r) -> if t then Some r else None) replays in
  let all = List.map snd replays in
  let first = List.hd all in
  let counts0 = first.counts in
  let divergent =
    check_same "replays differ in" (List.map (fun r -> r.counts) all)
    @ check_same "replays differ in"
        (List.map (fun r -> [ ("heap.live_words", float_of_int r.live_words) ]) untraced)
    @ check_across_runs ~key:(Printf.sprintf "%s-seed%d" wl.name seed) counts0
  in
  List.iter
    (fun m -> prerr_endline ("perfbench: wrong answer: " ^ m))
    (List.filteri (fun i _ -> i < 10) mismatches);
  List.iter (fun m -> prerr_endline ("perfbench: nondeterministic count: " ^ m)) divergent;
  let correct = failed = 0 && divergent = [] in
  let is_primary = Array.map primary wl.ops in
  let pick mask a = Array.of_list (List.filteri (fun i _ -> mask.(i)) (Array.to_list a)) in
  let stats rs =
    let best = best_of (List.map (fun r -> r.lat) rs) in
    let prim = sorted_of (pick is_primary best) in
    let writes = sorted_of (pick (Array.map not is_primary) best) in
    (best, prim, writes, float_of_int n /. (sum best /. 1000.0))
  in
  let best, prim, writes, ops_per_s = stats untraced in
  let live_heap_mb = float_of_int (first.live_words * (Sys.word_size / 8)) /. 1048576.0 in
  let p50 = percentile prim 0.5 in
  let metrics =
    if not trace then
      [
        {
          name = "setup_s";
          unit_ = "s";
          value = median (List.concat_map (fun r -> r.setup_s) all);
        };
        { name = "ops_per_s"; unit_ = "1/s"; value = ops_per_s };
        { name = "op_p50_ms"; unit_ = "ms"; value = p50 };
        { name = "op_p99_ms"; unit_ = "ms"; value = percentile prim 0.99 };
        { name = "live_heap_mb"; unit_ = "MB"; value = live_heap_mb };
      ]
    else begin
      let c name = Option.value ~default:0.0 (List.assoc_opt name counts0) in
      let per_op x = x /. float_of_int n in
      let series name =
        match List.map (fun r -> List.assoc name r.series) untraced with
        | [] | (exception Not_found) -> 0.0
        | arrays -> sum (best_of arrays)
      in
      let ratio a b = if b = 0.0 then 0.0 else a /. b in
      let goals = Array.fold_left (fun k op -> match op with Goal _ -> k + 1 | _ -> k) 0 wl.ops in
      let waves = c "serve.waves" in
      let _, _, _, traced_ops_per_s = stats traced in
      let incr = incr_ns () in
      let spans =
        (* span counts per op, from the first traced replay *)
        match traced with
        | r :: _ -> Hashtbl.fold (fun k v acc -> (k, float_of_int v) :: acc) r.spans []
        | [] -> []
      in
      let span name =
        ratio (Option.value ~default:0.0 (List.assoc_opt name spans)) (float_of_int n)
      in
      let qpo_queries = c "qpo.queries" in
      let m name unit_ value = { name; unit_; value } in
      [
        (* on the IE workloads an op is one [System.solve_all]: [Engine.solve]
           plus draining its stream *)
        m "ie.solve_ms" "ms" (ratio (sum prim) (float_of_int goals));
        m "ie.resolutions_per_goal" "count" (ratio (c "ie.resolutions") (float_of_int goals));
        m "ie.set.rounds" "count" (c "ie.set.rounds");
        m "ie.set.fetched_tuples" "count" (c "ie.set.fetched_tuples");
        m "ie.set.magic_tuples" "count" (c "ie.set.magic_tuples");
        m "qpo.queries" "count" qpo_queries;
        m "qpo.queries_per_op" "count" (per_op qpo_queries);
        (* answered without the remote; exact hits are a subset *)
        m "qpo.hit_ratio" "ratio" (ratio (c "qpo.full_hits") qpo_queries);
        m "qpo.misses" "count" (c "qpo.misses");
        m "cache.tuples_touched_per_op" "count" (per_op (c "cache.tuples_touched"));
        m "cache.elements_end" "count" (c "cache.elements_end");
        m "cache.evictions" "count" (c "cache.evictions_total");
        m "cache.journal_entries" "count" (c "cache.journal_entries");
        m "cache.write_ms" "ms" (ratio (sum writes) (float_of_int (Array.length writes)));
        m "cache.delta.applied" "count" (c "cache.delta.applied");
        m "cache.delta.fallbacks" "count" (c "cache.delta.fallbacks");
        m "remote.fetch_ms" "ms" (per_op (series "remote.fetch"));
        m "remote.fetch_share" "ratio" (ratio (series "remote.fetch") (sum best));
        m "remote.requests_per_op" "count" (per_op (c "remote.requests"));
        m "remote.scanned_per_returned" "ratio"
          (ratio (c "remote.tuples_scanned") (c "remote.tuples_returned"));
        m "serve.wave_ms" "ms" (ratio (series "serve.wave") waves);
        m "serve.job_ms" "ms" (ratio (series "serve.job") (float_of_int (Array.length prim)));
        m "serve.coalesce_hit_ratio" "ratio"
          (ratio (c "serve.coalesce.hits") (c "serve.coalesce.requests"));
        m "serve.shed" "count" (c "serve.shed_total");
        m "serve.write_p50_ms" "ms" (percentile writes 0.5);
        m "serve.write_p99_ms" "ms" (percentile writes 0.99);
        m "gc.minor_words_per_op" "count"
          (per_op (List.assoc "gc.minor_words" (List.hd untraced).gc));
        m "gc.major_collections" "count" (List.assoc "gc.major_collections" (List.hd untraced).gc);
        m "obs.incr_ns" "ns" incr;
        m "obs.events_per_op" "count" (per_op first.events);
        m "obs.share_of_p50" "ratio" (ratio (incr *. per_op first.events) (p50 *. 1e6));
        m "trace.overhead" "ratio" (ratio ops_per_s traced_ops_per_s);
        m "error_rate" "ratio" (ratio (float_of_int failed) (float_of_int attempted));
        m "span.qpo.answer_per_op" "count" (span "qpo.answer");
        m "span.cache.eval_per_op" "count" (span "cache.eval");
        m "span.rdi.exec_per_op" "count" (span "rdi.exec");
        m "span.remote.exec_per_op" "count" (span "remote.exec");
        m "span.ie.solve_per_op" "count" (span "ie.solve");
        m "span.ie.set.solve_per_op" "count" (span "ie.set.solve");
        m "span.qpo.subsume_per_op" "count" (span "qpo.subsume");
        m "span.serve.session_per_op" "count" (span "serve.session");
      ]
    end
  in
  Printf.printf
    "workload %s: %s; %d replays (%d traced), %d ops each\nslowest ops (best of the replays):\n"
    wl.name wl.sizes (List.length replays) (List.length traced) n;
  List.sort (fun (a, _) (b, _) -> compare b a) (List.mapi (fun i l -> (l, i)) (Array.to_list best))
  |> List.filteri (fun k _ -> k < 12)
  |> List.iter (fun (l, i) -> Printf.printf "  %9.3f ms  op %4d  %s\n" l i (describe wl.ops.(i)));
  List.iter (fun m -> Printf.printf "  %-32s %14.6g %s\n" m.name m.value m.unit_) metrics;
  print_result ~correct ~attempted ~failed metrics;
  if correct then 0 else 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME telecom_session | ancestor_closure | serve_rw");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time per run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  match List.assoc_opt !workload workloads with
  | None ->
    prerr_endline ("perfbench: unknown workload " ^ !workload);
    exit 2
  | Some make -> exit (run (make ~seed:!seed) ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1))
