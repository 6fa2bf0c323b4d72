(* E16: sharded remote — partition pruning and per-shard fault isolation.

   Three legs, all deterministic (fixed seeds, simulated cost model):

   - "mix": the E13-style remote-bound query mix (loose coupling, so every
     query is a routed fetch) swept over 1/2/4/8 shards. Twelve queries pin
     b3's partition key to a constant (exactly one shard each), twelve
     filter a non-key column (fan-out), twelve are the paper's d2 join
     (gather: b3 slice pinned, b2 scattered, residual join at the router).
     Pruning shows up as scanned tuples falling while answers stay equal.

   - "soak": the E14 serving workload (Braid_serve.Soak, crash off) swept
     over the same shard counts — routing counters from a full multi-session
     run with coalescing and admission control in the loop.

   - "1-down": 4 shards, one poisoned with a 100% fault rate. Pinned
     queries on healthy partitions must stay Fresh (the brownout is
     confined to the sick slice); pinned queries owned by the sick shard
     and scatter queries that touch it degrade. *)

module L = Braid_logic
module T = L.Term
module V = Braid_relalg.Value
module A = Braid_caql.Ast
module Qpo = Braid_planner.Qpo
module Plan = Braid_planner.Plan
module TS = Braid_stream.Tuple_stream
module Server = Braid_remote.Server
module Catalog = Braid_remote.Catalog
module Fault = Braid_remote.Fault
module Rdi = Braid_remote.Rdi
module Router = Braid_remote.Shard_router

type row = {
  shards : int;
  queries : int;
  pinned : int;  (** requests the router answered from exactly one shard *)
  fanouts : int;
  gathers : int;
  shards_touched : int;
  shards_pruned : int;  (** shard-scans partition pruning avoided *)
  scanned : int;  (** shard executor scans + the router's residual joins *)
  fresh : int;
  degraded : int;
}

type soak_row = {
  sk_shards : int;
  sk_answered : int;
  sk_fresh : int;
  sk_degraded : int;
  sk_pinned : int;
  sk_fanouts : int;
  sk_gathers : int;
  sk_pruned : int;
  sk_remote_requests : int;
}

type avail = {
  av_shards : int;
  sick_shard : int;  (** the poisoned shard (owner of b3's "y0" slice) *)
  pinned_queries : int;
  healthy_fresh : int;
  healthy_degraded : int;  (** must be 0: pruning confines the brownout *)
  sick_queries : int;
  sick_degraded : int;
  scatter_queries : int;
  scatter_degraded : int;  (** fan-outs touch the sick shard, so all of them *)
}

let v x = T.Var x
let s x = T.Const (V.Str x)
let atom p args = L.Atom.make p args
let y k = Printf.sprintf "y%d" k

(* The same partition keys the serving workload uses: b1/b2 on their first
   column, b3 on its third (the column the paper's d2 family pins). *)
let partition_keys = [ ("b1", 0); ("b2", 0); ("b3", 2) ]

(* Pins b3's partition key: one shard. *)
let pinned_q k = A.conj [ v "X" ] [ atom "b3" [ v "X"; s "c2"; s (y k) ] ]

(* Filters a non-key column of b1: every shard scans its slice. *)
let fanout_q k = A.conj [ v "X" ] [ atom "b1" [ v "X"; s (y k) ] ]

(* The paper's d2 join: b3 pinned by key, b2 scattered, joined at the
   router (the shards cannot equate Z locally — it is not a partition
   key on either side). *)
let gather_q k =
  A.conj [ v "X" ] [ atom "b2" [ v "X"; v "Z" ]; atom "b3" [ v "Z"; s "c2"; s (y k) ] ]

let make_router ~data_seed ~size ~shards =
  let server = Server.create () in
  List.iter
    (Braid_remote.Engine.load (Server.engine server))
    (Braid_workload.Datagen.paper_example ~seed:data_seed ~size ());
  List.iter
    (fun (t, column) ->
      Catalog.set_partitioning (Server.catalog server) t
        (Some (Catalog.Hash { column })))
    partition_keys;
  Router.create ~shards server

let query_mix ~distinct =
  List.concat_map
    (fun mk -> List.init distinct mk)
    [ pinned_q; fanout_q; gather_q ]

let run_mix ~data_seed ~size ~distinct shards =
  let router = make_router ~data_seed ~size ~shards in
  (* Loose coupling: the cache absorbs nothing, so every query below is one
     routed remote fetch and the counters measure the router alone. *)
  let cms =
    Braid.Cms.create ~config:Qpo.loose_coupling_config ~router
      (Router.coordinator router)
  in
  let fresh = ref 0 and degraded = ref 0 in
  List.iter
    (fun q ->
      let a = Braid.Cms.query cms q in
      ignore (TS.to_relation a.Qpo.stream);
      match a.Qpo.provenance with
      | Plan.Fresh -> incr fresh
      | Plan.Degraded -> incr degraded)
    (query_mix ~distinct);
  let c = Router.counters router in
  let st = Router.stats router in
  {
    shards;
    queries = c.Router.requests;
    pinned = c.Router.pinned;
    fanouts = c.Router.fanouts;
    gathers = c.Router.gathers;
    shards_touched = c.Router.shards_touched;
    shards_pruned = c.Router.shards_pruned;
    scanned = st.Server.tuples_scanned + c.Router.gather_scanned;
    fresh = !fresh;
    degraded = !degraded;
  }

(* The sharded CI leg at [shards] with 4 sessions, the crash off. *)
let run_soak ~seed ~waves shards =
  let module Soak = Braid_serve.Soak in
  let leg = List.assoc "sharded" Soak.legs in
  let r = Soak.run { leg with shards; sessions = 4; faults = Soak.Flaky } ~seed ~waves in
  let routed f = match r.Soak.route with Some c -> f c | None -> 0 in
  {
    sk_shards = shards;
    sk_answered = r.Soak.answered;
    sk_fresh = r.Soak.fresh;
    sk_degraded = r.Soak.degraded;
    sk_pinned = routed (fun c -> c.Router.pinned);
    sk_fanouts = routed (fun c -> c.Router.fanouts);
    sk_gathers = routed (fun c -> c.Router.gathers);
    sk_pruned = routed (fun c -> c.Router.shards_pruned);
    sk_remote_requests = r.Soak.remote_requests;
  }

let run_one_down ~data_seed ~fault_seed ~size ~distinct () =
  let shards = 4 in
  let router = make_router ~data_seed ~size ~shards in
  let p = Catalog.Hash { column = 2 } in
  let owner k = Catalog.shard_of_value p ~shards (V.Str (y k)) in
  let sick = owner 0 in
  Router.set_faults router ~shard:sick
    (Some (Fault.flaky ~seed:fault_seed ~error_rate:1.0 ()));
  let cms =
    Braid.Cms.create ~config:Qpo.loose_coupling_config ~router
      (Router.coordinator router)
  in
  let degraded_of q =
    let a = Braid.Cms.query cms q in
    ignore (TS.to_relation a.Qpo.stream);
    match a.Qpo.provenance with Plan.Fresh -> false | Plan.Degraded -> true
  in
  let healthy_fresh = ref 0
  and healthy_degraded = ref 0
  and sick_queries = ref 0
  and sick_degraded = ref 0 in
  for k = 0 to distinct - 1 do
    let d = degraded_of (pinned_q k) in
    if owner k = sick then begin
      incr sick_queries;
      if d then incr sick_degraded
    end
    else if d then incr healthy_degraded
    else incr healthy_fresh
  done;
  let scatter_queries = 2 in
  let scatter_degraded = ref 0 in
  for k = 0 to scatter_queries - 1 do
    if degraded_of (fanout_q k) then incr scatter_degraded
  done;
  {
    av_shards = shards;
    sick_shard = sick;
    pinned_queries = distinct;
    healthy_fresh = !healthy_fresh;
    healthy_degraded = !healthy_degraded;
    sick_queries = !sick_queries;
    sick_degraded = !sick_degraded;
    scatter_queries;
    scatter_degraded = !scatter_degraded;
  }

let run ?(seed = 5) ?(size = 120) ?(distinct = 12) ?(waves = 120) () =
  let counts = [ 1; 2; 4; 8 ] in
  let mix_rows = List.map (run_mix ~data_seed:46 ~size ~distinct) counts in
  let soak_rows = List.map (run_soak ~seed ~waves) counts in
  let avail = run_one_down ~data_seed:46 ~fault_seed:11 ~size ~distinct () in
  let cell_int n = Table.Int n in
  let mix_cells r =
    [
      Table.Text "mix";
      cell_int r.shards;
      cell_int r.queries;
      cell_int r.pinned;
      cell_int r.fanouts;
      cell_int r.gathers;
      cell_int r.shards_pruned;
      cell_int r.scanned;
      cell_int r.fresh;
      cell_int r.degraded;
    ]
  in
  let soak_cells r =
    [
      Table.Text "soak";
      cell_int r.sk_shards;
      cell_int r.sk_answered;
      cell_int r.sk_pinned;
      cell_int r.sk_fanouts;
      cell_int r.sk_gathers;
      cell_int r.sk_pruned;
      Table.Text "-";
      cell_int r.sk_fresh;
      cell_int r.sk_degraded;
    ]
  in
  let avail_cells a =
    [
      Table.Text "1-down";
      cell_int a.av_shards;
      cell_int (a.pinned_queries + a.scatter_queries);
      cell_int a.pinned_queries;
      cell_int a.scatter_queries;
      cell_int 0;
      Table.Text "-";
      Table.Text "-";
      cell_int a.healthy_fresh;
      cell_int (a.sick_degraded + a.healthy_degraded + a.scatter_degraded);
    ]
  in
  let rows =
    List.map mix_cells mix_rows
    @ List.map soak_cells soak_rows
    @ [ avail_cells avail ]
  in
  let table =
    Table.make
      ~title:
        "E16  sharded remote — partition-pruned scatter-gather over 1/2/4/8 \
         shards, one-shard-down availability"
      ~columns:
        [
          "workload";
          "shards";
          "answered";
          "pinned";
          "fan-out";
          "gather";
          "pruned";
          "scanned";
          "fresh";
          "degraded";
        ]
      ~notes:
        [
          "mix: 12 partition-key-pinned + 12 non-key fan-out + 12 gather-join \
           queries under loose coupling — every query is one routed fetch; \
           each pinned query charges exactly one shard, pruned counts the \
           shard-scans routing skipped, and the gather rows pay the scatter \
           cost on the join's un-pinned side while every answer stays Fresh \
           and equal across shard counts";
          "soak: the E14 multi-session serving workload over the same router \
           (crash off) — routing counters with coalescing and admission \
           control in the loop";
          Printf.sprintf
            "1-down: shard %d poisoned at 100%% fault rate; the %d pinned \
             queries on healthy partitions all stay Fresh (healthy_degraded = \
             %d), only the sick slice and the %d scatter queries degrade"
            avail.sick_shard avail.healthy_fresh avail.healthy_degraded
            avail.scatter_queries;
          "deterministic: hash partitioning is seed-free, per-shard RDI and \
           fault seeds are fixed offsets, merges happen in shard order — \
           byte-identical across runs";
        ]
      rows
  in
  ((mix_rows, soak_rows, avail), table)
