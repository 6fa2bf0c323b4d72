module R = Braid_relalg
module Obs = Braid_obs

type route =
  | Pinned of { shard : int; reason : [ `Key | `Home | `Colocated ] }
  | Fanout of int list
  | Gather of (Sql.source * int list) list

type counters = {
  mutable requests : int;
  mutable pinned : int;
  mutable fanouts : int;
  mutable gathers : int;
  mutable shards_touched : int;
  mutable shards_pruned : int;
  mutable gather_scanned : int;
  mutable failovers : int;
  mutable hinted_writes : int;
  mutable handoffs : int;
  mutable repairs : int;
}

(* One copy of a shard's slice. [server]/[r_rdi] are mutable only because a
   crash replaces the process ({!crash_replica}); [applied] is the durable
   replication-log offset that survives it. *)
type replica = {
  node : int;
  mutable server : Server.t;
  mutable r_rdi : Rdi.t;
  mutable applied : int;
  mutable hints : int;
  mutable repaired : int;
}

(* A single-tuple write, as carried by the replication log and reported to
   the write observer (the CMS taps this stream for incremental cache
   maintenance). *)
type write =
  | W_insert of string * R.Tuple.t
  | W_delete of string * R.Tuple.t

(* A shard's replica group: index 0 is the primary. The replication log is
   the per-shard write stream — append-only op-typed writes, newest first —
   and doubles as the hint queue: an entry a replica missed stays in the
   log until anti-entropy repair replays it from that replica's offset. *)
type group = {
  replicas : replica array;
  mutable rlog_rev : write list;
  mutable rlog_len : int;
  mutable base : (string * R.Relation.t) list;
      (* per-table slice snapshots from the last distribute — with the log
         prefix [0, applied), the durable state a crashed replica rebuilds *)
}

type replica_health = {
  rh_replica : int;
  rh_node : int;
  rh_lag : int;
  rh_partitioned : bool;
  rh_breaker : Rdi.breaker_state;
  rh_hints : int;
}

type t = {
  coordinator : Server.t;
  groups : group array;
  clock : Fault.clock;
  mutable base_policy : Rdi.policy;
  mutable on_write : (write -> unit) option;
  counters : counters;
}

let coordinator t = t.coordinator
let catalog t = Server.catalog t.coordinator
let cost_model t = Server.cost_model t.coordinator
let shard_count t = Array.length t.groups
let replica_count t = Array.length t.groups.(0).replicas
let shard t i = t.groups.(i).replicas.(0).server
let rdi t i = t.groups.(i).replicas.(0).r_rdi
let replica t ~shard r = t.groups.(shard).replicas.(r).server
let replica_rdi t ~shard r = t.groups.(shard).replicas.(r).r_rdi
let breakers t = Array.to_list (Array.map (fun g -> Rdi.breaker g.replicas.(0).r_rdi) t.groups)
let log_length t i = t.groups.(i).rlog_len
let applied t ~shard ~replica = t.groups.(shard).replicas.(replica).applied

(* The coordinator holds every table and takes every write before it is
   replicated. So a group whose only copy is the coordinator needs no
   slice, no snapshot and no replication log: nothing in it can lag. A
   fleet of that one group is the single server. *)
let is_coordinator t rep = rep.server == t.coordinator
let coordinator_only t g = Array.length g.replicas = 1 && is_coordinator t g.replicas.(0)
let coordinator_alone t = Array.length t.groups = 1 && coordinator_only t t.groups.(0)

(* Each replica's RDI gets its own jitter stream: decorrelated backoff, and
   — the point of per-replica policies — an independent breaker, so one
   sick copy tripping open never fast-fails requests bound for healthy
   ones. Replica 0 of shard [i] keeps PR 7's per-shard seed exactly, so an
   unreplicated router is bit-identical to the pre-replication one; replica
   0 of shard 0 runs the base policy itself, as the single server's one RDI
   always did, and set-up copies nothing for it. *)
let replica_policy policy i r =
  if i = 0 && r = 0 then policy
  else { policy with Rdi.seed = policy.Rdi.seed + (101 * i) + (10007 * r) }

(* Unpartitioned tables live whole on one deterministic home shard. *)
let home t name =
  if Array.length t.groups = 1 then 0
  else R.Value.hash (R.Value.Str name) mod Array.length t.groups

let owner_of_row t name tup =
  match Catalog.partitioning_of (catalog t) name with
  | None -> home t name
  | Some p ->
    let col = Catalog.partition_column p in
    Catalog.shard_of_value p ~shards:(Array.length t.groups) (R.Tuple.get tup col)

(* Replication-log entries [from, rlog_len), oldest first. *)
let log_suffix g ~from =
  let todo = g.rlog_len - from in
  if todo <= 0 then []
  else List.rev (List.filteri (fun k _ -> k < todo) g.rlog_rev)

(* Replay one log entry into a replica's engine. A delete that finds no
   matching row (already absent in a rebuilt copy) is a no-op — replay is
   idempotent in that direction, which is what crash rebuild relies on. *)
let apply_write engine = function
  | W_insert (name, tup) -> Engine.insert engine name tup
  | W_delete (name, tup) -> ignore (Engine.delete engine name tup)

(* Apply every outstanding log entry, reachability ignored: bulk admin
   (reslicing) runs with the fleet quiesced, and skipping a down replica
   here would strand its missed writes once the log resets below. *)
let force_catch_up g =
  Array.iter
    (fun rep ->
      List.iter
        (fun w -> apply_write (Server.engine rep.server) w)
        (log_suffix g ~from:rep.applied);
      rep.applied <- g.rlog_len)
    g.replicas

(* (Re)slice one coordinator table across the shards. Every replica gets
   the table registered — possibly with an empty slice — so a fanned-out
   request never hits an unknown-table error mid-scatter. A reslice
   re-baselines the group: the snapshot absorbs the old log, which then
   restarts empty with every replica at offset zero. *)
let distribute t name =
  let rel = Engine.table (Server.engine t.coordinator) name in
  let schema = R.Relation.schema rel in
  let n = Array.length t.groups in
  let slices = Array.make n [] in
  let add i tup = slices.(i) <- tup :: slices.(i) in
  (match Catalog.partitioning_of (catalog t) name with
   | None ->
     let h = home t name in
     R.Relation.iter (fun tup -> add h tup) rel
   | Some p ->
     let col = Catalog.partition_column p in
     R.Relation.iter
       (fun tup -> add (Catalog.shard_of_value p ~shards:n (R.Tuple.get tup col)) tup)
       rel);
  Array.iteri
    (fun i rows ->
      let g = t.groups.(i) in
      force_catch_up g;
      g.rlog_rev <- [];
      g.rlog_len <- 0;
      Array.iter (fun rep -> rep.applied <- 0; rep.hints <- 0) g.replicas;
      let slice = R.Relation.of_tuples ~name schema (List.rev rows) in
      g.base <- (name, slice) :: List.remove_assoc name g.base;
      (* Each replica owns a private copy: [Engine.insert] mutates in
         place, so sharing the slice would leak a primary's inline
         applies into its backups (and into the snapshot), silently
         hiding replication lag. The snapshot itself is never loaded
         into an engine and stays pristine for crash recovery. *)
      Array.iter
        (fun rep -> Engine.load (Server.engine rep.server) (R.Relation.copy slice))
        g.replicas)
    slices

let create ?(policy = Rdi.default_policy) ?replicas ~shards coordinator =
  if shards < 1 then invalid_arg "Shard_router.create: shards must be >= 1";
  let cat = Server.catalog coordinator in
  let replicas =
    match replicas with
    | Some r ->
      Catalog.set_replication cat r;
      r
    | None -> Catalog.replication cat
  in
  let cost = Server.cost_model coordinator in
  let groups =
    Array.init shards (fun i ->
        {
          replicas =
            Array.init replicas (fun r ->
                (* A 1×1 fleet is the single server: its one replica is the
                   coordinator, so no second copy of the data exists and
                   faults set on the coordinator reach every read. *)
                let server =
                  if shards = 1 && replicas = 1 then coordinator else Server.create ~cost ()
                in
                {
                  node = Catalog.replica_node ~shards i r;
                  server;
                  r_rdi = Rdi.create ~policy:(replica_policy policy i r) server;
                  applied = 0;
                  hints = 0;
                  repaired = 0;
                });
          rlog_rev = [];
          rlog_len = 0;
          base = [];
        })
  in
  let t =
    {
      coordinator;
      groups;
      clock = Fault.clock ();
      base_policy = policy;
      on_write = None;
      counters =
        {
          requests = 0;
          pinned = 0;
          fanouts = 0;
          gathers = 0;
          shards_touched = 0;
          shards_pruned = 0;
          gather_scanned = 0;
          failovers = 0;
          hinted_writes = 0;
          handoffs = 0;
          repairs = 0;
        };
    }
  in
  (* the coordinator alone holds every table already: nothing to slice *)
  if not (coordinator_alone t) then List.iter (distribute t) (Catalog.tables (catalog t));
  t

let load t ?partitioning rel =
  Engine.load (Server.engine t.coordinator) rel;
  (match partitioning with
   | Some _ as p -> Catalog.set_partitioning (catalog t) (R.Relation.name rel) p
   | None -> ());
  if not (coordinator_alone t) then distribute t (R.Relation.name rel)

let set_write_observer t f = t.on_write <- f

let notify_write t w = match t.on_write with Some f -> f w | None -> ()

(* Replicate one logical write through the owning group: the replication
   log appends it, and each replica applies it inline only when it is
   reachable AND already at the log head — applying out of order would
   diverge from a deterministic replay. Anything else becomes a hinted
   write, drained by {!tick_repair} on rejoin. Each (replica, write) pair
   costs one reachability heartbeat, which also advances the shared clock
   partitions heal against. A group whose only copy is the coordinator
   already holds the write and logs nothing. *)
let replicate t g w =
  if not (coordinator_only t g) then begin
    g.rlog_rev <- w :: g.rlog_rev;
    g.rlog_len <- g.rlog_len + 1;
    Array.iter
      (fun rep ->
        if Server.reachable rep.server && rep.applied = g.rlog_len - 1 then begin
          apply_write (Server.engine rep.server) w;
          rep.applied <- g.rlog_len
        end
        else begin
          rep.hints <- rep.hints + 1;
          t.counters.hinted_writes <- t.counters.hinted_writes + 1;
          Obs.Metrics.incr "shard.replica.hints"
        end)
      g.replicas
  end

(* Primary-path write: the coordinator (authority) takes the row, then the
   owning group replicates it. The write observer fires exactly once per
   logical write — replication-log applies (inline, repair, crash rebuild)
   are re-executions of the same write on other copies, not new writes. *)
let insert t name tup =
  Engine.insert (Server.engine t.coordinator) name tup;
  replicate t t.groups.(owner_of_row t name tup) (W_insert (name, tup));
  notify_write t (W_insert (name, tup))

(* A delete the coordinator does not hold is a no-op everywhere: the
   coordinator is the authority, so nothing is logged, replicated or
   observed. *)
let delete t name tup =
  let removed = Engine.delete (Server.engine t.coordinator) name tup in
  if removed then begin
    replicate t t.groups.(owner_of_row t name tup) (W_delete (name, tup));
    notify_write t (W_delete (name, tup))
  end;
  removed

(* --- routing --- *)

let all_shards t = List.init (Array.length t.groups) Fun.id

(* An equality in the WHERE clause pinning [alias.attr] to a constant. *)
let pinned_const (q : Sql.select) alias attr =
  List.find_map
    (fun ((cmp, a, b) : Sql.cond) ->
      if cmp <> R.Row_pred.Eq then None
      else
        match (a, b) with
        | Sql.Col c, Sql.Const v when c.Sql.src = alias && c.Sql.attr = attr -> Some v
        | Sql.Const v, Sql.Col c when c.Sql.src = alias && c.Sql.attr = attr -> Some v
        | _ -> None)
    q.Sql.where

let semijoin_on (q : Sql.select) alias attr =
  List.find_map
    (fun ((c, vs) : Sql.col * R.Value.t list) ->
      if c.Sql.src = alias && c.Sql.attr = attr then Some vs else None)
    q.Sql.semijoins

let sort_uniq_ints = List.sort_uniq Int.compare

(* The shards that can hold rows of [s] relevant to [q]: the single home
   shard for unpartitioned tables; the one shard a partition-key equality
   pins; the value-mapped subset for a partition-key semi-join filter;
   otherwise every shard. *)
let source_targets t (q : Sql.select) (s : Sql.source) =
  let cat = catalog t in
  match Catalog.partitioning_of cat s.Sql.table with
  | None -> [ home t s.Sql.table ]
  | Some p ->
    let shards = Array.length t.groups in
    (match Catalog.schema_of cat s.Sql.table with
     | None -> all_shards t
     | Some schema ->
       let attr = R.Schema.name_at schema (Catalog.partition_column p) in
       (match pinned_const q s.Sql.alias attr with
        | Some v -> [ Catalog.shard_of_value p ~shards v ]
        | None ->
          (match semijoin_on q s.Sql.alias attr with
           | Some vs ->
             (* an empty filter matches nothing — any one shard returns the
                (empty) answer; pick shard 0 for determinism *)
             (match sort_uniq_ints (List.map (Catalog.shard_of_value p ~shards) vs) with
              | [] -> [ 0 ]
              | is -> is)
           | None -> all_shards t)))

(* Are all sources co-partitioned on join keys the query equates? Then
   every joinable pair of rows lives on the same shard and the join is
   shard-local: scatter the whole query, union the slices. We require every
   source partitioned by the same scheme kind (identical bounds for range)
   and the partition columns pairwise connected through [a.x = b.y]
   equality conditions. *)
let colocated t (q : Sql.select) =
  let cat = catalog t in
  let keys =
    List.map
      (fun (s : Sql.source) ->
        match Catalog.partitioning_of cat s.Sql.table with
        | None -> None
        | Some p ->
          (match Catalog.schema_of cat s.Sql.table with
           | None -> None
           | Some schema ->
             Some (s, p, (s.Sql.alias, R.Schema.name_at schema (Catalog.partition_column p)))))
      q.Sql.from
  in
  if List.exists (fun k -> k = None) keys then None
  else begin
    let keys = List.filter_map Fun.id keys in
    let compatible =
      match keys with
      | [] -> false
      | (_, p0, _) :: rest ->
        List.for_all
          (fun (_, p, _) ->
            match (p0, p) with
            | Catalog.Hash _, Catalog.Hash _ -> true
            | Catalog.Range { bounds = b0; _ }, Catalog.Range { bounds = b; _ } ->
              List.length b0 = List.length b
              && List.for_all2 (fun x y -> R.Value.compare x y = 0) b0 b
            | (Catalog.Hash _ | Catalog.Range _), _ -> false)
          rest
    in
    if not compatible then None
    else begin
      (* connectivity of partition keys under the query's col=col equalities *)
      let eqs =
        List.filter_map
          (fun ((cmp, a, b) : Sql.cond) ->
            match (cmp, a, b) with
            | R.Row_pred.Eq, Sql.Col x, Sql.Col y ->
              Some ((x.Sql.src, x.Sql.attr), (y.Sql.src, y.Sql.attr))
            | _ -> None)
          q.Sql.where
      in
      let closure cls =
        let grow cls (x, y) =
          let cx = List.exists (fun c -> List.mem x c) cls in
          let cy = List.exists (fun c -> List.mem y c) cls in
          match (cx, cy) with
          | true, true ->
            let a = List.find (fun c -> List.mem x c) cls in
            let b = List.find (fun c -> List.mem y c) cls in
            if a == b then cls else (a @ b) :: List.filter (fun c -> c != a && c != b) cls
          | true, false ->
            List.map (fun c -> if List.mem x c then y :: c else c) cls
          | false, true ->
            List.map (fun c -> if List.mem y c then x :: c else c) cls
          | false, false -> [ x; y ] :: cls
        in
        List.fold_left grow cls eqs
      in
      let cls = closure (closure []) in
      let same_class a b =
        a = b || List.exists (fun c -> List.mem a c && List.mem b c) cls
      in
      match keys with
      | [] -> None
      | (_, _, k0) :: rest ->
        if List.for_all (fun (_, _, k) -> same_class k0 k) rest then Some keys
        else None
    end
  end

let route t (q : Sql.select) =
  if Array.length t.groups = 1 then Pinned { shard = 0; reason = `Home }
  else
    match q.Sql.from with
    | [ s ] ->
      (match source_targets t q s with
       | [ i ] ->
         let reason =
           if Catalog.partitioning_of (catalog t) s.Sql.table = None then `Home
           else `Key
         in
         Pinned { shard = i; reason }
       | is -> Fanout is)
    | sources ->
      let per_source = List.map (fun s -> (s, source_targets t q s)) sources in
      (match colocated t q with
       | Some _ ->
         (* shard-local join: intersect the per-source targets — a pinned
            source prunes the scatter for every co-partitioned peer *)
         let inter =
           List.fold_left
             (fun acc (_, is) -> List.filter (fun i -> List.mem i is) acc)
             (all_shards t) per_source
         in
         (match inter with
          | [ i ] -> Pinned { shard = i; reason = `Colocated }
          | [] ->
            (* conflicting pins on equated keys: provably empty; any pinned
               shard evaluates to the empty answer *)
            (match List.find_opt (fun (_, is) -> List.length is = 1) per_source with
             | Some (_, [ i ]) -> Pinned { shard = i; reason = `Colocated }
             | _ -> Fanout (all_shards t))
          | is -> Fanout is)
       | None ->
         (* not co-partitioned, but if every source independently resolves
            to the same single shard the join is still local to it *)
         let singles =
           List.map
             (fun (_, is) -> match is with [ i ] -> Some i | _ -> None)
             per_source
         in
         (match singles with
          | Some i :: rest when List.for_all (fun s -> s = Some i) rest ->
            Pinned { shard = i; reason = `Colocated }
          | _ -> Gather per_source))

let route_to_string = function
  | Pinned { shard; reason } ->
    Printf.sprintf "pinned:%d%s" shard
      (match reason with `Key -> "" | `Home -> ":home" | `Colocated -> ":colocated")
  | Fanout is ->
    Printf.sprintf "fanout:%s" (String.concat "," (List.map string_of_int is))
  | Gather srcs ->
    Printf.sprintf "gather:%s"
      (String.concat ";"
         (List.map
            (fun ((s : Sql.source), is) ->
              Printf.sprintf "%s->%s" s.Sql.alias
                (String.concat "," (List.map string_of_int is)))
            srcs))

(* --- replica serving --- *)

(* Serving preference: most caught-up replica first, the primary ahead of
   equally caught-up backups (the stable sort keeps array order on ties). *)
let serving_order g =
  Array.to_list (Array.mapi (fun ri rep -> (ri, rep)) g.replicas)
  |> List.stable_sort (fun (_, a) (_, b) -> Int.compare b.applied a.applied)

let replica_health t i =
  let g = t.groups.(i) in
  Array.to_list
    (Array.mapi
       (fun ri rep ->
         {
           rh_replica = ri;
           rh_node = rep.node;
           rh_lag = g.rlog_len - rep.applied;
           rh_partitioned = Server.partitioned rep.server;
           rh_breaker = Rdi.breaker rep.r_rdi;
           rh_hints = rep.hints;
         })
       g.replicas)

(* The replica a read of shard [i] will be offered to first, with the
   reason — pure (no execution, no clock), what [:explain] prints. The
   dynamic path below can still move past it when its attempt fails. *)
let replica_choice t i =
  let g = t.groups.(i) in
  let order = serving_order g in
  let ri, rep =
    match List.find_opt (fun (_, rep) -> Rdi.breaker rep.r_rdi <> Rdi.Open) order with
    | Some x -> x
    | None -> List.hd order
  in
  let lag = g.rlog_len - rep.applied in
  let reason =
    if ri = 0 then "primary"
    else begin
      let p = g.replicas.(0) in
      let plag = g.rlog_len - p.applied in
      let suffix = if lag > 0 then Printf.sprintf "; backup lags %d" lag else "" in
      if Rdi.breaker p.r_rdi = Rdi.Open then "primary breaker open" ^ suffix
      else Printf.sprintf "primary lags %d%s" plag suffix
    end
  in
  (ri, reason)

let note_failover t ~shard ~replica ~lag =
  t.counters.failovers <- t.counters.failovers + 1;
  Obs.Metrics.incr "shard.replica.failovers";
  Obs.Trace.instant ~cat:"shard" "shard.replica.failover"
    ~args:
      [
        ("shard", Obs.Trace.Int shard);
        ("replica", Obs.Trace.Int replica);
        ("lag", Obs.Trace.Int lag);
      ]

(* One replicated-shard read. Replicas are offered the request in serving
   order, except that a replica whose breaker is open is demoted behind
   every closed one — its RDI would only fast-fail, so a healthy backup
   should be asked first (that demotion IS the breaker-open failover; when
   every breaker is open the demoted copies are still tried, which at R=1
   makes this identical to the unreplicated path). The first successful
   execution wins. A fully caught-up copy serves Fresh; a lagging one is
   downgraded to an honestly-Stale answer — inserts are append-only, so
   its data is a subset of the truth, exactly what [Stale] promises. A
   serve by anyone but the primary counts as a failover. When every
   replica fails, the first failure is the read's. Each offer is one
   [shard.read] span naming the copy, so a trace attributes every
   [rdi.exec] to exactly one shard and replica, fan-outs included. *)
let exec_shard t i q =
  let g = t.groups.(i) in
  let rec go first_failure = function
    | [] ->
      Rdi.Failed (Option.value first_failure ~default:(Rdi.Remote_fault Fault.Transient))
    | (ri, rep) :: rest ->
      let result =
        Obs.Trace.with_span ~cat:"shard" "shard.read"
          ~args:
            (if Obs.Trace.enabled () then
               [ ("shard", Obs.Trace.Int i); ("replica", Obs.Trace.Int ri) ]
             else [])
          (fun () -> Rdi.exec rep.r_rdi q)
      in
      (match result with
       | Ok rel ->
         let lag = g.rlog_len - rep.applied in
         if ri <> 0 then note_failover t ~shard:i ~replica:ri ~lag;
         if lag = 0 then Rdi.Fresh rel else Rdi.Stale (rel, Rdi.Replica_lag lag)
       | Error f ->
         go (if first_failure = None then Some f else first_failure) rest)
  in
  let closed, open_ =
    List.partition (fun (_, rep) -> Rdi.breaker rep.r_rdi <> Rdi.Open) (serving_order g)
  in
  go None (closed @ open_)

(* --- execution --- *)

let first_failure outcomes =
  List.find_map
    (function
      | _, Rdi.Fresh _ -> None
      | _, Rdi.Stale (_, f) -> Some f
      | _, Rdi.Failed f -> Some f)
    outcomes

(* Union the per-shard slices, in shard order, into one relation. Hash and
   range partitions hold disjoint rows, so the bag union is exact; a
   DISTINCT request still needs a cross-shard re-distinct because each
   shard de-duplicated only its own slice. *)
let merge_outcomes (q : Sql.select) outcomes =
  let rels =
    List.filter_map
      (function
        | _, Rdi.Fresh rel -> Some rel
        | _, Rdi.Stale (rel, _) -> Some rel
        | _, Rdi.Failed _ -> None)
      outcomes
  in
  match rels with
  | [] ->
    (match first_failure outcomes with
     | Some f -> Rdi.Failed f
     | None -> Rdi.Failed (Rdi.Remote_fault Fault.Transient))
  | first :: rest ->
    let merged = List.fold_left R.Ops.union_all first rest in
    let merged = if q.Sql.distinct then R.Relation.distinct merged else merged in
    (match first_failure outcomes with
     | None -> Rdi.Fresh merged
     | Some f -> Rdi.Stale (merged, f))

(* One dispatch to [n] of the shards: the rest were pruned. *)
let note_touched t n =
  let c = t.counters in
  c.shards_touched <- c.shards_touched + n;
  c.shards_pruned <- c.shards_pruned + (Array.length t.groups - n)

let exec_fanout t (q : Sql.select) targets =
  t.counters.fanouts <- t.counters.fanouts + 1;
  note_touched t (List.length targets);
  Obs.Metrics.incr "shard.fanout";
  Obs.Trace.instant ~cat:"shard" "shard.fanout"
    ~args:
      (if Obs.Trace.enabled () then
         [
           ("shards", Obs.Trace.Int (List.length targets));
           ("sql", Obs.Trace.Str (Sql.to_string q));
         ]
       else []);
  merge_outcomes q (List.map (fun i -> (i, exec_shard t i q)) targets)

let exec_pinned t (q : Sql.select) shard =
  t.counters.pinned <- t.counters.pinned + 1;
  note_touched t 1;
  Obs.Metrics.incr "shard.pinned";
  exec_shard t shard q

(* Conditions a single-source sub-fetch can take with it: anything that
   mentions only this source's columns and constants. *)
let local_conds (q : Sql.select) alias =
  let local = function
    | Sql.Const _ -> true
    | Sql.Col c -> c.Sql.src = alias
  in
  List.filter (fun ((_, a, b) : Sql.cond) -> local a && local b) q.Sql.where

(* Scatter-gather for a join the shards cannot answer locally: fetch each
   source's relevant slices (source-local predicates and semi-join filters
   pushed down), union them per source, and run the residual join on a
   scratch engine at the router. The per-shard scans are charged where
   they happened; the router's own join work is reported in
   [counters.gather_scanned]. *)
let exec_gather t (q : Sql.select) per_source =
  t.counters.gathers <- t.counters.gathers + 1;
  Obs.Metrics.incr "shard.gather";
  let scratch = Engine.create () in
  let degraded = ref None in
  let failed = ref None in
  List.iter
    (fun ((s : Sql.source), targets) ->
      if !failed = None then begin
        let sub =
          {
            Sql.distinct = false;
            columns = [];
            from = [ s ];
            where = local_conds q s.Sql.alias;
            semijoins =
              List.filter (fun ((c, _) : Sql.col * _) -> c.Sql.src = s.Sql.alias)
                q.Sql.semijoins;
          }
        in
        note_touched t (List.length targets);
        let outcome =
          merge_outcomes sub (List.map (fun i -> (i, exec_shard t i sub)) targets)
        in
        match outcome with
        | Rdi.Failed f -> failed := Some f
        | Rdi.Fresh rel | Rdi.Stale (rel, _) ->
          (match outcome with
           | Rdi.Stale (_, f) when !degraded = None -> degraded := Some f
           | _ -> ());
          (* the slice comes back with qualified attribute names; restore
             the base schema and park it under the source's alias so the
             residual join runs unchanged *)
          let base =
            match Catalog.schema_of (catalog t) s.Sql.table with
            | Some schema -> schema
            | None -> R.Relation.schema rel
          in
          Engine.load scratch
            (R.Relation.with_name s.Sql.alias (R.Relation.with_schema base rel))
      end)
    per_source;
  match !failed with
  | Some f -> Rdi.Failed f
  | None ->
    let residual =
      {
        q with
        Sql.from =
          List.map
            (fun (s : Sql.source) -> { Sql.table = s.Sql.alias; alias = s.Sql.alias })
            q.Sql.from;
      }
    in
    let rel, scanned = Engine.execute scratch residual in
    t.counters.gather_scanned <- t.counters.gather_scanned + scanned;
    (match !degraded with
     | None -> Rdi.Fresh rel
     | Some f -> Rdi.Stale (rel, f))

let exec t (q : Sql.select) =
  let r = route t q in
  t.counters.requests <- t.counters.requests + 1;
  Obs.Trace.with_span ~cat:"shard" "shard.route"
    ~args:
      (if Obs.Trace.enabled () then
         [
           ("route", Obs.Trace.Str (route_to_string r));
           ("sql", Obs.Trace.Str (Sql.to_string q));
         ]
       else [])
    (fun () ->
      match r with
      | Pinned { shard; _ } -> exec_pinned t q shard
      | Fanout targets -> exec_fanout t q targets
      | Gather per_source -> exec_gather t q per_source)

(* --- anti-entropy repair --- *)

(* Replay the replication log into one replica from its applied offset.
   Returns true when a repair ran (the replica was lagging and reachable —
   the reachability heartbeat also advances the shared clock). *)
let repair_replica t i ri =
  let g = t.groups.(i) in
  let rep = g.replicas.(ri) in
  let lag = g.rlog_len - rep.applied in
  if lag > 0 && Server.reachable rep.server then begin
    Obs.Trace.with_span ~cat:"shard" "shard.replica.repair"
      ~args:
        [
          ("shard", Obs.Trace.Int i);
          ("replica", Obs.Trace.Int ri);
          ("lag", Obs.Trace.Int lag);
        ]
      (fun () ->
        List.iter
          (fun w -> apply_write (Server.engine rep.server) w)
          (log_suffix g ~from:rep.applied);
        rep.applied <- g.rlog_len;
        (* hinted writes queued while the replica was down are handed off *)
        t.counters.handoffs <- t.counters.handoffs + rep.hints;
        if rep.hints > 0 then Obs.Metrics.incr ~by:rep.hints "shard.replica.handoffs";
        rep.hints <- 0;
        rep.repaired <- rep.repaired + 1;
        t.counters.repairs <- t.counters.repairs + 1;
        Obs.Metrics.incr "shard.replica.repairs");
    true
  end
  else false

(* One anti-entropy round: every reachable replica whose lag exceeds
   [max_lag] replays the log to the head. Returns the number of repairs. *)
let tick_repair ?(max_lag = 0) t =
  let repaired = ref 0 in
  Array.iteri
    (fun i g ->
      Array.iteri
        (fun ri rep ->
          if g.rlog_len - rep.applied > max_lag && repair_replica t i ri then
            incr repaired)
        g.replicas)
    t.groups;
  !repaired

(* Crash-and-recover one replica: the process dies, its in-memory engine
   is lost, and recovery rebuilds the durable state — the base snapshot
   plus the replication-log prefix [0, applied) (the cache WAL's
   checkpoint-and-replay idiom: [applied] is the offset the replica had
   persisted). Breaker and jitter state restart with the process; the
   fault profile stays — it models the environment, not the process. A
   coordinator copy is the authority's own durable store: only its RDI
   restarts. *)
let crash_replica t ~shard ~replica =
  if shard < 0 || shard >= Array.length t.groups then
    invalid_arg "Shard_router.crash_replica: shard out of range";
  let g = t.groups.(shard) in
  if replica < 0 || replica >= Array.length g.replicas then
    invalid_arg "Shard_router.crash_replica: replica out of range";
  let rep = g.replicas.(replica) in
  if not (is_coordinator t rep) then begin
    let fresh = Server.create ~cost:(Server.cost_model t.coordinator) () in
    List.sort (fun (a, _) (b, _) -> String.compare a b) g.base
    |> List.iter (fun (_, rel) -> Engine.load (Server.engine fresh) (R.Relation.copy rel));
    List.iter
      (fun w -> apply_write (Server.engine fresh) w)
      (List.filteri (fun k _ -> k < rep.applied) (log_suffix g ~from:0));
    Server.set_faults fresh (Server.fault_config rep.server);
    rep.server <- fresh
  end;
  rep.r_rdi <- Rdi.create ~policy:(replica_policy t.base_policy shard replica) rep.server

(* --- faults, policies, accounting --- *)

(* Every injector installed through the router shares its fault clock, so
   partitions heal on system-wide progress (see {!Fault.clock}). *)
let wire_clock t config =
  Option.map
    (fun (c : Fault.config) ->
      match c.Fault.clock with
      | None -> { c with Fault.clock = Some t.clock }
      | Some _ -> c)
    config

let set_replica_faults t ~shard ~replica config =
  if shard < 0 || shard >= Array.length t.groups then
    invalid_arg "Shard_router.set_replica_faults: shard out of range";
  let g = t.groups.(shard) in
  if replica < 0 || replica >= Array.length g.replicas then
    invalid_arg "Shard_router.set_replica_faults: replica out of range";
  Server.set_faults g.replicas.(replica).server (wire_clock t config)

let set_faults t ~shard config =
  if shard < 0 || shard >= Array.length t.groups then
    invalid_arg "Shard_router.set_faults: shard out of range";
  set_replica_faults t ~shard ~replica:0 config

let set_policy t policy =
  t.base_policy <- policy;
  Array.iteri
    (fun i g ->
      Array.iteri (fun r rep -> Rdi.set_policy rep.r_rdi (replica_policy policy i r)) g.replicas)
    t.groups

(* Every replica, shard-major: the order the fleet sums add in. *)
let replicas_of t =
  List.concat_map (fun g -> Array.to_list g.replicas) (Array.to_list t.groups)

(* A single replica's totals are its own: the planner reads them twice per
   answer, so they are not re-summed through a fresh list. *)
let stats t =
  match t.groups with
  | [| { replicas = [| rep |]; _ } |] -> Server.stats rep.server
  | _ -> Server.sum (List.map (fun rep -> Server.stats rep.server) (replicas_of t))

let shard_stats t =
  Array.to_list (Array.map (fun g -> Server.stats g.replicas.(0).server) t.groups)

let rdi_stats t =
  match t.groups with
  | [| { replicas = [| rep |]; _ } |] -> Rdi.stats rep.r_rdi
  | _ -> Rdi.sum (List.map (fun rep -> Rdi.stats rep.r_rdi) (replicas_of t))

let counters t = { t.counters with requests = t.counters.requests }
