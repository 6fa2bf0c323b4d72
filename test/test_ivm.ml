(* Incremental view maintenance (Braid_cache.Maintain): delta propagation
   through PSJ cache elements on the CMS write path, the fallback decision
   table, bag semantics, and crash recovery mid-delta.

   The invariant under test everywhere: a non-stale materialized element
   must hold exactly what re-evaluating its definition against the
   remote's current tables produces — maintenance is allowed to keep an
   element Fresh only by keeping it exact. *)

module L = Braid_logic
module T = L.Term
module R = Braid_relalg
module V = R.Value
module A = Braid_caql.Ast
module TS = Braid_stream.Tuple_stream
module Qpo = Braid_planner.Qpo
module Server = Braid_remote.Server
module Engine = Braid_remote.Engine
module Cms = Braid.Cms
module CMgr = Braid_cache.Cache_manager
module Elem = Braid_cache.Element
module Maintain = Braid_cache.Maintain
module Oracle = Braid_check.Oracle
module Prng = Braid_prng.Prng

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let v x = T.Var x
let s x = T.Const (V.Str x)
let atom p args = L.Atom.make p args

let str_schema cols = R.Schema.make (List.map (fun c -> (c, V.Tstr)) cols)
let row xs = Array.of_list (List.map (fun x -> V.Str x) xs)

(* Three tiny tables the tests control exactly. *)
let load_server () =
  let server = Server.create () in
  let eng = Server.engine server in
  Engine.load eng
    (R.Relation.of_tuples ~name:"t1" (str_schema [ "a"; "b" ])
       [ row [ "c1"; "y1" ]; row [ "c1"; "y2" ]; row [ "d"; "y3" ] ]);
  Engine.load eng
    (R.Relation.of_tuples ~name:"t2" (str_schema [ "x"; "z" ])
       [ row [ "x0"; "z1" ]; row [ "x1"; "z2" ] ]);
  Engine.load eng
    (R.Relation.of_tuples ~name:"t3" (str_schema [ "z"; "c"; "y" ])
       [ row [ "z1"; "c2"; "y1" ]; row [ "z2"; "c2"; "y2" ]; row [ "z2"; "c3"; "y1" ] ]);
  server

let q_sel1 = A.conj [ v "Y" ] [ atom "t1" [ s "c1"; v "Y" ] ]
let q_full2 = A.conj [ v "X"; v "Z" ] [ atom "t2" [ v "X"; v "Z" ] ]

let q_join =
  A.conj [ v "X"; v "Z" ] [ atom "t2" [ v "X"; v "Z" ]; atom "t3" [ v "Z"; s "c2"; v "Y" ] ]

let q_sel3 = A.conj [ v "Z" ] [ atom "t3" [ v "Z"; s "c2"; s "y1" ] ]

(* t2 stored with its columns swapped: a full cover of t2 whose
   replacement atom permutes the columns *)
let q_perm2 = A.conj [ v "Z"; v "X" ] [ atom "t2" [ v "X"; v "Z" ] ]

(* three atoms, the last over t3: a t3 write leads the plan from the last
   atom and reads both t2 atoms from one covering element *)
let q_three =
  A.conj [ v "X"; v "W"; v "Y" ]
    [ atom "t2" [ v "X"; v "Z" ]; atom "t2" [ v "W"; v "Z" ]; atom "t3" [ v "Z"; s "c2"; v "Y" ] ]

let eager = { Qpo.braid_config with Qpo.allow_lazy = false }

let make_cms ?(maintain = true) server = Cms.create ~config:eager ~maintain server

let warm cms qs = List.iter (fun q -> ignore (TS.to_relation (Cms.query cms q).Qpo.stream)) qs

let elements cms = Braid_cache.Cache_model.elements (CMgr.model (Cms.cache cms))

(* The cached element admitted for [q], by definition shape. *)
let element_of cms q =
  List.find
    (fun (e : Elem.t) -> A.variant_equal e.Elem.def q)
    (elements cms)

let ground server def =
  Braid_caql.Eval.conj
    ~source:(fun (a : L.Atom.t) -> Engine.table (Server.engine server) a.L.Atom.pred)
    ~schema_of:(Braid_remote.Catalog.schema_of (Server.catalog server))
    def

let norm r = List.sort compare (R.Relation.to_list r)

let check_exact server (e : Elem.t) what =
  check_bool (what ^ " ≡ recompute-from-scratch") true
    (norm (Elem.extension e) = norm (ground server e.Elem.def))

(* Every non-stale materialized element must be exact — the global
   maintenance invariant the property test sweeps. *)
let check_all_fresh_exact server cms =
  List.iter
    (fun (e : Elem.t) ->
      if (not e.Elem.stale) && Elem.is_materialized e then check_exact server e "element")
    (elements cms)

(* --- selections and projections --- *)

let test_insert_selection () =
  let server = load_server () in
  let cms = make_cms server in
  warm cms [ q_sel1 ];
  (* matching row: the delta passes the selection, projected to the head *)
  Cms.apply_insert cms "t1" (row [ "c1"; "y9" ]);
  (* non-matching row: the delta dies in the selection — still maintained *)
  Cms.apply_insert cms "t1" (row [ "nope"; "y1" ]);
  let e = element_of cms q_sel1 in
  check_bool "element still fresh" false e.Elem.stale;
  check_exact server e "selection after inserts";
  let d = Cms.delta_totals cms in
  check_int "both writes maintained" 2 d.Maintain.maintained;
  check_int "one projected row added" 1 d.Maintain.rows_added;
  check_int "no fallbacks" 0 d.Maintain.fallbacks

let test_delete_bag_semantics () =
  let server = load_server () in
  let cms = make_cms server in
  warm cms [ q_sel1 ];
  (* two occurrences of the same row, then one delete: exactly one left *)
  Cms.apply_insert cms "t1" (row [ "c1"; "dup" ]);
  Cms.apply_insert cms "t1" (row [ "c1"; "dup" ]);
  check_bool "delete of a held row" true (Cms.apply_delete cms "t1" (row [ "c1"; "dup" ]));
  let e = element_of cms q_sel1 in
  check_bool "element still fresh" false e.Elem.stale;
  check_exact server e "selection after bag delete";
  let occurrences =
    List.length (List.filter (fun t -> t = [| V.Str "dup" |]) (R.Relation.to_list (Elem.extension e)))
  in
  check_int "one of two occurrences survives" 1 occurrences;
  (* an absent tuple is a no-op everywhere: no journal entry, no delta *)
  let d_before = Cms.delta_totals cms in
  check_bool "absent tuple refused" false (Cms.apply_delete cms "t1" (row [ "ghost"; "gone" ]));
  check_bool "no-op left totals untouched" true (Cms.delta_totals cms = d_before)

(* --- joins: the other side must come from a covering Fresh element --- *)

let test_join_maintained_via_cached_side () =
  let server = load_server () in
  let cms = make_cms server in
  warm cms [ q_full2; q_join ];
  (* a t3 write: the join semi-joins the delta against the cached t2 *)
  Cms.apply_insert cms "t3" (row [ "z2"; "c2"; "y7" ]);
  let j = element_of cms q_join in
  check_bool "join still fresh" false j.Elem.stale;
  check_exact server j "join after t3 insert";
  (* and the delete of the same row rolls it back exactly *)
  ignore (Cms.apply_delete cms "t3" (row [ "z2"; "c2"; "y7" ]));
  let j = element_of cms q_join in
  check_bool "join fresh after delete" false j.Elem.stale;
  check_exact server j "join after t3 delete";
  check_bool "no fallbacks on the covered side" true
    ((Cms.delta_totals cms).Maintain.fallbacks = 0)

let test_join_maintained_via_permuted_cover () =
  let server = load_server () in
  let cms = make_cms server in
  warm cms [ q_perm2; q_join ];
  let size () = R.Relation.cardinality (Elem.extension (element_of cms q_join)) in
  let before = size () in
  (* t2's only cover stores (z, x): the t3 delta reads it in place through
     the renamed replacement atom *)
  Cms.apply_insert cms "t3" (row [ "z2"; "c2"; "y7" ]);
  let j = element_of cms q_join in
  check_bool "join still fresh" false j.Elem.stale;
  check_exact server j "join after t3 insert";
  check_int "the insert joined one t2 row" (before + 1) (size ());
  ignore (Cms.apply_delete cms "t3" (row [ "z2"; "c2"; "y7" ]));
  let j = element_of cms q_join in
  check_bool "join fresh after delete" false j.Elem.stale;
  check_exact server j "join after t3 delete";
  check_int "the delete took it back" before (size ());
  check_bool "no fallbacks on the permuted side" true
    ((Cms.delta_totals cms).Maintain.fallbacks = 0)

let test_join_fallback_without_cover () =
  let server = load_server () in
  let cms = make_cms server in
  warm cms [ q_join ];
  (* a t2 write: the join's other side (t3) has no covering element, so
     the decision table says fall back — insert marks stale *)
  Cms.apply_insert cms "t2" (row [ "x9"; "z1" ]);
  let j = element_of cms q_join in
  check_bool "insert fallback marks stale" true j.Elem.stale;
  let d = Cms.delta_totals cms in
  check_int "fallback counted" 1 d.Maintain.fallbacks;
  check_int "nothing dropped yet" 0 d.Maintain.dropped;
  (* a delete cannot stale-mark (a stale element is only an honest subset
     under insert-only writes): the stale dependent is dropped *)
  ignore (Cms.apply_delete cms "t3" (row [ "z1"; "c2"; "y1" ]));
  check_bool "delete fallback drops the element" true
    (not (List.exists (fun (e : Elem.t) -> A.variant_equal e.Elem.def q_join) (elements cms)));
  check_int "drop counted" 1 (Cms.delta_totals cms).Maintain.dropped

let test_maintain_off_unchanged () =
  let server = load_server () in
  let cms = make_cms ~maintain:false server in
  warm cms [ q_sel1; q_sel3 ];
  Cms.apply_insert cms "t1" (row [ "c1"; "y9" ]);
  let e = element_of cms q_sel1 in
  check_bool "insert stale-marks without maintenance" true e.Elem.stale;
  ignore (Cms.apply_delete cms "t3" (row [ "z1"; "c2"; "y1" ]));
  check_bool "delete drops dependents without maintenance" true
    (not (List.exists (fun (e : Elem.t) -> A.variant_equal e.Elem.def q_sel3) (elements cms)));
  check_bool "no deltas ran" true (Cms.delta_totals cms = Maintain.empty_report)

(* --- the property: maintained ≡ recomputed, under any write stream --- *)

let prop_maintained_equals_recompute =
  QCheck.Test.make ~name:"delta-maintained elements ≡ recompute after every write"
    ~count:30
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let server = load_server () in
      let cms = make_cms server in
      (* q_three first: fetched whole, it is admitted as its own element *)
      warm cms [ q_three; q_sel1; q_full2; q_join; q_sel3 ];
      let prng = Prng.create seed in
      let inserted = ref [] in
      for _ = 1 to 25 do
        (if !inserted <> [] && Prng.bool prng 0.3 then begin
           let rows = !inserted in
           let i = Prng.int prng (List.length rows) in
           let table, tup = List.nth rows i in
           inserted := List.filteri (fun j _ -> j <> i) rows;
           ignore (Cms.apply_delete cms table tup)
         end
         else begin
           let zi = Printf.sprintf "z%d" (Prng.int prng 4) in
           let yi = Printf.sprintf "y%d" (Prng.int prng 4) in
           let table, tup =
             match Prng.int prng 3 with
             | 0 -> ("t1", row [ (if Prng.bool prng 0.5 then "c1" else "d"); yi ])
             | 1 -> ("t2", row [ Printf.sprintf "x%d" (Prng.int prng 3); zi ])
             | _ -> ("t3", row [ zi; (if Prng.bool prng 0.5 then "c2" else "c3"); yi ])
           in
           Cms.apply_insert cms table tup;
           inserted := (table, tup) :: !inserted
         end);
        check_all_fresh_exact server cms
      done;
      true)

(* --- crash recovery mid-delta --- *)

let write_burst cms prng inserted n =
  for _ = 1 to n do
    if !inserted <> [] && Prng.bool prng 0.3 then begin
      let rows = !inserted in
      let i = Prng.int prng (List.length rows) in
      let table, tup = List.nth rows i in
      inserted := List.filteri (fun j _ -> j <> i) rows;
      ignore (Cms.apply_delete cms table tup)
    end
    else begin
      let table, tup =
        match Prng.int prng 3 with
        | 0 -> ("t1", row [ "c1"; Printf.sprintf "y%d" (Prng.int prng 5) ])
        | 1 -> ("t2", row [ Printf.sprintf "x%d" (Prng.int prng 3); "z1" ])
        | _ -> ("t3", row [ "z2"; "c2"; Printf.sprintf "y%d" (Prng.int prng 5) ])
      in
      Cms.apply_insert cms table tup;
      inserted := (table, tup) :: !inserted
    end
  done

let test_crash_mid_delta_recovery () =
  let server = load_server () in
  let cms = make_cms server in
  let oracle = Oracle.create server in
  warm cms [ q_sel1; q_full2; q_join; q_sel3 ];
  let prng = Prng.create 42 in
  let inserted = ref [] in
  (* deltas land on both sides of a checkpoint: replay must cross it *)
  write_burst cms prng inserted 8;
  ignore (Cms.checkpoint cms);
  write_burst cms prng inserted 8;
  let dead = CMgr.model (Cms.cache cms) in
  let journal = Cms.journal cms in
  let deltas =
    List.length
      (List.filter
         (function
           | Braid_cache.Journal.Delta_insert _ | Braid_cache.Journal.Delta_delete _ ->
             true
           | _ -> false)
         (Braid_cache.Journal.entries journal))
  in
  check_bool "deltas were journaled" true (deltas > 0);
  let recovered, rep =
    Cms.recover ~config:eager ~maintain:true ~validate:(Oracle.revalidate oracle)
      ~journal server
  in
  check_int "nothing dropped by revalidation" 0 (List.length rep.Cms.dropped);
  (match Oracle.same_state dead (CMgr.model (Cms.cache recovered)) with
   | Ok () -> ()
   | Error msg -> Alcotest.failf "recovered model diverged: %s" msg);
  (* and the recovered CMS keeps maintaining: another burst stays exact *)
  write_burst recovered prng inserted 4;
  check_all_fresh_exact server recovered

(* --- answers never alias an element's rows --- *)

(* An exact-hit answer shares the element's tuples but owns its row vector:
   maintenance on the element does not reach an answer already handed out,
   and writes to the answer do not reach the element. The first delta after
   an admission (or a checkpoint's re-admission) copies the element's rows
   (copy-on-write); the next one edits them in place. Both run, on both
   sides of a checkpoint. *)
let test_exact_hit_answer_no_alias () =
  let server = load_server () in
  let cms = make_cms server in
  warm cms [ q_full2 ];
  let e = element_of cms q_full2 in
  let round what ins del =
    let requests = (Cms.remote_stats cms).Server.requests in
    let answer = TS.to_relation (Cms.query cms q_full2).Qpo.stream in
    check_int (what ^ ": exact hit, no remote request") requests
      (Cms.remote_stats cms).Server.requests;
    let before = norm answer in
    check_bool (what ^ ": answer = element") true (before = norm (Elem.extension e));
    Cms.apply_insert cms "t2" (row ins);
    check_bool (what ^ ": copy-on-write delta taken") true e.Elem.delta_private;
    check_bool (what ^ ": delete") true (Cms.apply_delete cms "t2" (row del));
    check_bool (what ^ ": element still fresh") false e.Elem.stale;
    check_exact server e (what ^ ": element after the deltas");
    check_bool (what ^ ": answer unchanged by the deltas") true (norm answer = before);
    let held = norm (Elem.extension e) in
    R.Relation.add answer (row [ "mine"; "only" ]);
    check_bool (what ^ ": element unchanged by writes to the answer") true
      (norm (Elem.extension e) = held)
  in
  round "before the checkpoint" [ "x9"; "z9" ] [ "x0"; "z1" ];
  ignore (Cms.checkpoint cms);
  check_bool "checkpoint re-shares the element's rows" false e.Elem.delta_private;
  round "after the checkpoint" [ "x8"; "z8" ] [ "x9"; "z9" ]

(* --- element indexes under the set-oriented tier --- *)

(* The set-oriented tier over a maintained CMS: every goal's fetch of
   [parent] is an exact hit on one cached element, whose indexes the
   fixpoint probes. *)
let family () = Braid_workload.Datagen.family ~persons:30 ~fanout:3 ()

let family_server () =
  let server = Server.create () in
  List.iter (Engine.load (Server.engine server)) (family ());
  server

let set_engine cms =
  Braid_ie.Engine.create ~strategy:Braid_ie.Strategy.Set_oriented
    (Braid_workload.Kbgen.ancestor ())
    (Cms.qpo cms)

let ancestors_of = atom "ancestor" [ s "p0"; v "Y" ]

(* Each goal's answer against a local fixpoint over the remote's tables as
   they are now. *)
let check_goal what server engine =
  let answer, _ = Braid_ie.Engine.solve_all engine ancestors_of in
  let base name = try Some (Engine.table (Server.engine server) name) with Not_found -> None in
  let expected =
    (Braid_ie.Datalog.solve (Braid_workload.Kbgen.ancestor ()) ~base ancestors_of)
      .Braid_ie.Datalog.result
  in
  check_bool (what ^ ": answer reflects the remote") true
    (List.sort_uniq compare (R.Relation.to_list answer)
    = List.sort_uniq compare (R.Relation.to_list expected))

let parent_element cms =
  match
    List.filter
      (fun (e : Elem.t) -> List.exists (fun a -> a.L.Atom.pred = "parent") e.Elem.def.A.atoms)
      (elements cms)
  with
  | [ e ] -> e
  | es -> Alcotest.failf "expected one parent element, found %d" (List.length es)

(* Every index the element keeps is the one [Index.build] makes over its
   extension: the same rows per key, by physical identity and in order,
   and the same sorted directory. *)
let check_indexes_fresh what (e : Elem.t) =
  check_bool (what ^ ": the fixpoint probed element indexes") true (e.Elem.indexes <> []);
  let ext = Elem.extension e in
  List.iter
    (fun (cols, ix) ->
      let fresh = R.Index.build ext cols in
      let same a b = List.length a = List.length b && List.for_all2 ( == ) a b in
      let dir ix = R.Index.fold_sorted ix ~init:[] ~f:(fun acc k n -> (k, n) :: acc) in
      check_bool (what ^ ": index = Index.build over the extension") true
        (R.Relation.fold
           (fun ok t ->
             let k = R.Tuple.key t cols in
             ok && same (R.Index.lookup ix k) (R.Index.lookup fresh k))
           true ext
        && dir ix = dir fresh))
    e.Elem.indexes

let test_element_indexes_kept_across_goals () =
  let server = family_server () in
  let cms = Cms.create ~config:Qpo.no_advice_config ~maintain:true server in
  let engine = set_engine cms in
  check_goal "a goal that caches parent" server engine;
  let e = parent_element cms in
  check_goal "first goal" server engine;
  let built = e.Elem.indexes in
  check_bool "the first goal built the indexes" true (built <> []);
  let probes () = List.fold_left (fun n (_, ix) -> n + R.Index.probes ix) 0 e.Elem.indexes in
  let after_first = probes () in
  check_goal "second goal" server engine;
  check_bool "each index built once" true
    (List.length e.Elem.indexes = List.length built
    && List.for_all2 (fun (c, a) (c', b) -> c = c' && a == b) e.Elem.indexes built);
  check_bool "the second goal probed them" true (probes () > after_first)

(* The fixpoint's element indexes are the cache's: counted in
   [indexes_built] once each, and charged to its capacity, so a cache that
   holds [parent] bare but not indexed makes room for the next element by
   evicting it. *)
let test_element_indexes_charged () =
  let goals cms n =
    let engine = set_engine cms in
    for i = 1 to n do
      check_goal (Printf.sprintf "goal %d" i) (Cms.server cms) engine
    done
  in
  let big = Cms.create ~config:Qpo.no_advice_config (family_server ()) in
  goals big 1;
  let bare = Elem.bytes_estimate (parent_element big) in
  goals big 3;
  let e = parent_element big in
  let indexed = Elem.bytes_estimate e in
  check_int "indexes_built counts each element index once" (List.length e.Elem.indexes)
    (CMgr.stats (Cms.cache big)).CMgr.indexes_built;
  check_int "the element is charged its indexes"
    (List.fold_left (fun n (_, ix) -> n + R.Index.bytes_estimate ix) bare e.Elem.indexes)
    indexed;
  check_int "the cache's used bytes include them" indexed
    (Braid_cache.Cache_model.used_bytes (CMgr.model (Cms.cache big)));
  let one = R.Relation.of_tuples ~name:"one" (str_schema [ "a" ]) [ row [ "p0" ] ] in
  let admit_one cms =
    let c = Cms.cache cms in
    check_bool "the next element is admitted" true
      (CMgr.insert c ~def:(A.conj [ v "X" ] [ atom "one" [ v "X" ] ]) (Elem.Extension one) <> None);
    (CMgr.stats c).CMgr.evictions
  in
  let tight n =
    let cms = Cms.create ~config:Qpo.no_advice_config ~capacity_bytes:(indexed - 1) (family_server ()) in
    goals cms n;
    cms
  in
  check_int "bare parent leaves room" 0 (admit_one (tight 1));
  check_int "indexed parent is evicted to make room" 1 (admit_one (tight 2))

let test_element_indexes_follow_writes () =
  let server = family_server () in
  let cms = Cms.create ~config:Qpo.no_advice_config ~maintain:true server in
  let engine = set_engine cms in
  check_goal "a goal that caches parent" server engine;
  check_goal "a goal that indexes it" server engine;
  check_bool "the element has indexes" true ((parent_element cms).Elem.indexes <> []);
  let after what cms engine =
    check_goal what server engine;
    check_indexes_fresh what (parent_element cms)
  in
  let str x = V.Str x in
  Cms.apply_insert cms "parent" [| str "p0"; str "q0" |];
  check_bool "the insert dropped the indexes" true ((parent_element cms).Elem.indexes = []);
  after "after an insert" cms engine;
  let child =
    R.Relation.fold
      (fun acc t -> if V.equal (R.Tuple.get t 0) (str "p0") then Some t else acc)
      None
      (Engine.table (Server.engine server) "parent")
  in
  check_bool "the delete found its row" true (Cms.apply_delete cms "parent" (Option.get child));
  after "after a delete" cms engine;
  let recovered, _ =
    Cms.recover ~config:Qpo.no_advice_config ~maintain:true ~journal:(Cms.journal cms) server
  in
  after "after recovery" recovered (set_engine recovered)

(* --- element sizes --- *)

(* An element's size from scratch: the formula every element keeps current
   without walking its rows. *)
let recount (e : Elem.t) =
  (match e.Elem.repr with
   | Elem.Extension r -> R.Relation.bytes_estimate r
   | Elem.Generator g -> 64 + (TS.produced g * 48))
  + List.fold_left (fun n (_, ix) -> n + R.Index.bytes_estimate ix) 0 e.Elem.indexes
  + List.fold_left (fun n (_, r) -> n + R.Relation.bytes_estimate r) 0 e.Elem.sorted

let sizes_hold model =
  let es = Braid_cache.Cache_model.elements model in
  List.for_all (fun e -> Elem.bytes_estimate e = recount e) es
  && Braid_cache.Cache_model.used_bytes model = List.fold_left (fun n e -> n + recount e) 0 es

(* Random cache histories: admissions of extensions and generators (with
   evictions, under a small capacity), pulls, forcing, IVM inserts and
   deletes through [Maintain.on_write] (a delete a dependent does not hold
   drops it), a delta with an absent row applied the way [Maintain] applies
   one, element indexes, sorted representations, checkpoints and replays.
   After every step each element's size equals a recount, and so does the
   cache's used bytes; every replayed model holds the same. *)
let prop_sizes_equal_recount =
  QCheck.Test.make ~name:"element sizes = recount under admit/pull/IVM/index/sort/replay"
    ~count:100
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let prng = Prng.create seed in
      let schema = str_schema [ "a"; "b" ] in
      let schema_of p = if p = "b0" || p = "b1" then Some schema else None in
      let capacity_bytes = 2_500 in
      let cmgr = CMgr.create ~capacity_bytes () in
      let model = CMgr.model cmgr in
      let pick l = List.nth l (Prng.int prng (List.length l)) in
      let str () = String.make (1 + Prng.int prng 6) (Char.chr (97 + Prng.int prng 3)) in
      let tup () = row [ (if Prng.bool prng 0.5 then "k" else str ()); str () ] in
      let rows n = List.init n (fun _ -> tup ()) in
      let pred () = if Prng.bool prng 0.5 then "b0" else "b1" in
      let defs p =
        [
          A.conj [ v "X"; v "Y" ] [ atom p [ v "X"; v "Y" ] ];
          A.conj [ v "Y" ] [ atom p [ v "X"; v "Y" ] ];
          A.conj [ v "Y" ] [ atom p [ s "k"; v "Y" ] ];
        ]
      in
      let elements () = Braid_cache.Cache_model.elements model in
      let materialized () = List.filter Elem.is_materialized (elements ()) in
      let check step =
        if not (sizes_hold model) then QCheck.Test.fail_reportf "seed %d: step %d" seed step
      in
      for step = 1 to 60 do
        (match Prng.int prng 11 with
         | 0 ->
           let p = pred () in
           let def = pick (defs p) in
           let arity = List.length def.A.head in
           let rel =
             R.Relation.of_tuples
               (if arity = 2 then schema else str_schema [ "b" ])
               (List.map
                  (fun t -> if arity = 2 then t else [| t.(1) |])
                  (rows (Prng.int prng 7)))
           in
           ignore (CMgr.insert cmgr ~def (Elem.Extension rel))
         | 1 ->
           let p = pred () in
           ignore
             (CMgr.insert cmgr ~def:(List.hd (defs p))
                (Elem.Generator (TS.of_list schema (rows (Prng.int prng 9)))))
         | 2 -> (
           match List.filter (fun e -> not (Elem.is_materialized e)) (elements ()) with
           | [] -> ()
           | gs ->
             let c = TS.cursor (Elem.stream (pick gs)) in
             for _ = 1 to 1 + Prng.int prng 6 do
               ignore (TS.next c)
             done)
         | 3 -> if elements () <> [] then ignore (Elem.extension (pick (elements ())))
         | 4 -> ignore (Maintain.on_write cmgr ~schema_of (Maintain.Insert (pred (), tup ())))
         | 5 -> (
           (* a row some element holds: the others drop *)
           match List.filter (fun e -> List.length e.Elem.def.A.head = 2) (materialized ()) with
           | [] -> ()
           | es ->
             let e = pick es in
             let ext = Elem.extension e in
             if R.Relation.cardinality ext > 0 then
               let p = (List.hd e.Elem.def.A.atoms).L.Atom.pred in
               ignore
                 (Maintain.on_write cmgr ~schema_of
                    (Maintain.Delete (p, R.Relation.get ext (Prng.int prng (R.Relation.cardinality ext))))))
         | 6 -> (
           (* a delta with an absent row: journaled, partly applied, checked,
              then the element is dropped — [Maintain]'s divergence path *)
           match materialized () with
           | [] -> ()
           | es ->
             let e = pick es in
             let ext = Elem.extension e in
             let arity = R.Schema.arity (R.Relation.schema ext) in
             let absent = Array.make arity (V.Str "absent") in
             let present = R.Relation.to_list ext in
             let rows = (if present = [] then [] else [ pick present ]) @ [ absent ] in
             let pred = (List.hd e.Elem.def.A.atoms).L.Atom.pred in
             Braid_cache.Journal.log_delta_delete (CMgr.journal cmgr) ~id:e.Elem.id ~pred ~rows;
             check_bool "a delta with an absent row is refused" false (Elem.delete_rows e rows);
             check step;
             CMgr.remove_element cmgr e ~pred)
         | 7 ->
           if elements () <> [] then begin
             let e = pick (elements ()) in
             let arity = R.Schema.arity (Elem.schema e) in
             ignore (CMgr.ensure_index cmgr e (if arity = 1 then [ 0 ] else pick [ [ 0 ]; [ 1 ]; [ 0; 1 ] ]))
           end
         | 8 ->
           if elements () <> [] then begin
             let e = pick (elements ()) in
             ignore (Elem.sorted_on e (if R.Schema.arity (Elem.schema e) = 1 then [ 0 ] else pick [ [ 0 ]; [ 1 ] ]))
           end
         | 9 -> ignore (CMgr.checkpoint cmgr)
         | _ ->
           let replayed =
             Braid_cache.Journal.replay ~capacity_bytes
               ~rebuild_generator:(fun _ -> TS.of_list schema [])
               (CMgr.journal cmgr)
           in
           if not (sizes_hold replayed) then
             QCheck.Test.fail_reportf "seed %d: step %d: replayed sizes" seed step;
           List.iter
             (fun (r : Elem.t) ->
               match Braid_cache.Cache_model.find model r.Elem.id with
               | Some live when Elem.is_materialized live && Elem.is_materialized r ->
                 if r.Elem.ext_bytes <> live.Elem.ext_bytes then
                   QCheck.Test.fail_reportf "seed %d: step %d: %s replays to %d bytes, live %d"
                     seed step r.Elem.id r.Elem.ext_bytes live.Elem.ext_bytes
               | Some _ -> ()
               | None -> QCheck.Test.fail_reportf "seed %d: step %d: %s not live" seed step r.Elem.id)
             (Braid_cache.Cache_model.elements replayed));
        check step
      done;
      true)

(* A cache with extensions, a generator pulled and then forced, IVM
   inserts and deletes (one of them of a row its dependents lack), an
   index, a sorted representation and a checkpoint, crashed: every
   recovered element is the live one's size and its recount, and the next
   admission evicts the same elements from both. *)
let test_sizes_survive_recovery () =
  let server = load_server () in
  let capacity_bytes = 4_096 in
  let cms = Cms.create ~config:eager ~maintain:true ~capacity_bytes server in
  let cache = Cms.cache cms in
  warm cms
    [
      q_join;
      q_sel1;
      q_full2;
      q_sel3;
      A.conj [ v "Z" ] [ atom "t2" [ s "x1"; v "Z" ] ];
      A.conj [ v "C" ] [ atom "t3" [ s "z2"; v "C"; v "Y" ] ];
    ];
  let q_t1 = A.conj [ v "X"; v "Y" ] [ atom "t1" [ v "X"; v "Y" ] ] in
  let g =
    match
      CMgr.insert cache ~def:q_t1
        (Elem.Generator
           (TS.of_list (str_schema [ "a"; "b" ])
              (R.Relation.to_list (Engine.table (Server.engine server) "t1"))))
    with
    | Some g -> g
    | None -> Alcotest.fail "the generator was not admitted"
  in
  let c = TS.cursor (Elem.stream g) in
  ignore (TS.next c);
  ignore (TS.next c);
  ignore (CMgr.ensure_index cache (element_of cms q_full2) [ 0 ]);
  ignore (Elem.sorted_on (element_of cms q_sel1) [ 0 ]);
  ignore (Cms.checkpoint cms);
  ignore (Elem.extension g);
  Cms.apply_insert cms "t2" (row [ "x5"; "z1" ]);
  Cms.apply_insert cms "t1" (row [ "c1"; "y9" ]);
  check_bool "a held row is deleted" true (Cms.apply_delete cms "t1" (row [ "c1"; "y1" ]));
  ignore
    (Maintain.on_write cache
       ~schema_of:(Braid_remote.Catalog.schema_of (Server.catalog server))
       (Maintain.Delete ("t3", row [ "z9"; "c2"; "y1" ])));
  let live = CMgr.model cache in
  check_bool "live sizes = recount" true (sizes_hold live);
  let recovered, _ =
    Cms.recover ~config:eager ~maintain:true ~capacity_bytes ~journal:(Cms.journal cms) server
  in
  let rcache = Cms.cache recovered in
  let ids m = List.map (fun (e : Elem.t) -> e.Elem.id) (Braid_cache.Cache_model.elements m) in
  check_bool "the same elements recovered" true (ids live = ids (CMgr.model rcache));
  List.iter
    (fun (r : Elem.t) ->
      let e = Option.get (Braid_cache.Cache_model.find live r.Elem.id) in
      check_int (r.Elem.id ^ ": recovered size = live size") (Elem.bytes_estimate e)
        (Elem.bytes_estimate r);
      check_int (r.Elem.id ^ ": recovered size = recount") (recount r) (Elem.bytes_estimate r))
    (Braid_cache.Cache_model.elements (CMgr.model rcache));
  (* just over the free space: the admission evicts some elements, not all *)
  let pad = R.Relation.create (str_schema [ "a" ]) in
  while R.Relation.bytes_estimate pad <= capacity_bytes - Braid_cache.Cache_model.used_bytes live do
    R.Relation.add pad (row [ "pad" ])
  done;
  let victims cache =
    let before = ids (CMgr.model cache) in
    let def = A.conj [ v "P" ] [ atom "pad" [ v "P" ] ] in
    check_bool "the next element is admitted" true
      (CMgr.insert cache ~id:"next" ~def (Elem.Extension (R.Relation.copy pad)) <> None);
    List.filter (fun id -> not (List.mem id (ids (CMgr.model cache)))) before
  in
  let kept = List.length (ids live) in
  let on_live = victims cache in
  check_bool "the admission evicts some elements, not all" true
    (on_live <> [] && List.length on_live < kept);
  check_bool "the same victims on the recovered cache" true (victims rcache = on_live)

(* --- the relalg primitive --- *)

let test_remove_once () =
  let r =
    R.Relation.of_tuples ~name:"r" (str_schema [ "a" ])
      [ row [ "p" ]; row [ "q" ]; row [ "p" ] ]
  in
  check_bool "removes a present tuple" true (R.Relation.remove_once r (row [ "p" ]));
  check_int "one occurrence of two removed" 3 (R.Relation.cardinality r + 1);
  check_bool "second occurrence still present" true (R.Relation.mem r (row [ "p" ]));
  check_bool "absent tuple refused" false (R.Relation.remove_once r (row [ "absent" ]));
  check_int "refusal leaves the relation alone" 2 (R.Relation.cardinality r)

let suites =
  [
    ( "ivm",
      [
        Alcotest.test_case "insert through a selection" `Quick test_insert_selection;
        Alcotest.test_case "bag-semantics delete" `Quick test_delete_bag_semantics;
        Alcotest.test_case "join maintained via cached side" `Quick
          test_join_maintained_via_cached_side;
        Alcotest.test_case "join maintained via a permuted cover" `Quick
          test_join_maintained_via_permuted_cover;
        Alcotest.test_case "join falls back without cover" `Quick
          test_join_fallback_without_cover;
        Alcotest.test_case "maintain off: stale-mark/drop unchanged" `Quick
          test_maintain_off_unchanged;
        QCheck_alcotest.to_alcotest prop_maintained_equals_recompute;
        Alcotest.test_case "crash mid-delta recovers byte-identically" `Quick
          test_crash_mid_delta_recovery;
        Alcotest.test_case "exact-hit answers share no rows with the element" `Quick
          test_exact_hit_answer_no_alias;
        Alcotest.test_case "set-oriented goals keep the element's indexes" `Quick
          test_element_indexes_kept_across_goals;
        Alcotest.test_case "element indexes are charged to the cache" `Quick
          test_element_indexes_charged;
        Alcotest.test_case "element indexes follow writes and recovery" `Quick
          test_element_indexes_follow_writes;
        QCheck_alcotest.to_alcotest prop_sizes_equal_recount;
        Alcotest.test_case "element sizes survive recovery" `Quick test_sizes_survive_recovery;
        Alcotest.test_case "Relation.remove_once" `Quick test_remove_once;
      ] );
  ]
