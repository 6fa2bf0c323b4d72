(* E19 — the interpreted–compiled range extended to its set-oriented
   endpoint: interpreted, conjunction-compiled, and magic-set set-oriented
   evaluation of the same recursive workload.

   Every strategy answers the same transitive-closure batch; each answer is
   diffed (set semantics) against a fault-free reference fixpoint by the
   consistency oracle's differ, so the [identical] column is an invariant,
   not a report. The reference derives every query's closure without magic
   restriction, so its work is the yardstick for the set-oriented tier's
   [resolutions]. Advice is disabled for the same reason as E6: with
   generalization/prefetching the CMS flattens the range, and this
   experiment isolates the strategies' intrinsic access patterns. *)

module Sys_ = Braid.System
module R = Braid_relalg
module TS = Braid_stream.Tuple_stream
module Strategy = Braid_ie.Strategy
module Server = Braid_remote.Server
module Qpo = Braid_planner.Qpo

type row = {
  strategy : string;
  requests : int;  (** remote DBMS requests *)
  caql_queries : int;  (** CAQL queries issued to the CMS *)
  resolutions : int;  (** workstation inference work *)
  tuples_moved : int;
  solutions : int;
  identical : bool;  (** oracle diff against the reference fixpoint is empty *)
}

(* The set-oriented tier's own counters, read as deltas of the ie.set.*
   metrics around its leg — deterministic per seed — plus the tuples the
   unrestricted reference fixpoint produced over the batch. *)
type set_stats = {
  rounds : int;
  fetches : int;
  fetched_tuples : int;
  magic_tuples : int;
  reference_resolutions : int;
}

let strategies = Strategy.[ Interpretive; Conjunction_compiled 2; Set_oriented ]

let run ?seed ?(persons = 400) ?(queries = 6) () =
  let kb () = Braid_workload.Kbgen.ancestor () in
  let data () = Braid_workload.Datagen.family ?seed ~persons ~fanout:3 () in
  let batch = Braid_workload.Queries.ancestor_batch ?seed ~persons ~n:queries ~skew:0.5 () in
  (* The reference answers: a fault-free local fixpoint straight over the
     generated extensions — never through the CMS — one per batch query. *)
  let references =
    let rels = data () in
    let base name = List.find_opt (fun r -> R.Relation.name r = name) rels in
    let kb = kb () in
    List.map (fun q -> Braid_ie.Datalog.solve kb ~base q) batch
  in
  let reference_resolutions =
    List.fold_left (fun n o -> n + o.Braid_ie.Datalog.tuples_produced) 0 references
  in
  let counter name = Braid_obs.Metrics.counter_value name in
  let set_stats =
    ref { rounds = 0; fetches = 0; fetched_tuples = 0; magic_tuples = 0; reference_resolutions }
  in
  let rows_data =
    List.map
      (fun strategy ->
        let sys =
          Sys_.build ~config:Qpo.no_advice_config ~strategy ~kb:(kb ()) ~data:(data ()) ()
        in
        let before =
          (counter "ie.set.rounds", counter "ie.set.fetches",
           counter "ie.set.fetched_tuples", counter "ie.set.magic_tuples")
        in
        let resolutions = ref 0 in
        let solutions = ref 0 in
        let identical = ref true in
        List.iter2
          (fun q (expected : Braid_ie.Datalog.outcome) ->
            let stream, report = Sys_.solve sys q in
            let rel = TS.to_relation stream in
            resolutions :=
              !resolutions + report.Braid_ie.Engine.counters.Strategy.resolutions;
            solutions := !solutions + R.Relation.cardinality rel;
            let missing, extra =
              Braid_check.Oracle.diff_relations ~expected:expected.Braid_ie.Datalog.result
                ~actual:rel
            in
            if missing <> [] || extra <> [] then identical := false)
          batch references;
        (if strategy = Strategy.Set_oriented then
           let b0, b1, b2, b3 = before in
           set_stats :=
             {
               rounds = counter "ie.set.rounds" - b0;
               fetches = counter "ie.set.fetches" - b1;
               fetched_tuples = counter "ie.set.fetched_tuples" - b2;
               magic_tuples = counter "ie.set.magic_tuples" - b3;
               reference_resolutions;
             });
        let m = Sys_.metrics sys in
        {
          strategy = Strategy.label strategy;
          requests = m.Sys_.remote.Server.requests;
          caql_queries = m.Sys_.planner.Qpo.queries;
          resolutions = !resolutions;
          tuples_moved = m.Sys_.remote.Server.tuples_returned;
          solutions = !solutions;
          identical = !identical;
        })
      strategies
  in
  let rows =
    List.map
      (fun r ->
        [
          Table.Text r.strategy;
          Table.Int r.requests;
          Table.Int r.caql_queries;
          Table.Int r.resolutions;
          Table.Int r.tuples_moved;
          Table.Int r.solutions;
          Table.Text (if r.identical then "yes" else "NO");
        ])
      rows_data
  in
  let s = !set_stats in
  let table =
    Table.make
      ~title:
        (Printf.sprintf
           "E19  set-oriented endpoint of the I-C range — ancestor (%d persons, %d \
            queries)"
           persons queries)
      ~columns:
        [ "strategy"; "remote req"; "caql q"; "resolutions"; "tuples moved"; "solutions"; "identical" ]
      ~notes:
        [
          "every answer diffed against a fault-free reference fixpoint (consistency \
           oracle, set semantics)";
          Printf.sprintf
            "set-oriented: %d fixpoint rounds, %d conjunctive fetches moving %d tuples, \
             magic extension %d tuples"
            s.rounds s.fetches s.fetched_tuples s.magic_tuples;
          Printf.sprintf
            "unrestricted reference fixpoint: %d tuples produced over the batch"
            s.reference_resolutions;
          "the magic-set transform restricts bottom-up derivation to query-relevant \
           tuples; each rule-body base component is one PSJ-cacheable CAQL fetch";
        ]
      rows
  in
  ((rows_data, s), table)
