module Rdi = Braid_remote.Rdi
module Sql = Braid_remote.Sql
module Cms = Braid.Cms
module Obs = Braid_obs

type stats = {
  mutable requests : int;
  mutable identical_hits : int;
  mutable subsumed_hits : int;
  mutable misses : int;
  mutable rounds : int;
}

let zero () = { requests = 0; identical_hits = 0; subsumed_hits = 0; misses = 0; rounds = 0 }

type t = {
  exec : Sql.select -> Rdi.outcome;
  (* The current wave's fetches with whatever each produced, a failure
     included; newest first. *)
  mutable window : (Sql.select * Rdi.outcome) list;
  mutable active : bool;
  stats : stats;
}

let create cms = { exec = Cms.exec_remote cms; window = []; active = false; stats = zero () }

let begin_round t =
  t.window <- [];
  t.active <- true;
  t.stats.rounds <- t.stats.rounds + 1

let end_round t =
  t.window <- [];
  t.active <- false

let fetch t _def sql =
  if not t.active then t.exec sql
  else begin
    t.stats.requests <- t.stats.requests + 1;
    match List.assoc_opt sql t.window with
    | Some outcome ->
      t.stats.identical_hits <- t.stats.identical_hits + 1;
      Obs.Metrics.incr "serve.coalesce.identical";
      if Obs.Trace.enabled () then
        Obs.Trace.instant ~cat:"serve" "serve.coalesce"
          ~args:[ ("kind", Obs.Trace.Str "identical"); ("sql", Obs.Trace.Str (Sql.to_string sql)) ];
      outcome
    | None ->
      t.stats.misses <- t.stats.misses + 1;
      Obs.Metrics.incr "serve.coalesce.miss";
      let outcome = t.exec sql in
      t.window <- (sql, outcome) :: t.window;
      outcome
  end

let stats t = { t.stats with requests = t.stats.requests }

let sum l =
  let acc = zero () in
  List.iter
    (fun s ->
      acc.requests <- acc.requests + s.requests;
      acc.identical_hits <- acc.identical_hits + s.identical_hits;
      acc.misses <- acc.misses + s.misses;
      acc.rounds <- acc.rounds + s.rounds)
    l;
  acc
