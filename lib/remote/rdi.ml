module R = Braid_relalg
module Prng = Braid_prng.Prng
module Obs = Braid_obs

type policy = {
  deadline_ms : float option;
  request_budget_ms : float option;
  max_retries : int;
  backoff_base_ms : float;
  backoff_multiplier : float;
  backoff_jitter : float;
  breaker_threshold : int;
  breaker_cooldown : int;
  seed : int;
}

let default_policy =
  {
    deadline_ms = None;
    request_budget_ms = None;
    max_retries = 3;
    backoff_base_ms = 25.0;
    backoff_multiplier = 2.0;
    backoff_jitter = 0.25;
    breaker_threshold = 5;
    breaker_cooldown = 8;
    seed = 7;
  }

type breaker_state = Closed | Open | Half_open

type failure =
  | Remote_fault of Fault.kind
  | Breaker_open
  | Replica_lag of int

let failure_to_string = function
  | Remote_fault k -> Fault.kind_to_string k
  | Breaker_open -> "breaker-open"
  | Replica_lag n -> Printf.sprintf "replica-lag(%d)" n

type outcome =
  | Fresh of R.Relation.t
  | Stale of R.Relation.t * failure
  | Failed of failure

type stats = {
  mutable requests : int;
  mutable attempts : int;
  mutable retries : int;
  mutable failures : int;
  mutable deadline_misses : int;
  mutable trips : int;
  mutable fast_fails : int;
  mutable half_open_probes : int;
  mutable backoff_ms : float;
}

let zero () =
  {
    requests = 0;
    attempts = 0;
    retries = 0;
    failures = 0;
    deadline_misses = 0;
    trips = 0;
    fast_fails = 0;
    half_open_probes = 0;
    backoff_ms = 0.0;
  }

type t = {
  server : Server.t;
  mutable policy : policy;
  mutable prng : Prng.t;
  mutable state : breaker_state;
  mutable consecutive_failures : int;
  mutable cooldown_left : int;
  stats : stats;
}

let create ?(policy = default_policy) server =
  {
    server;
    policy;
    prng = Prng.create policy.seed;
    state = Closed;
    consecutive_failures = 0;
    cooldown_left = 0;
    stats = zero ();
  }

let server t = t.server
let policy t = t.policy

let set_policy t policy =
  t.policy <- policy;
  t.prng <- Prng.create policy.seed;
  t.state <- Closed;
  t.consecutive_failures <- 0;
  t.cooldown_left <- 0

let breaker t = t.state

let backoff_delay t ~attempt =
  let p = t.policy in
  let base = p.backoff_base_ms *. (p.backoff_multiplier ** float_of_int attempt) in
  base *. (1.0 +. (Prng.float t.prng *. p.backoff_jitter))

let trip t =
  t.state <- Open;
  t.consecutive_failures <- 0;
  t.cooldown_left <- t.policy.breaker_cooldown;
  t.stats.trips <- t.stats.trips + 1;
  Obs.Metrics.incr "rdi.trips";
  Obs.Trace.instant ~cat:"rdi" "rdi.trip"
    ~args:[ ("cooldown", Obs.Trace.Int t.policy.breaker_cooldown) ]

let note_failure t =
  t.consecutive_failures <- t.consecutive_failures + 1;
  if t.consecutive_failures >= t.policy.breaker_threshold then begin
    trip t;
    true (* tripped: stop retrying *)
  end
  else false

let note_success t =
  t.consecutive_failures <- 0;
  match t.state with
  | Half_open ->
    t.state <- Closed;
    Obs.Trace.instant ~cat:"rdi" "rdi.close"
  | Closed | Open -> ()

(* The end of a request that got no answer. *)
let fail failure =
  Obs.Metrics.incr "rdi.failures";
  Obs.Trace.instant ~cat:"rdi" "rdi.fail"
    ~args:[ ("cause", Obs.Trace.Str (failure_to_string failure)) ];
  Error failure

(* One server round trip; classifies the fault and updates the breaker. *)
let attempt t sql =
  t.stats.attempts <- t.stats.attempts + 1;
  match Server.exec t.server ?deadline_ms:t.policy.deadline_ms sql with
  | rel ->
    note_success t;
    Ok rel
  | exception Fault.Injected Fault.Crash ->
    (* Not a remote failure: the CMS itself dies here. No retry, no
       failure or breaker accounting — recovery replays the journal. *)
    raise (Fault.Injected Fault.Crash)
  | exception Fault.Injected kind ->
    if kind = Fault.Timeout then begin
      t.stats.deadline_misses <- t.stats.deadline_misses + 1;
      Obs.Metrics.incr "rdi.deadline_misses"
    end;
    let tripped = note_failure t in
    Error (kind, tripped)

let rec exec t sql =
  t.stats.requests <- t.stats.requests + 1;
  Obs.Metrics.incr "rdi.requests";
  Obs.Trace.with_span ~cat:"rdi" "rdi.exec"
    ~args:
      (if Obs.Trace.enabled () then [ ("sql", Obs.Trace.Str (Sql.to_string sql)) ] else [])
    (fun () -> exec_traced t sql)

and exec_traced t sql =
  (* Simulated milliseconds this server has accumulated so far — deltas
     around each attempt are what the request budget is charged with. *)
  let sim_now () =
    let s = Server.stats t.server in
    s.Server.server_ms +. s.Server.comm_ms
  in
  let run_attempts () =
    let max_tries =
      match t.state with Half_open -> 1 | Closed | Open -> 1 + t.policy.max_retries
    in
    (* Cumulative simulated spend of THIS request: every attempt's server +
       communication time plus every backoff wait. [deadline_ms] only bounds
       one attempt; [request_budget_ms] bounds their sum, so retries can no
       longer spend many multiples of the caller's budget. *)
    let spent = ref 0.0 in
    let over_budget () =
      match t.policy.request_budget_ms with
      | Some budget -> !spent > budget
      | None -> false
    in
    let give_up kind =
      t.stats.failures <- t.stats.failures + 1;
      (match t.state with
       | Half_open ->
         (* The probe failed: reopen without counting more failures. *)
         t.state <- Open;
         t.cooldown_left <- t.policy.breaker_cooldown;
         Obs.Trace.instant ~cat:"rdi" "rdi.reopen"
       | Closed | Open -> ());
      fail (Remote_fault kind)
    in
    let rec go try_ =
      let before = sim_now () in
      match attempt t sql with
      | Ok rel -> Ok rel
      | Error (kind, tripped) ->
        spent := !spent +. (sim_now () -. before);
        if tripped || try_ >= max_tries - 1 then give_up kind
        else if over_budget () then begin
          (* The attempts alone already blew the caller's budget: a
             request-level deadline miss, distinct from the per-attempt
             Timeout the injector may also have charged. *)
          t.stats.deadline_misses <- t.stats.deadline_misses + 1;
          Obs.Metrics.incr "rdi.deadline_misses";
          Obs.Trace.instant ~cat:"rdi" "rdi.budget_stop"
            ~args:[ ("spent_ms", Obs.Trace.Float !spent) ];
          give_up kind
        end
        else begin
          let delay = backoff_delay t ~attempt:try_ in
          spent := !spent +. delay;
          if over_budget () then begin
            (* Waiting out this backoff would blow the budget: stop now
               rather than sleep past it. The jitter draw stays spent, so
               same-seed schedules remain aligned. *)
            t.stats.deadline_misses <- t.stats.deadline_misses + 1;
            Obs.Metrics.incr "rdi.deadline_misses";
            Obs.Trace.instant ~cat:"rdi" "rdi.budget_stop"
              ~args:[ ("spent_ms", Obs.Trace.Float !spent) ];
            give_up kind
          end
          else begin
            t.stats.retries <- t.stats.retries + 1;
            t.stats.backoff_ms <- t.stats.backoff_ms +. delay;
            Obs.Metrics.incr "rdi.retries";
            Obs.Metrics.observe "rdi.backoff_ms" delay;
            Obs.Trace.instant ~cat:"rdi" "rdi.retry"
              ~args:
                [
                  ("try", Obs.Trace.Int try_);
                  ("fault", Obs.Trace.Str (Fault.kind_to_string kind));
                  ("backoff_ms", Obs.Trace.Float delay);
                ];
            go (try_ + 1)
          end
        end
    in
    go 0
  in
  match t.state with
  | Open when t.cooldown_left > 0 ->
    t.cooldown_left <- t.cooldown_left - 1;
    t.stats.fast_fails <- t.stats.fast_fails + 1;
    Obs.Metrics.incr "rdi.fast_fails";
    Obs.Trace.instant ~cat:"rdi" "rdi.fast_fail"
      ~args:[ ("cooldown_left", Obs.Trace.Int t.cooldown_left) ];
    fail Breaker_open
  | Open ->
    (* Cooldown over: this request is the half-open probe. *)
    t.state <- Half_open;
    t.stats.half_open_probes <- t.stats.half_open_probes + 1;
    Obs.Trace.instant ~cat:"rdi" "rdi.probe";
    run_attempts ()
  | Closed | Half_open -> run_attempts ()

let stats t = { t.stats with requests = t.stats.requests }

let sum l =
  let acc = zero () in
  List.iter
    (fun s ->
      acc.requests <- acc.requests + s.requests;
      acc.attempts <- acc.attempts + s.attempts;
      acc.retries <- acc.retries + s.retries;
      acc.failures <- acc.failures + s.failures;
      acc.deadline_misses <- acc.deadline_misses + s.deadline_misses;
      acc.trips <- acc.trips + s.trips;
      acc.fast_fails <- acc.fast_fails + s.fast_fails;
      acc.half_open_probes <- acc.half_open_probes + s.half_open_probes;
      acc.backoff_ms <- acc.backoff_ms +. s.backoff_ms)
    l;
  acc
