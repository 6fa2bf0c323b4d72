module A = Braid_caql.Ast
module R = Braid_relalg
module Qpo = Braid_planner.Qpo
module Plan = Braid_planner.Plan
module Journal = Braid_cache.Journal
module TS = Braid_stream.Tuple_stream
module Prng = Braid_prng.Prng
module Obs = Braid_obs
module Cms = Braid.Cms

type outcome =
  | Answered of Qpo.answer
  | Goal_answered of R.Relation.t
  | Shed of Qpo.answer option

type session_view = {
  sid : string;
  submitted : int;
  answered : int;
  shed : int;
  queued : int;
  p95_ms : float;
}

type payload = Caql of A.conj | Goal of Braid_logic.Atom.t

type job = { payload : payload; prefer_lazy : bool; on_reply : outcome -> unit }

let payload_to_string = function
  | Caql q -> A.conj_to_string q
  | Goal g -> Braid_logic.Atom.to_string g

type sess = {
  s_sid : string;
  qses : Qpo.session;
  queue : job Queue.t;
  hist : Obs.Histogram.t;
  mutable submitted : int;
  mutable answered : int;
  mutable shed : int;
}

type t = {
  cms : Cms.t;
  policy : Admission.policy;
  prng : Prng.t;
  co : Coalescer.t;
  mutable sess : sess list; (* creation order *)
  mutable shed_total : int;
  mutable current : string; (* sid executing right now; "" when idle *)
  mutable observer :
    (sid:string -> A.conj -> Plan.provenance -> R.Relation.t -> unit) option;
  mutable engine : Braid_ie.Engine.t option;
      (* goal jobs resolve through this IE over the shared CMS *)
}

let create ?(policy = Admission.default_policy) ?(seed = 0) cms =
  let co = Coalescer.create cms in
  Cms.set_fetcher cms (Some (Coalescer.fetch co));
  {
    cms;
    policy;
    prng = Prng.create seed;
    co;
    sess = [];
    shed_total = 0;
    current = "";
    observer = None;
    engine = None;
  }

let cms t = t.cms
let coalescer t = t.co
let set_engine t engine = t.engine <- engine
let engine t = t.engine

let find t sid = List.find_opt (fun s -> s.s_sid = sid) t.sess

let add_session t ?sid ?hist advice =
  (match sid with
   | Some sid when find t sid <> None ->
     invalid_arg (Printf.sprintf "Scheduler.add_session: duplicate session %S" sid)
   | _ -> ());
  let qses = Cms.new_session t.cms ?sid advice in
  let s_sid = Qpo.session_id qses in
  let hist = match hist with Some h -> h | None -> Obs.Histogram.create () in
  t.sess <-
    t.sess
    @ [ { s_sid; qses; queue = Queue.create (); hist; submitted = 0; answered = 0; shed = 0 } ];
  s_sid

let sessions t = List.map (fun s -> s.s_sid) t.sess

let queued t = List.fold_left (fun acc s -> acc + Queue.length s.queue) 0 t.sess

let observe_answer t ~sid q prov rel =
  match t.observer with Some f -> f ~sid q prov rel | None -> ()

let set_observer t f =
  t.observer <- f;
  match f with
  | None -> Cms.set_observer t.cms None
  | Some f ->
    Cms.set_observer t.cms (Some (fun q prov rel -> f ~sid:t.current q prov rel))

let shed t s payload on_reply decision =
  s.shed <- s.shed + 1;
  t.shed_total <- t.shed_total + 1;
  Obs.Metrics.incr "serve.shed";
  Obs.Trace.instant ~cat:"serve" "serve.shed"
    ~args:
      [
        ("sid", Obs.Trace.Str s.s_sid);
        ("reason", Obs.Trace.Str (Admission.decision_to_string decision));
      ];
  (* A goal answer is a fixpoint, not one cache element: no degraded
     cached-only substitute exists for it. *)
  let substitute =
    match payload with
    | Caql q -> Admission.cached_only (Cms.cache t.cms) q
    | Goal _ -> None
  in
  (match (substitute, payload) with
   | Some a, Caql q ->
     observe_answer t ~sid:s.s_sid q a.Qpo.provenance (TS.to_relation a.Qpo.stream)
   | _ -> ());
  on_reply (Shed substitute);
  `Shed

let submit_payload t ~sid ~prefer_lazy ~on_reply payload =
  match find t sid with
  | None -> invalid_arg (Printf.sprintf "Scheduler.submit: unknown session %S" sid)
  | Some s ->
    s.submitted <- s.submitted + 1;
    (match
       Admission.decide t.policy ~total_queued:(queued t)
         ~session_queued:(Queue.length s.queue)
     with
     | Admission.Admit ->
       Queue.add { payload; prefer_lazy; on_reply } s.queue;
       `Queued
     | (Admission.Shed_queue_full | Admission.Shed_session_cap) as d ->
       shed t s payload on_reply d)

let submit t ~sid ?(prefer_lazy = false) ?(on_reply = fun _ -> ()) (q : A.conj) =
  submit_payload t ~sid ~prefer_lazy ~on_reply (Caql q)

let submit_goal t ~sid ?(on_reply = fun _ -> ()) goal =
  if t.engine = None then
    invalid_arg "Scheduler.submit_goal: no inference engine installed (set_engine)";
  submit_payload t ~sid ~prefer_lazy:false ~on_reply (Goal goal)

let run_job t s (job : job) =
  t.current <- s.s_sid;
  Journal.set_context (Cms.journal t.cms) s.s_sid;
  Obs.Trace.with_span ~cat:"serve" "serve.session"
    ~args:
      (if Obs.Trace.enabled () then
         [
           ("sid", Obs.Trace.Str s.s_sid);
           ("query", Obs.Trace.Str (payload_to_string job.payload));
         ]
       else [])
    (fun () ->
      let before = (Cms.metrics t.cms).Qpo.elapsed_ms in
      let outcome =
        match job.payload with
        | Caql q ->
          Answered (Cms.query t.cms ~session:s.qses ~prefer_lazy:job.prefer_lazy q)
        | Goal g ->
          let engine =
            match t.engine with
            | Some e -> e
            | None ->
              invalid_arg "Scheduler: goal job but no inference engine installed"
          in
          Obs.Metrics.incr "serve.goals";
          Goal_answered (fst (Braid_ie.Engine.solve_all engine g))
      in
      let elapsed = (Cms.metrics t.cms).Qpo.elapsed_ms -. before in
      Obs.Histogram.observe s.hist elapsed;
      Obs.Metrics.observe "serve.session_ms" elapsed;
      Obs.Trace.add_arg "elapsed_ms" (Obs.Trace.Float elapsed);
      s.answered <- s.answered + 1;
      job.on_reply outcome)

let step t =
  if queued t = 0 then 0
  else begin
    let arr = Array.of_list t.sess in
    let n = Array.length arr in
    let start = Prng.int t.prng n in
    Coalescer.begin_round t.co;
    let executed = ref 0 in
    (* The finalizer matters on the crash path: a Fault.Crash escaping a
       job must still close the coalescer window and clear the journal's
       session context before the exception reaches the recovery code. *)
    Fun.protect
      ~finally:(fun () ->
        Coalescer.end_round t.co;
        Journal.set_context (Cms.journal t.cms) "";
        t.current <- "")
      (fun () ->
        for i = 0 to n - 1 do
          let s = arr.((start + i) mod n) in
          match Queue.take_opt s.queue with
          | None -> ()
          | Some job ->
            run_job t s job;
            incr executed
        done);
    !executed
  end

let drain t =
  let rec go acc = match step t with 0 -> acc | k -> go (acc + k) in
  go 0

let view_of (s : sess) =
  {
    sid = s.s_sid;
    submitted = s.submitted;
    answered = s.answered;
    shed = s.shed;
    queued = Queue.length s.queue;
    p95_ms =
      (if Obs.Histogram.count s.hist = 0 then 0.0 else Obs.Histogram.quantile s.hist 0.95);
  }

let session_view t sid = Option.map view_of (find t sid)
let session_views t = List.map view_of t.sess
let shed_total t = t.shed_total
let current_session t = if t.current = "" then None else Some t.current
