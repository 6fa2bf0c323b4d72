module R = Braid_relalg
module L = Braid_logic
module A = Braid_caql.Ast
module TS = Braid_stream.Tuple_stream
module CMgr = Braid_cache.Cache_manager
module Elem = Braid_cache.Element
module Server = Braid_remote.Server
module Rdi = Braid_remote.Rdi
module Router = Braid_remote.Shard_router
module Catalog = Braid_remote.Catalog
module CModel = Braid_remote.Cost_model
module Sub = Braid_subsume.Subsumption
module Form = Braid_subsume.Form
module Adv = Braid_advice.Advisor
module To_sql = Braid_caql.To_sql
module Analyze = Braid_caql.Analyze
module Obs = Braid_obs

let log_src = Logs.Src.create "braid.qpo" ~doc:"Query Planner/Optimizer decisions"

module Log = (val Logs.src_log log_src : Logs.LOG)

type caching_mode =
  | No_cache
  | Exact_match
  | Single_relation
  | Subsumption

type config = {
  caching : caching_mode;
  use_advice : bool;
  allow_lazy : bool;
  allow_generalization : bool;
  allow_prefetch : bool;
  allow_parallel : bool;
  advice_indexing : bool;
  allow_semijoin : bool;
}

let braid_config =
  {
    caching = Subsumption;
    use_advice = true;
    allow_lazy = true;
    allow_generalization = true;
    allow_prefetch = true;
    allow_parallel = true;
    advice_indexing = true;
    allow_semijoin = true;
  }

(* Do not prefetch or generalize families estimated above this size. *)
let prefetch_max_tuples = 20_000

(* Cache a locally computed result when it touched at least this many
   tuples (recomputation would be expensive). *)
let recompute_cache_threshold = 100

let loose_coupling_config =
  {
    braid_config with
    caching = No_cache;
    use_advice = false;
    allow_lazy = false;
    allow_generalization = false;
    allow_prefetch = false;
    allow_parallel = false;
    advice_indexing = false;
  }

let bermuda_config =
  {
    loose_coupling_config with
    caching = Exact_match;
  }

let ceri_config = { loose_coupling_config with caching = Single_relation }

let no_advice_config =
  {
    braid_config with
    use_advice = false;
    allow_generalization = false;
    allow_prefetch = false;
    advice_indexing = false;
  }

type metrics = {
  mutable queries : int;
  mutable exact_hits : int;
  mutable full_hits : int;
  mutable partial_hits : int;
  mutable misses : int;
  mutable generalizations : int;
  mutable prefetches : int;
  mutable lazy_answers : int;
  mutable indexes_built : int;
  mutable degraded : int;
  mutable semijoin_pushdowns : int;
  mutable semijoin_values : int;
  mutable local_ms : float;
  mutable elapsed_ms : float;
}

(* Per-session CMS state (paper §3: "a session begins with a set of
   advice"): the Advice Manager — and with it the path tracker, the
   prefetched-this-epoch set and the element→spec association used for
   replacement pinning — is client state, not cache state. The serving
   layer (lib/serve) creates one [session] per client and multiplexes them
   over the one shared planner/cache/RDI; single-session callers never see
   this and keep using the planner's default session. *)
type session = {
  sid : string;
  mutable advisor : Adv.t;
  elem_spec : (string, string) Hashtbl.t; (* element id -> originating spec id *)
  spec_elems : (string, (string, unit) Hashtbl.t) Hashtbl.t; (* its reverse *)
  mutable dirty : string list; (* elements associated since the last [update_pins] *)
  mutable kept : string list; (* the spec ids the last [update_pins] pinned for *)
  mutable pins_synced : (CMgr.t * int) option;
      (* the cache and its pin epoch right after the last [update_pins] *)
  prefetched : (string, unit) Hashtbl.t; (* spec ids prefetched this epoch *)
}

let fresh_session sid advice =
  {
    sid;
    advisor = Adv.create advice;
    elem_spec = Hashtbl.create 32;
    spec_elems = Hashtbl.create 16;
    dirty = [];
    kept = [];
    pins_synced = None;
    prefetched = Hashtbl.create 16;
  }

(* Every element→spec link is written here: it keeps the spec→elements
   index [update_pins] re-pins from, and marks the element for its next
   call. *)
let associate ses elem_id spec_id =
  let elems_of spec =
    match Hashtbl.find_opt ses.spec_elems spec with
    | Some elems -> elems
    | None ->
      let elems = Hashtbl.create 16 in
      Hashtbl.replace ses.spec_elems spec elems;
      elems
  in
  Option.iter
    (fun old -> Hashtbl.remove (elems_of old) elem_id)
    (Hashtbl.find_opt ses.elem_spec elem_id);
  Hashtbl.replace (elems_of spec_id) elem_id ();
  Hashtbl.replace ses.elem_spec elem_id spec_id;
  ses.dirty <- elem_id :: ses.dirty

type t = {
  config : config;
  cache : CMgr.t;
  server : Server.t;
  rdi : Rdi.t;
  router : Router.t option;
      (* sharded remote: when present, fetches route through the shard
         router's per-shard RDIs instead of [rdi], and remote accounting
         aggregates over the shards *)
  default_session : session;
  mutable session_counter : int;
  stats : metrics;
  mutable fetch_counter : int;
  mutable observer : (A.conj -> Plan.provenance -> R.Relation.t -> unit) option;
  mutable fetcher : (A.conj -> Braid_remote.Sql.select -> Rdi.outcome) option;
}

exception Unknown_relation = Braid_cache.Query_processor.Unknown_relation

let create ?rdi_policy ?router config ~cache ~server =
  (match router with
   | Some r -> (match rdi_policy with Some p -> Router.set_policy r p | None -> ())
   | None -> ());
  {
    config;
    cache;
    server;
    rdi = Rdi.create ?policy:rdi_policy server;
    router;
    default_session = fresh_session "main" { Braid_advice.Ast.specs = []; path = None };
    session_counter = 0;
    stats =
      {
        queries = 0;
        exact_hits = 0;
        full_hits = 0;
        partial_hits = 0;
        misses = 0;
        generalizations = 0;
        prefetches = 0;
        lazy_answers = 0;
        indexes_built = 0;
        degraded = 0;
        semijoin_pushdowns = 0;
        semijoin_values = 0;
        local_ms = 0.0;
        elapsed_ms = 0.0;
      };
    fetch_counter = 0;
    observer = None;
    fetcher = None;
  }

let config t = t.config
let cache t = t.cache
let server t = t.server
let rdi t = t.rdi
let router t = t.router

(* Remote-side accounting: the single server, or the shard fleet summed. *)
let remote_stats t =
  match t.router with Some r -> Router.stats r | None -> Server.stats t.server

let rdi_stats t =
  match t.router with Some r -> Router.rdi_stats r | None -> Rdi.stats t.rdi

(* The resilient request primitive: per-shard RDIs behind the router when
   sharded, the single RDI otherwise. The serving layer's coalescer calls
   this as its fallback. *)
let exec_remote t sql =
  match t.router with
  | Some r -> Router.exec r sql
  | None -> (match Rdi.exec t.rdi sql with Ok rel -> Rdi.Fresh rel | Error f -> Rdi.Failed f)

let new_session t ?sid advice =
  let sid =
    match sid with
    | Some s -> s
    | None ->
      t.session_counter <- t.session_counter + 1;
      Printf.sprintf "s%d" t.session_counter
  in
  fresh_session sid advice

let session_id ses = ses.sid
let session_advisor ses = ses.advisor

let set_observer t f = t.observer <- f
let set_fetcher t f = t.fetcher <- f

(* Element→spec links end with their advice epoch: the next advice reuses
   the spec ids d1…dn for other views, so a surviving link would pin its
   element whenever the tracker predicts the reused id. *)
let advise ?nfa ?forms t ses advice =
  Hashtbl.iter (fun elem_id _ -> CMgr.pin t.cache elem_id false) ses.elem_spec;
  Hashtbl.reset ses.elem_spec;
  Hashtbl.reset ses.spec_elems;
  ses.dirty <- [];
  ses.kept <- [];
  ses.pins_synced <- Some (t.cache, CMgr.pin_epoch t.cache);
  ses.advisor <- Adv.create ?nfa ?forms advice;
  Hashtbl.reset ses.prefetched

let set_advice ?nfa ?forms t advice = advise ?nfa ?forms t t.default_session advice

let catalog t = Server.catalog t.server
let remote_schema t name = Catalog.schema_of (catalog t) name

let schema_resolver t extras name =
  match List.assoc_opt name extras with
  | Some rel -> Some (R.Relation.schema rel)
  | None ->
    (match CMgr.find t.cache name with
     | Some e -> Some (Elem.schema e)
     | None -> remote_schema t name)

let fresh_extra t =
  t.fetch_counter <- t.fetch_counter + 1;
  Printf.sprintf "__r%d" t.fetch_counter

(* Reinterpret a fetched relation under the schema its definition
   describes, so cached elements carry meaningful attribute names and
   types. A zero-copy schema view: the rows are shared, not rebuilt. *)
let retyped t (def : A.conj) rel =
  let schema = Analyze.schema_of_conj (schema_resolver t []) def in
  if R.Schema.arity schema <> R.Schema.arity (R.Relation.schema rel) then rel
  else R.Relation.with_schema schema rel

let single_atom_def (a : L.Atom.t) =
  A.conj (List.map (fun x -> L.Term.Var x) (L.Atom.vars a)) [ a ]

(* --- solving: produce a rewritten query over cache elements / extras --- *)

type solved = {
  s_rewritten : A.conj;
  s_extras : (string * R.Relation.t) list;
  s_steps : Plan.step list;
  s_used_cache : bool;
  s_used_remote : bool;
  s_covered_cards : int; (* cached tuples available for overlap with remote work *)
  s_degraded : bool; (* some remote part was served stale or not at all *)
}

let no_arith_cmp (_, a, b) =
  let simple = function L.Literal.Term _ -> true | _ -> false in
  simple a && simple b

let cmp_vars (_, a, b) = L.Literal.expr_vars a @ L.Literal.expr_vars b

let uniq xs =
  let rec loop seen = function
    | [] -> List.rev seen
    | x :: rest -> loop (if List.mem x seen then seen else x :: seen) rest
  in
  loop [] xs

(* All remote requests leave through here: the RDI directly, or — when the
   serving layer installed a fetch hook — its coalescer, which dedups
   identical in-flight requests across concurrent sessions before falling
   back to the same RDI. *)
let do_fetch t (def : A.conj) sql =
  match t.fetcher with Some f -> f def sql | None -> exec_remote t sql

(* One resilient remote request. Always produces a relation, plus why it
   is degraded when it is: a stale subset from the shard router (a lagging
   replica, a partial scatter merge), or — when the remote is unavailable —
   an explicitly empty extension under the definition's schema. *)
let remote_fetch t (def : A.conj) sql =
  let text = Braid_remote.Sql.to_string sql in
  match do_fetch t def sql with
  | Rdi.Fresh rel -> (retyped t def rel, text, None)
  | Rdi.Stale (rel, f) -> (retyped t def rel, text, Some (Plan.Stale_subset f))
  | Rdi.Failed f ->
    Log.debug (fun m -> m "remote unavailable, empty degraded answer for [%s]" text);
    let schema = Analyze.schema_of_conj (schema_resolver t []) def in
    (R.Relation.create schema, text, Some (Plan.Unavailable f))

(* --- semi-join pushdown (transfer reduction) ---

   When part of the query is already answered from local cache elements,
   a remote fetch that feeds a join with that local part only needs
   tuples whose join-key value actually occurs on the local side. We
   attach an IN-style filter ([Sql.with_semijoins]) to the shipped
   request whenever the modeled transfer saving beats the modeled cost of
   shipping the filter values themselves.

   A filtered fetch is a superset of the joinable rows but NOT a complete
   extension of its definition, so it must never be cached under that
   definition: both fetch paths report a [filtered] flag that the caller
   folds into [stash ~cacheable]. *)

let semijoin_max_values = 256

(* Distinct count of the first base column a definition binds [v] to;
   the denominator of the filter's selectivity estimate. *)
let distinct_for catalog (def : A.conj) v =
  let of_atom (a : L.Atom.t) =
    let rec find i = function
      | [] -> None
      | L.Term.Var x :: _ when x = v -> Some (Cost.distinct_at catalog a i)
      | _ :: rest -> find (i + 1) rest
    in
    find 0 a.L.Atom.args
  in
  match List.find_map of_atom def.A.atoms with Some d -> d | None -> 10

(* Attach IN-filters for head variables we hold local value sets for.
   [To_sql.translate] lists one output column per head term in order, so
   head position [j] names the column to filter. Returns the (possibly
   filtered) request plus whether any filter was attached. *)
let attach_semijoins t (def : A.conj) (sql : Braid_remote.Sql.select) local_values =
  if (not t.config.allow_semijoin) || local_values = [] then (sql, false)
  else begin
    let model = Server.cost_model t.server in
    let est = float_of_int (Cost.est_conj (catalog t) def) in
    let filters =
      List.concat
        (List.mapi
           (fun j term ->
             match term with
             | L.Term.Const _ -> []
             | L.Term.Var v ->
               (match List.assoc_opt v local_values with
                | None -> []
                | Some values ->
                  let n = List.length values in
                  if n = 0 || n > semijoin_max_values then []
                  else begin
                    let distinct = float_of_int (distinct_for (catalog t) def v) in
                    let sel = Float.min 1.0 (float_of_int n /. distinct) in
                    let saved =
                      est *. (1.0 -. sel) *. model.CModel.transfer_tuple_ms
                    in
                    let filter_cost =
                      float_of_int n *. model.CModel.filter_value_ms
                    in
                    if saved <= filter_cost then []
                    else
                      match List.nth_opt sql.Braid_remote.Sql.columns j with
                      | Some (Braid_remote.Sql.Col col) -> [ (col, values) ]
                      | Some (Braid_remote.Sql.Const _) | None -> []
                  end))
           def.A.head)
    in
    if filters = [] then (sql, false)
    else begin
      t.stats.semijoin_pushdowns <- t.stats.semijoin_pushdowns + 1;
      t.stats.semijoin_values <-
        t.stats.semijoin_values
        + List.fold_left (fun acc (_, vs) -> acc + List.length vs) 0 filters;
      Obs.Metrics.incr "qpo.semijoin_pushdown";
      Log.debug (fun m ->
          m "semi-join pushdown: %d filter(s) on [%s]" (List.length filters)
            (A.conj_to_string def));
      (Braid_remote.Sql.with_semijoins sql filters, true)
    end
  end

(* Fetch a single relation occurrence from the remote DBMS. *)
let fetch_atom t ?(local_values = []) (a : L.Atom.t) =
  let def = single_atom_def a in
  match To_sql.translate ~schema_of:(remote_schema t) def with
  | Ok sql ->
    let sql, filtered = attach_semijoins t def sql local_values in
    let rel, text, degraded = remote_fetch t def sql in
    (def, rel, text, degraded, filtered)
  | Error (To_sql.Unknown_relation r) -> raise (Unknown_relation r)
  | Error f -> invalid_arg ("Qpo.fetch_atom: " ^ To_sql.failure_to_string f)

(* Try to ship a conjunction as one remote request. [None] only when it
   does not translate to SQL; a failed ship degrades like any fetch. *)
let ship_conj t ?(local_values = []) (sc : A.conj) =
  match To_sql.translate ~schema_of:(remote_schema t) sc with
  | Ok sql ->
    let sql, filtered = attach_semijoins t sc sql local_values in
    let rel, text, degraded = remote_fetch t sc sql in
    Some (rel, text, degraded, filtered)
  | Error (To_sql.Unknown_relation r) -> raise (Unknown_relation r)
  | Error _ -> None

(* Cache a fetched extension under its definition; fall back to an extra
   relation when it does not fit. Returns the replacement predicate name
   plus the extras/steps contributions. Degraded (stale/unavailable) data
   is NEVER cached — a later fresh fetch must not find a poisoned hit —
   and is reported as a [Degraded_serve] step instead. *)
let stash t ~cacheable ~degraded (def : A.conj) rel sql ~ship =
  let mk_step cached_as =
    match degraded with
    | None ->
      if ship then Plan.Ship_subquery { sql; cached_as }
      else Plan.Remote_fetch { sql; cached_as }
    | Some source -> Plan.Degraded_serve { sql; source }
  in
  let as_extra () =
    let name = fresh_extra t in
    (name, [ (name, rel) ], [ mk_step None ])
  in
  if not (cacheable && degraded = None) then as_extra ()
  else
    match CMgr.insert t.cache ~def rel with
    | Some e -> (e.Elem.id, [], [ mk_step (Some e.Elem.id) ])
    | None -> as_extra ()

(* Fetch the uncovered part of a query, either as one shipped join or one
   request per relation occurrence, choosing by estimated cost; CERI86
   caches single relations only, so it always fetches per occurrence.
   [local_values] carries join-key value sets already held locally (from
   chosen cache covers) for semi-join pushdown. *)
let fetch_uncovered t ~cacheable ~local_values (q : A.conj) uncovered_idx external_vars =
  let uncovered =
    List.filteri (fun i _ -> List.mem i uncovered_idx) q.A.atoms
  in
  let ship_replacement () =
    if List.length uncovered < 2 || t.config.caching = Single_relation then None
    else begin
      let atom_vars = uniq (List.concat_map L.Atom.vars uncovered) in
      let head_vars =
        match List.filter (fun v -> List.mem v external_vars) atom_vars with
        | [] -> atom_vars
        | vs -> vs
      in
      if head_vars = [] then None
      else begin
        let shippable_cmps =
          List.filter
            (fun c -> no_arith_cmp c && List.for_all (fun v -> List.mem v atom_vars) (cmp_vars c))
            q.A.cmps
        in
        let sc =
          A.conj ~cmps:shippable_cmps (List.map (fun v -> L.Term.Var v) head_vars) uncovered
        in
        let model = Server.cost_model t.server in
        let ship_c = Cost.ship_cost model (catalog t) sc in
        let atoms_c = Cost.per_atom_cost model (catalog t) sc in
        Log.debug (fun m ->
            m "cache-vs-DBMS split: ship=%.1fms per-atom=%.1fms for %s" ship_c atoms_c
              (A.conj_to_string sc));
        if ship_c > atoms_c then None
        else
          match ship_conj t ~local_values sc with
          | Some (rel, sql, source, filtered) ->
            let name, extras, steps =
              stash t ~cacheable:(cacheable && not filtered) ~degraded:source sc rel sql
                ~ship:true
            in
            let repl = L.Atom.make name (List.map (fun v -> L.Term.Var v) head_vars) in
            Some ([ (uncovered_idx, repl) ], extras, steps, source <> None)
          | None -> None
      end
    end
  in
  match ship_replacement () with
  | Some r -> r
  | None ->
    (* one fetch per occurrence *)
    List.fold_left
      (fun (repls, extras, steps, degraded) i ->
        let a = List.nth q.A.atoms i in
        let def, rel, sql, source, filtered = fetch_atom t ~local_values a in
        let name, extras', steps' =
          stash t ~cacheable:(cacheable && not filtered) ~degraded:source def rel sql
            ~ship:false
        in
        let repl = L.Atom.make name def.A.head in
        ( repls @ [ ([ i ], repl) ],
          extras @ extras',
          steps @ steps',
          degraded || source <> None ))
      ([], [], [], false) uncovered_idx

(* Exact-match lookup by a query's form and constants ({!Form.of_conj}),
   computed once per query and probed with several times. *)
let find_key t key = Braid_cache.Cache_model.find_variant (CMgr.model t.cache) key

(* QPO step 2, narrowed to the elements each discipline may reuse: BrAID
   any element that subsumes part of the query (§5.3.2), BERMUDA only the
   query's own result [IOAN88], CERI86 only each atom's own selection,
   loose coupling nothing. *)
let candidate_covers t ~key (q : A.conj) =
  (* The full cover of [k] by the oldest element variant-equal to it. *)
  let own_cover k =
    match find_key t k with
    | Some e -> Option.map (fun c -> (e, c)) (Sub.full_cover_of ~id:e.Elem.id e.Elem.inst k)
    | None -> None
  in
  match t.config.caching with
  | Subsumption -> CMgr.relevant_covers t.cache key
  | Exact_match ->
    (* The query's own element has no full cover, and the query misses,
       when the query compares a variable the element's head projects away.
       [(Kind) :- equipment("co0", Kind, Free) & Free > 0] is stored
       without [Free], so BERMUDA fetches it again (E12); under subsumption
       835 of telecom_session's 4,047 queries per replay meet such an
       element and are answered from a broader one. *)
    Option.to_list (own_cover key)
  | Single_relation ->
    List.concat
      (List.mapi
         (fun i a ->
           match own_cover (Form.of_conj (single_atom_def a)) with
           | Some (e, c) -> [ (e, { c with Sub.covered = [ i ] }) ]
           | None -> [])
         q.A.atoms)
  | No_cache -> []

(* Greedy disjoint cover selection: larger covers first, preferring
   smaller extensions. Ties keep the order of [CMgr.relevant_covers]
   (each predicate's elements oldest first). *)
let choose_covers covers =
  let score ((e : Elem.t), (c : Sub.cover)) =
    (-List.length c.Sub.covered, Elem.cardinality_estimate e)
  in
  let sorted = List.stable_sort (fun a b -> Stdlib.compare (score a) (score b)) covers in
  let chosen, _ =
    List.fold_left
      (fun (chosen, taken) ((_, c) as ec) ->
        if List.exists (fun i -> List.mem i taken) c.Sub.covered then (chosen, taken)
        else (ec :: chosen, c.Sub.covered @ taken))
      ([], []) sorted
  in
  List.rev chosen

(* Join-key value sets the chosen covers hold locally: a cover's
   replacement atom lists one term per element column, so arg position [i]
   names extension column [i]. Oversized or colliding sets keep the
   smallest list; sets beyond [semijoin_max_values] are dropped here
   rather than shipped and rejected later. *)
let local_values_of_covers chosen =
  let distinct_col rel i =
    let tbl = Hashtbl.create 64 in
    R.Relation.iter (fun tup -> Hashtbl.replace tbl (R.Tuple.get tup i) ()) rel;
    if Hashtbl.length tbl > semijoin_max_values then None
    else Some (Hashtbl.fold (fun v () acc -> v :: acc) tbl [])
  in
  List.fold_left
    (fun acc ((e : Elem.t), (c : Sub.cover)) ->
      let rel = Elem.extension e in
      let arity = R.Schema.arity (R.Relation.schema rel) in
      List.fold_left
        (fun acc (i, v) ->
          if i >= arity then acc
          else
            match distinct_col rel i with
            | None -> acc
            | Some values ->
              (match List.assoc_opt v acc with
               | Some prev when List.length prev <= List.length values -> acc
               | Some _ | None -> (v, values) :: List.remove_assoc v acc))
        acc
        (List.concat
           (List.mapi
              (fun i t -> match t with L.Term.Var v -> [ (i, v) ] | L.Term.Const _ -> [])
              c.Sub.replacement.L.Atom.args)))
    [] chosen

let caching_mode_name = function
  | No_cache -> "no-cache"
  | Exact_match -> "exact-match"
  | Single_relation -> "single-relation"
  | Subsumption -> "subsumption"

(* Steps 2 and 3: rewrite the query over the covers chosen from the
   discipline's candidates, and fetch the rest. Fetched parts are cached
   only by BrAID and CERI86; loose coupling and BERMUDA keep whole results
   at most ([should_cache_eager_result]). *)
let solve t ~key (q : A.conj) =
  Obs.Trace.with_span ~cat:"qpo" "qpo.solve"
    ~args:
      (if Obs.Trace.enabled () then
         [
           ("query", Obs.Trace.Str (A.conj_to_string q));
           ("mode", Obs.Trace.Str (caching_mode_name t.config.caching));
         ]
       else [])
    (fun () ->
      let model = CMgr.model t.cache in
      let chosen =
        Obs.Trace.with_span ~cat:"qpo" "qpo.subsume" (fun () ->
            let covers = candidate_covers t ~key q in
            let chosen = choose_covers covers in
            Obs.Trace.add_arg "candidates" (Obs.Trace.Int (List.length covers));
            Obs.Trace.add_arg "chosen" (Obs.Trace.Int (List.length chosen));
            chosen)
      in
      let covered_idx = List.concat_map (fun (_, c) -> c.Sub.covered) chosen in
      let uncovered_idx =
        List.filter
          (fun i -> not (List.mem i covered_idx))
          (List.init (List.length q.A.atoms) Fun.id)
      in
      let cover_repls =
        List.map (fun (_, (c : Sub.cover)) -> (c.Sub.covered, c.Sub.replacement)) chosen
      in
      let cover_steps =
        List.map
          (fun ((e : Elem.t), (c : Sub.cover)) ->
            Braid_cache.Cache_model.touch model e;
            if uncovered_idx = [] && List.length chosen = 1 && Form.same e.Elem.inst key then
              Plan.Exact_hit { element = e.Elem.id }
            else Plan.Use_element { element = e.Elem.id; covered_atoms = c.Sub.covered })
          chosen
      in
      let covered_cards =
        List.fold_left (fun acc (e, _) -> acc + Elem.cardinality_estimate e) 0 chosen
      in
      let fetch_repls, extras, fetch_steps, degraded =
        if uncovered_idx = [] then ([], [], [], false)
        else begin
          let external_vars =
            uniq
              (List.concat_map (function L.Term.Var x -> [ x ] | L.Term.Const _ -> []) q.A.head
              @ List.concat_map cmp_vars q.A.cmps
              @ List.concat_map (fun (_, repl) -> L.Atom.vars repl) cover_repls)
          in
          let cacheable, local_values =
            match t.config.caching with
            | Subsumption ->
              (true, if t.config.allow_semijoin then local_values_of_covers chosen else [])
            | Single_relation -> (true, [])
            | Exact_match | No_cache -> (false, [])
          in
          fetch_uncovered t ~cacheable ~local_values q uncovered_idx external_vars
        end
      in
      {
        s_rewritten = Sub.rewrite q (cover_repls @ fetch_repls);
        s_extras = extras;
        s_steps = cover_steps @ fetch_steps;
        s_used_cache = chosen <> [];
        s_used_remote = uncovered_idx <> [];
        s_covered_cards = covered_cards;
        s_degraded = degraded;
      })

(* --- advice-driven extras: generalization, prefetch, indexing, pinning --- *)

let index_for_spec t (spec : Braid_advice.Ast.view_spec) (e : Elem.t) =
  if t.config.advice_indexing then begin
    let cols =
      List.filter
        (fun i -> i < List.length e.Elem.def.A.head)
        (Adv.index_recommendation spec)
    in
    if cols <> [] then begin
      ignore (CMgr.ensure_index t.cache e cols);
      t.stats.indexes_built <- t.stats.indexes_built + 1;
      [ Plan.Index_built { element = e.Elem.id; columns = cols } ]
    end
    else []
  end
  else []

(* Whether a plan reads a stale element. The cache's [stale_touches]
   counts tuples read from stale elements, which misses one case: a stale
   element whose selection matches nothing reads zero tuples but may hide
   rows inserted upstream since it was cached — emptiness from a stale
   element is itself stale. An answer that read one is [Degraded] and is
   never cached. *)
let read_stale_element t steps =
  List.exists
    (fun step ->
      match step with
      | Plan.Exact_hit { element }
      | Plan.Use_element { element; _ }
      | Plan.Generalized { element; _ } ->
        (match CMgr.find t.cache element with Some e -> e.Elem.stale | None -> false)
      | _ -> false)
    steps

(* Materialize a definition as a cache element (used by generalization and
   prefetching). Returns the element if it was (or already is) cached. *)
let materialize_def t ~key (def : A.conj) =
  match find_key t key with
  | Some e -> Some (e, [])
  | None ->
    let solved = solve t ~key def in
    (* A degraded fetch must not be materialized: generalizations and
       prefetches cached now would keep serving stale or empty data after
       the remote recovers. Nor must one that read a stale element. *)
    if solved.s_degraded || read_stale_element t solved.s_steps then None
    else
      (* Solving may itself have cached an element with this very definition
         (a shipped subquery equal to [def]); do not duplicate it. *)
      (match find_key t key with
       | Some e -> Some (e, solved.s_steps)
       | None ->
         let stale_before = (CMgr.stats t.cache).CMgr.stale_touches in
         let rel = CMgr.eval t.cache ~extra:solved.s_extras (A.Conj solved.s_rewritten) in
         if (CMgr.stats t.cache).CMgr.stale_touches > stale_before then None
         else
           let rel = retyped t def rel in
           (match CMgr.insert t.cache ~def rel with
            | Some e -> Some (e, solved.s_steps)
            | None -> None))

let generalization_steps t ses spec ~identified (qkey : Form.inst) =
  if
    not
      (t.config.allow_generalization && t.config.caching = Subsumption
     && t.config.use_advice)
  then []
  else
    Obs.Trace.with_span ~cat:"qpo" "qpo.generalize" (fun () ->
    (* QPO step 1 (§5.3.1): the query — or a part of it — may be subsumed
       by (the definition of) ANY view specification, not only its own;
       e.g. the paper generalizes b1(c1,Y) because d3's definition contains
       the subsuming b1(Z,Y). Prefer the query's own spec, then scan the
       rest for a strictly more general definition worth materializing.
       The spec [identify] chose is already known to cover the query. *)
    let usable (s : Braid_advice.Ast.view_spec) covers_query =
      let gkey = Adv.spec_form ses.advisor s in
      (not (Form.same gkey qkey))
      && Adv.expects_repetition ses.advisor s.Braid_advice.Ast.id
      && find_key t gkey = None
      && Cost.est_conj (catalog t) (Adv.generalized s) <= prefetch_max_tuples
      && (covers_query || Sub.subsumes ~def:gkey qkey)
    in
    let other (s : Braid_advice.Ast.view_spec) =
      match spec with
      | Some s0 -> not (String.equal s0.Braid_advice.Ast.id s.Braid_advice.Ast.id)
      | None -> true
    in
    let chosen =
      match spec with
      | Some s when usable s identified -> Some s
      | Some _ | None -> List.find_opt (fun s -> other s && usable s false) (Adv.specs ses.advisor)
    in
    match chosen with
    | None -> []
    | Some s ->
      let general = Adv.generalized s in
      let key = Adv.spec_form ses.advisor s in
      Log.debug (fun m ->
          m "generalizing %s to spec %s (%s)" (A.conj_to_string qkey.Form.conj)
            s.Braid_advice.Ast.id (A.conj_to_string general));
      (match materialize_def t ~key general with
       | Some (e, steps) ->
         associate ses e.Elem.id s.Braid_advice.Ast.id;
         t.stats.generalizations <- t.stats.generalizations + 1;
         Obs.Metrics.incr "qpo.generalizations";
         Obs.Trace.add_arg "spec" (Obs.Trace.Str s.Braid_advice.Ast.id);
         steps
         @ [ Plan.Generalized { spec = s.Braid_advice.Ast.id; element = e.Elem.id } ]
         @ index_for_spec t s e
       | None -> []))

let prefetch_steps t ses current_spec_id =
  if not (t.config.allow_prefetch && t.config.use_advice && t.config.caching = Subsumption)
  then []
  else
    Obs.Trace.with_span ~cat:"qpo" "qpo.prefetch" (fun () ->
    List.concat_map
      (fun (spec : Braid_advice.Ast.view_spec) ->
        let id = spec.Braid_advice.Ast.id in
        let key = Adv.spec_form ses.advisor spec in
        if
          Some id <> current_spec_id
          && (not (Hashtbl.mem ses.prefetched id))
          && find_key t key = None
          && Cost.est_conj (catalog t) spec.Braid_advice.Ast.def <= prefetch_max_tuples
        then begin
          Hashtbl.replace ses.prefetched id ();
          Log.debug (fun m -> m "prefetching predicted-next spec %s" id);
          match materialize_def t ~key spec.Braid_advice.Ast.def with
          | Some (e, steps) ->
            associate ses e.Elem.id id;
            t.stats.prefetches <- t.stats.prefetches + 1;
            Obs.Metrics.incr "qpo.prefetches";
            steps
            @ [ Plan.Prefetch { spec = id; element = e.Elem.id } ]
            @ index_for_spec t spec e
          | None -> []
        end
        else [])
      (Adv.predicted_next ses.advisor))

let update_pins t ses =
  (* Pin the elements backing specs predicted for the next queries — the
     paper's replacement example (§4.2.2): after d1, d2 the tracker knows
     d1 "will be required for one of the next two queries", so d1's element
     "is not the best candidate" for eviction. Elements whose spec can no
     longer occur are unpinned (plain LRU applies to them). *)
  let keep = Adv.keep ses.advisor in
  (* Incrementally: while nobody else has flipped a pin since our last call,
     every linked element already carries [spec ∈ kept], so only the
     elements of specs that entered or left [keep], and the elements linked
     since, can change. Otherwise (another session, or a different cache
     after recovery) walk every link once. *)
  let pin elem_id spec_id = CMgr.pin t.cache elem_id (List.mem spec_id keep) in
  (match ses.pins_synced with
   | Some (cache, epoch) when cache == t.cache && epoch = CMgr.pin_epoch t.cache ->
     let repin spec_id =
       match Hashtbl.find_opt ses.spec_elems spec_id with
       | Some elems -> Hashtbl.iter (fun elem_id () -> pin elem_id spec_id) elems
       | None -> ()
     in
     if keep != ses.kept then begin
       List.iter (fun id -> if not (List.mem id ses.kept) then repin id) keep;
       List.iter (fun id -> if not (List.mem id keep) then repin id) ses.kept
     end;
     List.iter
       (fun elem_id ->
         match Hashtbl.find_opt ses.elem_spec elem_id with
         | Some spec_id -> pin elem_id spec_id
         | None -> ())
       ses.dirty
   | Some _ | None -> Hashtbl.iter pin ses.elem_spec);
  ses.dirty <- [];
  ses.kept <- keep;
  ses.pins_synced <- Some (t.cache, CMgr.pin_epoch t.cache)

(* --- the public entry points --- *)

type answer = {
  stream : TS.t;
  plan : Plan.t;
  provenance : Plan.provenance;
  spec_id : string option;
}

type relation_answer = {
  relation : R.Relation.t;
  rel_plan : Plan.t;
  index : (int list -> R.Index.t) option;
}

let classify t solved =
  let hit_kind =
    if not solved.s_used_remote then
      if solved.s_used_cache then begin
        t.stats.full_hits <- t.stats.full_hits + 1;
        Obs.Metrics.incr "qpo.full_hits";
        "full-hit"
      end
      else begin
        t.stats.misses <- t.stats.misses + 1;
        Obs.Metrics.incr "qpo.misses";
        "miss"
      end
    else if solved.s_used_cache then begin
      t.stats.partial_hits <- t.stats.partial_hits + 1;
      Obs.Metrics.incr "qpo.partial_hits";
      "partial-hit"
    end
    else begin
      t.stats.misses <- t.stats.misses + 1;
      Obs.Metrics.incr "qpo.misses";
      "miss"
    end
  in
  Obs.Trace.add_arg "hit" (Obs.Trace.Str hit_kind);
  if
    List.exists
      (function
        | Plan.Exact_hit _ -> true
        | Plan.Use_element _ | Plan.Ship_subquery _ | Plan.Remote_fetch _ | Plan.Local_eval _
        | Plan.Lazy_answer | Plan.Generalized _ | Plan.Prefetch _ | Plan.Index_built _
        | Plan.Degraded_serve _ | Plan.Stale_elements _ -> false)
      solved.s_steps
  then begin
    t.stats.exact_hits <- t.stats.exact_hits + 1;
    Obs.Metrics.incr "qpo.exact_hits"
  end

let should_cache_eager_result t ses spec solved touched =
  match t.config.caching with
  | No_cache -> false
  | Exact_match -> solved.s_used_remote
  | Single_relation -> false
  | Subsumption ->
    let advice_ok =
      match spec with Some s -> Adv.should_cache_result ses.advisor s | None -> true
    in
    advice_ok
    && (solved.s_used_remote || touched >= recompute_cache_threshold)

(* What [answer_conj_untraced] computed: a lazy stream, or an eager
   relation whose row vector only the caller holds unless [cached] (then
   it is also the new cache element's). [exact_hit] is the element a lone
   exact hit read. *)
type result =
  | Lazy_result of TS.t
  | Eager_result of { rel : R.Relation.t; cached : bool; exact_hit : string option }

let exact_hit solved =
  match solved.s_steps, solved.s_extras with
  | [ Plan.Exact_hit { element } ], [] -> Some element
  | _ -> None

(* The element an exact hit read, when [rel] holds that element's
   extension row for row, in order: the same tuples, not equal copies.
   Checked row by row, so no rewrite or projection the evaluator might
   make can pass for one. *)
let element_holding t exact_hit rel =
  match Option.bind exact_hit (CMgr.find t.cache) with
  | Some e ->
    let ext = Elem.extension e in
    let n = R.Relation.cardinality rel in
    let rec same i = i = n || (R.Relation.get rel i == R.Relation.get ext i && same (i + 1)) in
    if R.Relation.cardinality ext = n && same 0 then Some e else None
  | None -> None

let answer_conj_untraced t ses ?spec_id ?(prefer_lazy = false) (q : A.conj) =
  t.stats.queries <- t.stats.queries + 1;
  (* The query's form and constants: its exact-match key, and what
     identification, generalization and cover lookup match on. *)
  let qkey = Form.of_conj q in
  let spec, identified =
    if not t.config.use_advice then (None, false)
    else
      match spec_id with
      | Some id -> (Adv.find_spec ses.advisor id, false)
      | None -> (Adv.identify ses.advisor qkey, true)
  in
  (match spec with
   | Some s when t.config.use_advice -> Adv.observe ses.advisor s.Braid_advice.Ast.id
   | Some _ | None -> ());
  (* Pin predicted-next elements *before* this query's insertions can evict
     them (the replacement decision of §5.4 uses the tracker's position). *)
  update_pins t ses;
  let before = remote_stats t in
  let touched_before = (CMgr.stats t.cache).CMgr.tuples_touched in
  let stale_before = (CMgr.stats t.cache).CMgr.stale_touches in
  (* QPO step 1: possibly evaluate a generalization first. *)
  let gen_steps = generalization_steps t ses spec ~identified qkey in
  (* Steps 2 and 3: rewrite over the cache and fetch what is missing. *)
  let solved = solve t ~key:qkey q in
  classify t solved;
  let read_stale = read_stale_element t solved.s_steps in
  let model = Server.cost_model t.server in
  let lazy_ok =
    t.config.allow_lazy
    && (not solved.s_used_remote)
    && solved.s_extras = []
    && (prefer_lazy
       || match spec with Some s -> Adv.recommend_lazy s | None -> false)
  in
  let result_steps = ref [] in
  let result =
    if lazy_ok then begin
      Log.debug (fun m -> m "answering lazily: %s" (A.conj_to_string q));
      t.stats.lazy_answers <- t.stats.lazy_answers + 1;
      Obs.Metrics.incr "qpo.lazy_answers";
      result_steps := [ Plan.Lazy_answer ];
      (* A lazy answer streams over extensions that cover the whole query,
         so caching it would only copy what the cache already holds; the
         paper's cached generators (§5.1) are these streams. *)
      Lazy_result (CMgr.eval_conj_lazy t.cache solved.s_rewritten)
    end
    else begin
      let rel = CMgr.eval t.cache ~extra:solved.s_extras (A.Conj solved.s_rewritten) in
      let touched = (CMgr.stats t.cache).CMgr.tuples_touched - touched_before in
      result_steps := [ Plan.Local_eval { touched } ];
      let degraded_eval =
        solved.s_degraded || read_stale
        || (CMgr.stats t.cache).CMgr.stale_touches > stale_before
      in
      let cached =
        should_cache_eager_result t ses spec solved touched
        && (not degraded_eval)
        && find_key t qkey = None
        &&
        match CMgr.insert t.cache ~def:q (retyped t q rel) with
        | Some e ->
          (match spec with
           | Some s ->
             associate ses e.Elem.id s.Braid_advice.Ast.id;
             result_steps := !result_steps @ index_for_spec t s e
           | None -> ());
          true
        | None -> false
      in
      Eager_result { rel; cached; exact_hit = exact_hit solved }
    end
  in
  (* Associate this spec with whichever cache element now answers it, so
     path-expression pinning can protect it (§5.4). *)
  (match spec with
   | Some s ->
     (match find_key t (Adv.spec_form ses.advisor s) with
      | Some e -> associate ses e.Elem.id s.Braid_advice.Ast.id
      | None ->
        (match find_key t qkey with
         | Some e -> associate ses e.Elem.id s.Braid_advice.Ast.id
         | None -> ()))
   | None -> ());
  update_pins t ses;
  let pf_steps = prefetch_steps t ses (Option.map (fun s -> s.Braid_advice.Ast.id) spec) in
  (* Simulated timing with optional cache/remote overlap. *)
  let after = remote_stats t in
  let touched_total = (CMgr.stats t.cache).CMgr.tuples_touched - touched_before in
  let remote_ms =
    after.Server.server_ms -. before.Server.server_ms
    +. (after.Server.comm_ms -. before.Server.comm_ms)
  in
  let local_ms = model.CModel.cache_tuple_ms *. float_of_int touched_total in
  let elapsed =
    if t.config.allow_parallel && solved.s_used_remote && solved.s_used_cache then begin
      let pre = Float.min local_ms (model.CModel.cache_tuple_ms *. float_of_int solved.s_covered_cards) in
      Float.max remote_ms pre +. (local_ms -. pre)
    end
    else remote_ms +. local_ms
  in
  t.stats.local_ms <- t.stats.local_ms +. local_ms;
  t.stats.elapsed_ms <- t.stats.elapsed_ms +. elapsed;
  Obs.Metrics.observe "qpo.local_ms" local_ms;
  Obs.Metrics.observe "qpo.elapsed_ms" elapsed;
  Obs.Trace.add_arg "elapsed_ms" (Obs.Trace.Float elapsed);
  Obs.Trace.add_arg "local_ms" (Obs.Trace.Float local_ms);
  let stale_delta = (CMgr.stats t.cache).CMgr.stale_touches - stale_before in
  let stale_steps =
    if stale_delta > 0 || read_stale then
      [ Plan.Stale_elements { touched = stale_delta } ]
    else []
  in
  let plan = gen_steps @ solved.s_steps @ !result_steps @ stale_steps @ pf_steps in
  let provenance =
    if solved.s_degraded || stale_delta > 0 || read_stale then Plan.Degraded
    else Plan.Fresh
  in
  if provenance = Plan.Degraded then begin
    t.stats.degraded <- t.stats.degraded + 1;
    Obs.Metrics.incr "qpo.degraded"
  end;
  (* Consistency-oracle hook: forcing the stream is safe (streams memoize,
     the consumer's cursors re-read the spine) but does change lazy-work
     accounting, so the observer is only ever installed by checking
     harnesses, never in benchmarked runs. *)
  (match t.observer with
   | Some f ->
     f q provenance
       (match result with
        | Lazy_result s -> TS.to_relation s
        | Eager_result { rel; _ } -> R.Relation.copy rel)
   | None -> ());
  (result, plan, provenance, Option.map (fun s -> s.Braid_advice.Ast.id) spec)

let answer_traced t ?session ?spec_id ?prefer_lazy (q : A.conj) =
  let ses = Option.value session ~default:t.default_session in
  Obs.Metrics.incr "qpo.queries";
  Obs.Trace.with_span ~cat:"qpo" "qpo.answer"
    ~args:
      (if Obs.Trace.enabled () then [ ("query", Obs.Trace.Str (A.conj_to_string q)) ]
       else [])
    (fun () ->
      let ((_, plan, provenance, spec_id) as a) =
        answer_conj_untraced t ses ?spec_id ?prefer_lazy q
      in
      if Obs.Trace.enabled () then begin
        Obs.Trace.add_arg "plan"
          (Obs.Trace.Str
             (String.concat "; " (List.map (Format.asprintf "%a" Plan.pp_step) plan)));
        Obs.Trace.add_arg "provenance" (Obs.Trace.Str (Plan.provenance_to_string provenance));
        match spec_id with
        | Some id -> Obs.Trace.add_arg "spec" (Obs.Trace.Str id)
        | None -> ()
      end;
      a)

let answer_conj t ?session ?spec_id ?prefer_lazy q =
  let result, plan, provenance, spec_id = answer_traced t ?session ?spec_id ?prefer_lazy q in
  let stream =
    match result with
    | Lazy_result s -> s
    | Eager_result { rel; _ } -> TS.of_relation rel
  in
  { stream; plan; provenance; spec_id }

let answer_relation t ?session ?spec_id q =
  let result, plan, _, _ = answer_traced t ?session ?spec_id q in
  let relation, index =
    match result with
    | Lazy_result s -> (TS.to_relation s, None)
    | Eager_result { rel; cached; exact_hit } ->
      (* A cached result shares its row vector with the new element. *)
      ( (if cached then R.Relation.copy rel else rel),
        Option.map (CMgr.ensure_index t.cache) (element_holding t exact_hit rel) )
  in
  { relation; rel_plan = plan; index }

(* Answer a conjunctive query in which [extras] names resolve to local
   scratch relations (used by the fixpoint operator); atoms over extras are
   replaced so the solver does not look for them remotely. *)
let answer_conj_with_extra t ?session extras (c : A.conj) =
  let extra_names = List.map fst extras in
  let mentions_extra =
    List.exists (fun (a : L.Atom.t) -> List.mem a.L.Atom.pred extra_names) c.A.atoms
  in
  if not mentions_extra then
    let a = answer_relation t ?session c in
    (a.relation, a.rel_plan)
  else begin
    (* Fetch each non-extra base occurrence through the planner (so caching
       and subsumption apply), then evaluate the whole conjunct locally. *)
    let fetched = ref [] in
    let atoms =
      List.map
        (fun (a : L.Atom.t) ->
          if
            List.mem a.L.Atom.pred extra_names
            || CMgr.find t.cache a.L.Atom.pred <> None
          then a
          else begin
            let def = single_atom_def a in
            let ans = answer_relation t ?session def in
            let name = fresh_extra t in
            fetched := (name, ans.relation) :: !fetched;
            (* the fetched extension's columns are the occurrence's
               distinct variables; constants were applied remotely *)
            L.Atom.make name def.A.head
          end)
        c.A.atoms
    in
    let rewritten = { c with A.atoms } in
    let extra = extras @ !fetched in
    (CMgr.eval t.cache ~extra (A.Conj rewritten), [])
  end

(* CAQL's operator walk over planner-answered leaves; a leaf naming a
   fixpoint in scope is evaluated in the CMS. Plan steps are collected in
   evaluation order. *)
let answer_query t ?session (q : A.t) =
  let steps = ref [] in
  let conj ~bound c =
    let rel, plan = answer_conj_with_extra t ?session bound c in
    steps := List.rev_append plan !steps;
    rel
  in
  let rel = Braid_caql.Eval.walk ~conj q in
  (rel, List.rev !steps)

let metrics t = { t.stats with queries = t.stats.queries }
