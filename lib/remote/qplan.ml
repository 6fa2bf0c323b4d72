(* Cost-based plan enumeration for the remote engine.

   The planner turns a [Sql.select] into an explicit operator tree: one
   access path per FROM source (sequential scan, composite-index probe,
   covering index-only scan, bitmap scan, or a probe of one column's index
   per value of a semi-join IN-set) and one strategy per join
   (hash, sort-merge, index-nested-loop, or cartesian product), with the
   join order chosen by dynamic programming over the sources (greedy
   beyond 6). Estimates come from [Catalog] cardinality and per-column
   distinct counts; operator weights come from [Cost_model.default] —
   plan *choice* always uses the default weights so it is deterministic
   and meaningful even when a server is configured with [local_only]
   accounting. *)

module R = Braid_relalg
module CM = Cost_model
module Obs = Braid_obs

let col_name (c : Sql.col) = c.Sql.src ^ "." ^ c.Sql.attr

type access_path =
  | Seq_scan
  | Index_probe of { cols : int list; key : R.Value.t list }
  | Index_only of { cols : int list }
  | Bitmap_in of { col : int; values : R.Value.t list }
  | Bitmap_cmp of { col : int; cmp : R.Row_pred.cmp; value : R.Value.t }
  | In_probe of { col : int; values : R.Value.t list } (* [values]: distinct, none wide *)

type scan_plan = {
  src : Sql.source;
  path : access_path;
  residual : Sql.cond list; (* local conds not absorbed by the path *)
  dup_probes : (int * R.Value.t) list; (* duplicate [col = const] probes *)
  semi : (int * R.Value.t list) list; (* semi-join filters applied as residual *)
  scan_est : int; (* estimated output rows *)
  base_card : int;
}

type strategy = Hash | Merge | Index_nl | Product

type node =
  | Scan of scan_plan
  | Join of join_plan

and join_plan = {
  strategy : strategy;
  left : node;
  right : node; (* [Scan] when [strategy = Index_nl] *)
  pairs : (int * int) list; (* (left pos, right pos), ascending left pos *)
  jresidual : Sql.cond list; (* conds over the combined schema *)
  jest : int;
  sort_left : bool; (* merge: input must be sorted first *)
  sort_right : bool;
}

(* A plan plus everything the enumerator needs to compose it further. *)
type t = {
  root : node;
  schema : R.Schema.t;
  origins : (int * int) array; (* output column -> (source idx, base col) *)
  est : int;
  cost : float;
  order : int list; (* column sequence the output is sorted on *)
  mask : int;
}

let modeled_cost t = t.cost

type counters = {
  mutable hash_joins : int;
  mutable merge_joins : int;
  mutable inlj_joins : int;
  mutable products : int;
  mutable seq_scans : int;
  mutable index_probes : int;
  mutable index_only_scans : int;
  mutable bitmap_scans : int;
  mutable semijoin_filters : int;
}

let fresh_counters () =
  {
    hash_joins = 0;
    merge_joins = 0;
    inlj_joins = 0;
    products = 0;
    seq_scans = 0;
    index_probes = 0;
    index_only_scans = 0;
    bitmap_scans = 0;
    semijoin_filters = 0;
  }

type explain = {
  label : string;
  est_rows : int;
  mutable actual_rows : int;
  children : explain list;
}

(* --- shared condition plumbing (moved from the old executor) --- *)

let scalar_operand schema (s : Sql.scalar) : R.Row_pred.operand option =
  match s with
  | Sql.Const v -> Some (R.Row_pred.Lit v)
  | Sql.Col c ->
    (match R.Schema.position_opt schema (col_name c) with
     | Some i -> Some (R.Row_pred.Col i)
     | None -> None)

let cond_pred schema ((cmp, a, b) : Sql.cond) =
  match scalar_operand schema a, scalar_operand schema b with
  | Some oa, Some ob -> Some (R.Row_pred.Cmp (cmp, oa, ob))
  | None, _ | _, None -> None

let scalar_str = function
  | Sql.Col c -> col_name c
  | Sql.Const v -> R.Value.to_string v

let unresolved_error ((_, a, b) : Sql.cond) =
  invalid_arg
    (Printf.sprintf "Engine.execute: unresolved condition on %s / %s" (scalar_str a)
       (scalar_str b))

(* --- per-source planning inputs --- *)

type src_info = {
  idx : int;
  source : Sql.source;
  base : R.Relation.t;
  qschema : R.Schema.t;
  card : int;
  distinct : int array;
  sorted_pref : int;
}

let src_infos ~lookup (q : Sql.select) catalog =
  List.mapi
    (fun idx (source : Sql.source) ->
      let base : R.Relation.t = lookup source.Sql.table in
      let qschema = R.Schema.qualify source.Sql.alias (R.Relation.schema base) in
      let stats = Catalog.stats_of catalog source.Sql.table in
      let arity = R.Schema.arity qschema in
      {
        idx;
        source;
        base;
        qschema;
        card = R.Relation.cardinality base;
        distinct =
          (match stats with
           | Some s when Array.length s.Catalog.distinct_per_column = arity ->
             s.Catalog.distinct_per_column
           | Some _ | None -> Array.make arity 0);
        sorted_pref =
          (match stats with Some s -> s.Catalog.sorted_prefix | None -> 0);
      })
    q.Sql.from

(* Source indices a condition touches; raises on a column no source has. *)
let cond_sources infos ((_, a, b) as c : Sql.cond) =
  let scalar_src = function
    | Sql.Const _ -> []
    | Sql.Col col ->
      (match
         List.find_opt (fun i -> R.Schema.mem i.qschema (col_name col)) infos
       with
       | Some i -> [ i.idx ]
       | None -> unresolved_error c)
  in
  List.sort_uniq Int.compare (scalar_src a @ scalar_src b)

let distinct_at info col =
  if col >= 0 && col < Array.length info.distinct then info.distinct.(col) else 0

let eq_sel info col =
  let d = distinct_at info col in
  if d > 0 then 1.0 /. float_of_int d else 0.1

let round_est f = if f <= 0.5 then (if f <= 0.0 then 0 else 1) else int_of_float (Float.round f)

(* --- access-path selection --- *)

let bitmap_max_distinct = 64

(* [needed] is [Some cols] when the query is single-source and every column
   it mentions is known — the precondition for a covering index-only scan. *)
let plan_scan catalog info ~local_conds ~semi ~needed =
  let schema = info.qschema in
  let cm = CM.default in
  (* indexable [col = const] probes vs the residual, first probe per column
     kept, duplicates re-checked as residual predicates *)
  let probes, residual_conds =
    List.partition_map
      (fun ((cmp, a, b) as c) ->
        if cmp <> R.Row_pred.Eq then Either.Right c
        else
          match a, b with
          | Sql.Col col, Sql.Const v | Sql.Const v, Sql.Col col ->
            (match R.Schema.position_opt schema (col_name col) with
             | Some i -> Either.Left (i, v, c)
             | None -> Either.Right c)
          | Sql.Col _, Sql.Col _ | Sql.Const _, Sql.Const _ -> Either.Right c)
      local_conds
  in
  let probes = List.sort (fun (i, _, _) (j, _, _) -> Int.compare i j) probes in
  let probes, probe_conds, dup_probes =
    let kept, dups =
      List.fold_left
        (fun (kept, dups) (i, v, c) ->
          if List.exists (fun (k, _, _) -> k = i) kept then (kept, (i, v) :: dups)
          else ((i, v, c) :: kept, dups))
        ([], []) probes
    in
    let kept = List.rev kept in
    (List.map (fun (i, v, _) -> (i, v)) kept, List.map (fun (_, _, c) -> c) kept, List.rev dups)
  in
  let card_f = float_of_int info.card in
  let probe_sel = List.fold_left (fun acc (i, _) -> acc *. eq_sel info i) 1.0 probes in
  let residual_sel =
    List.fold_left
      (fun acc ((cmp, a, b) : Sql.cond) ->
        match cmp, a, b with
        | R.Row_pred.Eq, _, _ -> acc *. 0.1
        | _, Sql.Const _, Sql.Const _ -> acc
        | _ -> acc *. Catalog.range_selectivity)
      1.0 residual_conds
    *. List.fold_left (fun acc (i, _) -> acc *. eq_sel info i) 1.0 dup_probes
  in
  (* each semi-join IN-set's distinct members, taken once: repeated or
     [Int]/[Float]-equal members must not inflate the estimates below, and
     the IN probe walks each distinct value once *)
  let semi_members =
    List.map (fun (col, values) -> (col, values, R.Row_pred.distinct_members values)) semi
  in
  let in_sel col members =
    Float.min 1.0 (float_of_int (List.length members) /. float_of_int (distinct_at info col))
  in
  let semi_sel =
    List.fold_left
      (fun acc (col, _, members) ->
        if distinct_at info col > 0 then acc *. in_sel col members else acc)
      1.0 semi_members
  in
  let out_est = round_est (card_f *. probe_sel *. residual_sel *. semi_sel) in
  (* candidate paths, each with estimated tuples touched; the scan cost is
     [server_scan_ms * touched], so the cheapest path touches the least *)
  let seq = (Seq_scan, info.card, residual_conds, semi, 2) in
  let candidates = ref [ seq ] in
  (match probes with
   | [] -> ()
   | _ ->
     let cols = List.map fst probes and key = List.map snd probes in
     let touched = round_est (card_f *. probe_sel) in
     candidates := (Index_probe { cols; key }, touched, residual_conds, semi, 0) :: !candidates);
  (match needed with
   | Some cols when cols <> [] && info.card > 0 ->
     let keys =
       round_est
         (Float.min card_f
            (List.fold_left
               (fun acc c -> acc *. float_of_int (max 1 (distinct_at info c)))
               1.0 cols))
     in
     candidates := (Index_only { cols }, keys, residual_conds, semi, 1) :: !candidates
   | Some _ | None -> ());
  if probes = [] then begin
    (* bitmap candidates: a semi-join IN-set, or one non-equality constant
       predicate, over a low-cardinality column *)
    (match
       List.find_opt
         (fun (col, _, _) ->
           let d = distinct_at info col in
           d > 0 && d <= bitmap_max_distinct)
         semi_members
     with
     | Some (col, values, members) ->
       let touched = round_est (card_f *. in_sel col members) in
       let semi' = List.filter (fun (c, _) -> c <> col) semi in
       candidates := (Bitmap_in { col; values }, touched, residual_conds, semi', 3) :: !candidates
     | None ->
       (match
          List.find_opt
            (fun ((cmp, a, b) : Sql.cond) ->
              cmp <> R.Row_pred.Eq
              &&
              match a, b with
              | Sql.Col col, Sql.Const _ | Sql.Const _, Sql.Col col ->
                (match R.Schema.position_opt schema (col_name col) with
                 | Some i ->
                   let d = distinct_at info i in
                   d > 0 && d <= bitmap_max_distinct
                 | None -> false)
              | _ -> false)
            residual_conds
        with
        | Some ((cmp, a, b) as c) ->
          let col, cmp, value =
            match a, b with
            | Sql.Col col, Sql.Const v ->
              (Option.get (R.Schema.position_opt schema (col_name col)), cmp, v)
            | Sql.Const v, Sql.Col col ->
              (* flip the comparison so the column is on the left *)
              ( Option.get (R.Schema.position_opt schema (col_name col)),
                (match cmp with
                 | R.Row_pred.Lt -> R.Row_pred.Gt
                 | R.Row_pred.Le -> R.Row_pred.Ge
                 | R.Row_pred.Gt -> R.Row_pred.Lt
                 | R.Row_pred.Ge -> R.Row_pred.Le
                 | other -> other),
                v )
            | _ -> assert false (* excluded by the find_opt predicate above *)
          in
          let d = distinct_at info col in
          let sel =
            match cmp with
            | R.Row_pred.Ne -> float_of_int (max 0 (d - 1)) /. float_of_int (max 1 d)
            | _ -> Catalog.range_selectivity
          in
          let touched = round_est (card_f *. sel) in
          let rest = List.filter (fun c' -> c' != c) residual_conds in
          candidates := (Bitmap_cmp { col; cmp; value }, touched, rest, semi, 3) :: !candidates
        | None -> ()))
  end;
  (* an IN probe per semi-join column: a probe of the column's index per
     value, the other filters (equality probes included) as its residual;
     last in tie rank, so it wins only by touching fewer rows. Wide values
     are left to the residual: their buckets need not match [Value.compare]. *)
  List.iter
    (fun (col, values, members) ->
      if distinct_at info col > 0 && not (R.Row_pred.has_wide values) then
        let touched = round_est (card_f *. in_sel col members) in
        let semi' = List.filter (fun (c, _) -> c <> col) semi in
        candidates :=
          (In_probe { col; values = members }, touched, probe_conds @ residual_conds, semi', 4)
          :: !candidates)
    semi_members;
  let path, touched, residual, semi, _ =
    List.fold_left
      (fun (bp, bt, br, bs, brank) (p, t, r, s, rank) ->
        if t < bt || (t = bt && rank < brank) then (p, t, r, s, rank) else (bp, bt, br, bs, brank))
      (List.hd !candidates) (List.tl !candidates)
  in
  let scan_cost = cm.CM.server_scan_ms *. float_of_int touched in
  let order =
    match path with
    | Index_only { cols } -> cols
    | In_probe _ -> [] (* rows come out in probe order *)
    | Seq_scan | Index_probe _ | Bitmap_in _ | Bitmap_cmp _ ->
      List.init info.sorted_pref (fun i -> i)
  in
  let sp =
    { src = info.source; path; residual; dup_probes; semi; scan_est = out_est; base_card = info.card }
  in
  ignore catalog;
  {
    root = Scan sp;
    schema;
    origins = Array.init (R.Schema.arity schema) (fun c -> (info.idx, c));
    est = out_est;
    cost = scan_cost;
    order;
    mask = 1 lsl info.idx;
  }

(* --- join enumeration --- *)

let log2f n = Float.log (float_of_int (max 2 n)) /. Float.log 2.0

let rec is_prefix xs ys =
  match xs, ys with
  | [], _ -> true
  | x :: xs', y :: ys' -> x = y && is_prefix xs' ys'
  | _ :: _, [] -> false

(* distinct count of an output column, capped by the node's cardinality *)
let col_distinct infos (p : t) pos =
  let si, bc = p.origins.(pos) in
  let info = List.nth infos si in
  let d = distinct_at info bc in
  let d = if d <= 0 then max 1 (p.est / 10) else d in
  min (max 1 p.est) d

let joint_distinct infos (p : t) cols =
  let prod =
    List.fold_left (fun acc c -> acc *. float_of_int (col_distinct infos p c)) 1.0 cols
  in
  Float.min (float_of_int (max 1 p.est)) prod

(* Split the conditions first applicable at this join into equi pairs and a
   residual over the combined schema. *)
let classify_join_conds l r conds =
  List.partition_map
    (fun ((cmp, a, b) as c : Sql.cond) ->
      if cmp <> R.Row_pred.Eq then Either.Right c
      else
        match a, b with
        | Sql.Col ca, Sql.Col cb ->
          let la = R.Schema.position_opt l.schema (col_name ca)
          and lb = R.Schema.position_opt l.schema (col_name cb)
          and ra = R.Schema.position_opt r.schema (col_name ca)
          and rb = R.Schema.position_opt r.schema (col_name cb) in
          (match la, rb, lb, ra with
           | Some lp, Some rp, _, _ -> Either.Left (lp, rp)
           | _, _, Some lp, Some rp -> Either.Left (lp, rp)
           | _ -> Either.Right c)
        | _ -> Either.Right c)
    conds

let join_est infos l r pairs jresidual =
  if l.est = 0 || r.est = 0 then 0
  else
    let base =
      match pairs with
      | [] -> float_of_int l.est *. float_of_int r.est
      | _ ->
        let dl = joint_distinct infos l (List.map fst pairs)
        and dr = joint_distinct infos r (List.map snd pairs) in
        float_of_int l.est *. float_of_int r.est /. Float.max dl dr
    in
    let sel =
      List.fold_left
        (fun acc ((cmp, _, _) : Sql.cond) ->
          match cmp with R.Row_pred.Eq -> acc *. 0.1 | _ -> acc *. Catalog.range_selectivity)
        1.0 jresidual
    in
    max 1 (round_est (base *. sel))

(* Build the [t] for joining [l] and [r] with [strategy]; [None] when the
   strategy does not apply. *)
let make_join infos l r strategy pairs jresidual =
  let cm = CM.default in
  let pairs = List.sort (fun (a, _) (b, _) -> Int.compare a b) pairs in
  let jest = join_est infos l r pairs jresidual in
  let lf = float_of_int l.est and rf = float_of_int r.est and outf = float_of_int jest in
  let combined () = R.Schema.concat l.schema r.schema in
  let origins () = Array.append l.origins r.origins in
  let lcols = List.map fst pairs and rcols = List.map snd pairs in
  match strategy with
  | Product ->
    if pairs <> [] then None
    else
      let cost = l.cost +. r.cost +. (cm.CM.probe_tuple_ms *. lf *. rf) in
      Some
        {
          root =
            Join
              { strategy; left = l.root; right = r.root; pairs; jresidual; jest;
                sort_left = false; sort_right = false };
          schema = combined ();
          origins = origins ();
          est = jest;
          cost;
          order = [];
          mask = l.mask lor r.mask;
        }
  | Hash ->
    if pairs = [] then None
    else
      let cost =
        l.cost +. r.cost
        +. (cm.CM.hash_build_tuple_ms *. rf)
        +. (cm.CM.probe_tuple_ms *. (lf +. outf))
      in
      Some
        {
          root =
            Join
              { strategy; left = l.root; right = r.root; pairs; jresidual; jest;
                sort_left = false; sort_right = false };
          schema = combined ();
          origins = origins ();
          est = jest;
          cost;
          order = [];
          mask = l.mask lor r.mask;
        }
  | Merge ->
    if pairs = [] then None
    else
      let sort_left = not (is_prefix lcols l.order)
      and sort_right = not (is_prefix rcols r.order) in
      let sort_cost n = cm.CM.sort_tuple_ms *. float_of_int n *. log2f n in
      let cost =
        l.cost +. r.cost
        +. (if sort_left then sort_cost l.est else 0.0)
        +. (if sort_right then sort_cost r.est else 0.0)
        +. (cm.CM.probe_tuple_ms *. (lf +. rf +. outf))
      in
      Some
        {
          root =
            Join { strategy; left = l.root; right = r.root; pairs; jresidual; jest; sort_left; sort_right };
          schema = combined ();
          origins = origins ();
          est = jest;
          cost;
          order = lcols;
          mask = l.mask lor r.mask;
        }
  | Index_nl ->
    if pairs = [] then None
    else (
      match r.root with
      | Scan sp when (match sp.path with Index_only _ -> false | _ -> true) ->
        (* right base positions = qualified positions; probe an index on the
           right table's join columns per left tuple. The right side is
           never scanned, so its scan cost is not paid. *)
        let info_r = List.nth infos (fst r.origins.(0)) in
        let d =
          Float.max 1.0
            (List.fold_left
               (fun acc c -> acc *. float_of_int (max 1 (distinct_at info_r c)))
               1.0 rcols)
        in
        let matched = lf *. Float.max 1.0 (float_of_int sp.base_card /. d) in
        let cost =
          l.cost
          +. (cm.CM.inlj_probe_ms *. lf)
          +. (cm.CM.probe_tuple_ms *. matched)
        in
        Some
          {
            root =
              Join
                { strategy; left = l.root; right = r.root; pairs; jresidual; jest;
                  sort_left = false; sort_right = false };
            schema = combined ();
            origins = origins ();
            est = jest;
            cost;
            order = [];
            mask = l.mask lor r.mask;
          }
      | _ -> None)

let better a b =
  match b with
  | None -> true
  | Some b -> a.cost < b.cost -. 1e-12 || (Float.abs (a.cost -. b.cost) <= 1e-12 && a.est < b.est)

(* All conditions whose source set is covered by [mask] but by neither
   input alone — i.e. first applicable at this join. *)
let conds_at conds_with_srcs lmask rmask =
  let covered srcs m = List.for_all (fun s -> m land (1 lsl s) <> 0) srcs in
  List.filter_map
    (fun (c, srcs) ->
      if srcs <> [] && covered srcs (lmask lor rmask) && (not (covered srcs lmask))
         && not (covered srcs rmask)
      then Some c
      else None)
    conds_with_srcs

let strategies = [ Hash; Merge; Index_nl; Product ]

let enumerate infos conds_with_srcs scans =
  let n = List.length scans in
  if n = 1 then List.hd scans
  else if n <= 6 then begin
    (* Selinger-style DP over source subsets (bushy; both operand orders). *)
    let best : (int, t) Hashtbl.t = Hashtbl.create 64 in
    List.iter (fun s -> Hashtbl.replace best s.mask s) scans;
    let full = (1 lsl n) - 1 in
    for mask = 1 to full do
      let bits = List.filter (fun i -> mask land (1 lsl i) <> 0) (List.init n (fun i -> i)) in
      if List.length bits >= 2 then begin
        let winner = ref None in
        let consider ~allow_product sub =
          let lmask = sub and rmask = mask land lnot sub in
          match Hashtbl.find_opt best lmask, Hashtbl.find_opt best rmask with
          | Some l, Some r ->
            let conds = conds_at conds_with_srcs lmask rmask in
            let pairs, jresidual = classify_join_conds l r conds in
            if pairs <> [] || allow_product then
              List.iter
                (fun strat ->
                  match make_join infos l r strat pairs jresidual with
                  | Some cand when better cand !winner -> winner := Some cand
                  | Some _ | None -> ())
                strategies
          | _ -> ()
        in
        (* proper non-empty submasks, ascending for determinism *)
        let sub = ref ((mask - 1) land mask) in
        let subs = ref [] in
        while !sub <> 0 do
          subs := !sub :: !subs;
          sub := (!sub - 1) land mask
        done;
        let subs = List.sort Int.compare !subs in
        List.iter (consider ~allow_product:false) subs;
        if !winner = None then List.iter (consider ~allow_product:true) subs;
        match !winner with
        | Some w -> Hashtbl.replace best mask w
        | None -> ()
      end
    done;
    match Hashtbl.find_opt best full with
    | Some p -> p
    | None -> invalid_arg "Qplan: enumeration failed"
  end
  else begin
    (* greedy: cheapest scan first, then repeatedly absorb the source whose
       best join yields the lowest running cost *)
    let remaining = ref scans in
    let start =
      List.fold_left (fun b s -> if s.cost < b.cost then s else b) (List.hd scans) (List.tl scans)
    in
    remaining := List.filter (fun s -> s.mask <> start.mask) !remaining;
    let acc = ref start in
    while !remaining <> [] do
      let winner = ref None and winner_src = ref None in
      List.iter
        (fun s ->
          let conds = conds_at conds_with_srcs !acc.mask s.mask in
          let pairs, jresidual = classify_join_conds !acc s conds in
          List.iter
            (fun strat ->
              match make_join infos !acc s strat pairs jresidual with
              | Some cand when better cand !winner ->
                winner := Some cand;
                winner_src := Some s.mask
              | Some _ | None -> ())
            strategies)
        !remaining;
      match !winner, !winner_src with
      | Some w, Some m ->
        acc := w;
        remaining := List.filter (fun s -> s.mask <> m) !remaining
      | _ ->
        (* no connected join: product with the cheapest remaining source *)
        let s =
          List.fold_left
            (fun b s -> if s.cost < b.cost then s else b)
            (List.hd !remaining) (List.tl !remaining)
        in
        (match make_join infos !acc s Product [] [] with
         | Some w ->
           acc := w;
           remaining := List.filter (fun r -> r.mask <> s.mask) !remaining
         | None -> invalid_arg "Qplan: greedy enumeration failed")
    done;
    !acc
  end

(* --- entry points --- *)

let split_conds infos (q : Sql.select) =
  let with_srcs = List.map (fun c -> (c, cond_sources infos c)) q.Sql.where in
  let local_for i =
    List.filter_map
      (fun (c, srcs) ->
        match srcs with
        | [ s ] when s = i -> Some c
        | [] when i = 0 -> Some c (* constant-only conditions: evaluate once, at the first scan *)
        | _ -> None)
      with_srcs
  in
  (with_srcs, local_for)

let semi_for infos (q : Sql.select) i =
  let info = List.nth infos i in
  List.filter_map
    (fun ((col : Sql.col), values) ->
      match R.Schema.position_opt info.qschema (col_name col) with
      | Some p -> Some (p, values)
      | None -> None)
    q.Sql.semijoins

(* Columns of the (single) source the whole query needs — the covering set
   for an index-only scan — or [None] when that is not computable. *)
let needed_cols info (q : Sql.select) local_conds semi =
  if List.length q.Sql.from <> 1 || q.Sql.columns = [] then None
  else
    let add acc p = if List.mem p acc then acc else p :: acc in
    let scalar_cols acc = function
      | Sql.Const _ -> Some acc
      | Sql.Col c ->
        (match R.Schema.position_opt info.qschema (col_name c) with
         | Some p -> Some (add acc p)
         | None -> None)
    in
    let rec collect acc = function
      | [] -> Some acc
      | s :: rest -> (match scalar_cols acc s with Some acc -> collect acc rest | None -> None)
    in
    match collect [] q.Sql.columns with
    | None -> None
    | Some acc ->
      let rec conds acc = function
        | [] -> Some acc
        | (_, a, b) :: rest ->
          (match scalar_cols acc a with
           | None -> None
           | Some acc ->
             (match scalar_cols acc b with Some acc -> conds acc rest | None -> None))
      in
      (match conds acc local_conds with
       | None -> None
       | Some acc ->
         let acc = List.fold_left (fun acc (p, _) -> add acc p) acc semi in
         Some (List.sort Int.compare acc))

let plan catalog ~lookup (q : Sql.select) =
  if q.Sql.from = [] then invalid_arg "Engine.execute: empty FROM";
  let infos = src_infos ~lookup q catalog in
  let conds_with_srcs, local_for = split_conds infos q in
  let scans =
    List.map
      (fun info ->
        let local_conds = local_for info.idx in
        let semi = semi_for infos q info.idx in
        let needed = needed_cols info q local_conds semi in
        plan_scan catalog info ~local_conds ~semi ~needed)
      infos
  in
  enumerate infos conds_with_srcs scans

(* The pre-enumerator pipeline, for baselines: FROM-order left-deep fold,
   hash join when an equi condition exists, product otherwise, index probes
   for [col = const] only. *)
let plan_naive catalog ~lookup (q : Sql.select) =
  if q.Sql.from = [] then invalid_arg "Engine.execute: empty FROM";
  let infos = src_infos ~lookup q catalog in
  let conds_with_srcs, local_for = split_conds infos q in
  let scans =
    List.map
      (fun info ->
        plan_scan catalog info ~local_conds:(local_for info.idx)
          ~semi:(semi_for infos q info.idx) ~needed:None)
      infos
  in
  match scans with
  | [] -> assert false
  | first :: rest ->
    List.fold_left
      (fun acc s ->
        let conds = conds_at conds_with_srcs acc.mask s.mask in
        let pairs, jresidual = classify_join_conds acc s conds in
        let strat = if pairs = [] then Product else Hash in
        match make_join infos acc s strat pairs jresidual with
        | Some j -> j
        | None -> invalid_arg "Qplan: naive plan failed")
      first rest

(* --- execution --- *)

(* A semi-join filter as one hashed membership test, built once per node
   execution and probed for every row or key the node visits. *)
let semi_pred (col, values) = R.Row_pred.one_of (Col col) values

let dup_pred (col, v) = R.Row_pred.Cmp (R.Row_pred.Eq, Col col, Lit v)

(* Residual predicate for a scan, built against [schema] (the qualified
   source schema, or the projected schema of an index-only scan). *)
let scan_residual schema sp =
  let conds = List.filter_map (cond_pred schema) sp.residual in
  let dups = List.map dup_pred sp.dup_probes in
  let semis = List.map semi_pred sp.semi in
  R.Row_pred.conj (conds @ dups @ semis)

(* Remap a base-position predicate into key space for an index-only scan. *)
let keyspace_residual qschema cols sp =
  let out_schema = R.Schema.project qschema cols in
  let reindex p =
    let rec find i = function
      | [] -> invalid_arg "Qplan: index-only residual column not covered"
      | c :: _ when c = p -> i
      | _ :: rest -> find (i + 1) rest
    in
    find 0 cols
  in
  let conds = List.filter_map (cond_pred out_schema) sp.residual in
  let dups = List.map (fun (c, v) -> dup_pred (reindex c, v)) sp.dup_probes in
  let semis = List.map (fun (c, vs) -> semi_pred (reindex c, vs)) sp.semi in
  (out_schema, R.Row_pred.conj (conds @ dups @ semis))

type exec_ctx = {
  catalog : Catalog.t;
  lookup : string -> R.Relation.t;
  counters : counters;
  scanned : int ref;
  distinct_wanted : bool;
}

let label_of_scan sp =
  let a = sp.src.Sql.alias and t = sp.src.Sql.table in
  let name = if String.equal a t then t else t ^ " " ^ a in
  let path =
    match sp.path with
    | Seq_scan -> "seq"
    | Index_probe { cols; _ } ->
      Printf.sprintf "index probe [%s]" (String.concat "," (List.map string_of_int cols))
    | Index_only { cols } ->
      Printf.sprintf "index-only [%s]" (String.concat "," (List.map string_of_int cols))
    | Bitmap_in { col; values } -> Printf.sprintf "bitmap col %d in %d values" col (List.length values)
    | Bitmap_cmp { col; _ } -> Printf.sprintf "bitmap col %d" col
    | In_probe { col; values } -> Printf.sprintf "index in col %d, %d values" col (List.length values)
  in
  let semi = if sp.semi = [] then "" else Printf.sprintf " semi:%d" (List.length sp.semi) in
  Printf.sprintf "scan %s [%s]%s" name path semi

let strategy_label = function
  | Hash -> "hash join"
  | Merge -> "merge join"
  | Index_nl -> "index-nl join"
  | Product -> "product"

let rec exec_node ctx node : R.Relation.t * explain =
  match node with
  | Scan sp ->
    ctx.counters.semijoin_filters <- ctx.counters.semijoin_filters + List.length sp.semi;
    let base = ctx.lookup sp.src.Sql.table in
    let rel = R.Relation.qualify sp.src.Sql.alias base in
    let schema = R.Relation.schema rel in
    let out =
      match sp.path with
      | Seq_scan ->
        ctx.counters.seq_scans <- ctx.counters.seq_scans + 1;
        Obs.Metrics.incr "plan.seq_scan";
        ctx.scanned := !(ctx.scanned) + R.Relation.cardinality rel;
        let pred = scan_residual schema sp in
        if pred = R.Row_pred.True then rel else R.Ops.select pred rel
      | Index_probe { cols; key } ->
        ctx.counters.index_probes <- ctx.counters.index_probes + 1;
        Obs.Metrics.incr "plan.index_probe";
        let ix = Catalog.ensure_index ctx.catalog sp.src.Sql.table base cols in
        let out, matched =
          R.Ops.select_indexed_count ix key ~residual:(scan_residual schema sp) rel
        in
        ctx.scanned := !(ctx.scanned) + matched;
        out
      | Index_only { cols } ->
        ctx.counters.index_only_scans <- ctx.counters.index_only_scans + 1;
        Obs.Metrics.incr "plan.index_only_scan";
        let ix = Catalog.ensure_index ctx.catalog sp.src.Sql.table base cols in
        let out_schema, residual = keyspace_residual schema cols sp in
        let out, touched =
          R.Ops.index_only_scan ix out_schema ~residual ~distinct:ctx.distinct_wanted ()
        in
        ctx.scanned := !(ctx.scanned) + touched;
        out
      | Bitmap_in { col; values } ->
        ctx.counters.bitmap_scans <- ctx.counters.bitmap_scans + 1;
        Obs.Metrics.incr "plan.bitmap_scan";
        let bm = Catalog.ensure_bitmap ctx.catalog sp.src.Sql.table base col in
        let sv = R.Bitmap.matching_any bm values in
        ctx.scanned := !(ctx.scanned) + Array.length sv;
        let picked = R.Ops.materialize_sv ~name:(R.Relation.name rel) rel sv in
        let pred = scan_residual schema sp in
        if pred = R.Row_pred.True then picked else R.Ops.select pred picked
      | Bitmap_cmp { col; cmp; value } ->
        ctx.counters.bitmap_scans <- ctx.counters.bitmap_scans + 1;
        Obs.Metrics.incr "plan.bitmap_scan";
        let bm = Catalog.ensure_bitmap ctx.catalog sp.src.Sql.table base col in
        let sv = R.Bitmap.matching bm cmp value in
        ctx.scanned := !(ctx.scanned) + Array.length sv;
        let picked = R.Ops.materialize_sv ~name:(R.Relation.name rel) rel sv in
        let pred = scan_residual schema sp in
        if pred = R.Row_pred.True then picked else R.Ops.select pred picked
      | In_probe { col; values } ->
        ctx.counters.index_probes <- ctx.counters.index_probes + 1;
        Obs.Metrics.incr "plan.index_probe";
        let ix = Catalog.ensure_index ctx.catalog sp.src.Sql.table base [ col ] in
        let out, matched =
          R.Ops.select_indexed_in_count ix values ~residual:(scan_residual schema sp) rel
        in
        ctx.scanned := !(ctx.scanned) + matched;
        out
    in
    ( out,
      { label = label_of_scan sp; est_rows = sp.scan_est; actual_rows = R.Relation.cardinality out;
        children = [] } )
  | Join jp ->
    let l, le = exec_node ctx jp.left in
    let lcols = List.map fst jp.pairs and rcols = List.map snd jp.pairs in
    (match jp.strategy with
     | Index_nl ->
       let sp = match jp.right with Scan sp -> sp | Join _ -> assert false in
       ctx.counters.inlj_joins <- ctx.counters.inlj_joins + 1;
       ctx.counters.semijoin_filters <- ctx.counters.semijoin_filters + List.length sp.semi;
       Obs.Metrics.incr "plan.index_nl_join";
       let base = ctx.lookup sp.src.Sql.table in
       let rel_r = R.Relation.qualify sp.src.Sql.alias base in
       let rcols_base = rcols in
       let ix = Catalog.ensure_index ctx.catalog sp.src.Sql.table base rcols_base in
       let combined = R.Schema.concat (R.Relation.schema l) (R.Relation.schema rel_r) in
       let arity_l = R.Schema.arity (R.Relation.schema l) in
       (* the right side's own local conditions run as a residual over the
          concatenated tuple: shift their base positions past the left.
          Conditions planning folded into the scan's access path would be
          lost here — the probe replaces that path — so fold them back in. *)
       let path_preds =
         match sp.path with
         | Seq_scan | Index_only _ -> []
         | Index_probe { cols; key } ->
           List.map2
             (fun c v -> R.Row_pred.Cmp (R.Row_pred.Eq, Col c, Lit v))
             cols key
         | Bitmap_in { col; values } | In_probe { col; values } -> [ semi_pred (col, values) ]
         | Bitmap_cmp { col; cmp; value } ->
           [ R.Row_pred.Cmp (cmp, Col col, Lit value) ]
       in
       let right_preds =
         path_preds
         @ List.filter_map (cond_pred (R.Relation.schema rel_r)) sp.residual
         @ List.map dup_pred sp.dup_probes
         @ List.map semi_pred sp.semi
         |> List.map (R.Row_pred.shift arity_l)
       in
       let join_preds = List.filter_map (cond_pred combined) jp.jresidual in
       let residual = R.Row_pred.conj (right_preds @ join_preds) in
       let out, probed = R.Ops.index_nl_join_count ~left_cols:lcols ix ~residual l rel_r in
       ctx.scanned := !(ctx.scanned) + R.Relation.cardinality l + probed;
       let re =
         { label =
             Printf.sprintf "probe %s [index %s]"
               (let a = sp.src.Sql.alias and t = sp.src.Sql.table in
                if String.equal a t then t else t ^ " " ^ a)
               (String.concat "," (List.map string_of_int rcols_base));
           est_rows = sp.scan_est; actual_rows = probed; children = [] }
       in
       ( out,
         { label = strategy_label jp.strategy; est_rows = jp.jest;
           actual_rows = R.Relation.cardinality out; children = [ le; re ] } )
     | Hash | Merge | Product ->
       let r, re = exec_node ctx jp.right in
       let combined = R.Schema.concat (R.Relation.schema l) (R.Relation.schema r) in
       let residual = R.Row_pred.conj (List.filter_map (cond_pred combined) jp.jresidual) in
       ctx.scanned := !(ctx.scanned) + R.Relation.cardinality l + R.Relation.cardinality r;
       let out =
         match jp.strategy with
         | Hash ->
           ctx.counters.hash_joins <- ctx.counters.hash_joins + 1;
           Obs.Metrics.incr "plan.hash_join";
           R.Ops.hash_join ~left_cols:lcols ~right_cols:rcols ~residual l r
         | Merge ->
           ctx.counters.merge_joins <- ctx.counters.merge_joins + 1;
           Obs.Metrics.incr "plan.merge_join";
           let l = if jp.sort_left then R.Ops.order_by lcols l else l in
           let r = if jp.sort_right then R.Ops.order_by rcols r else r in
           R.Ops.merge_join ~left_cols:lcols ~right_cols:rcols ~residual l r
         | Product ->
           ctx.counters.products <- ctx.counters.products + 1;
           Obs.Metrics.incr "plan.product";
           if residual = R.Row_pred.True then R.Ops.product l r else R.Ops.nested_join residual l r
         | Index_nl -> assert false
       in
       ( out,
         { label = strategy_label jp.strategy; est_rows = jp.jest;
           actual_rows = R.Relation.cardinality out; children = [ le; re ] } ))

let run catalog ~lookup ?(counters = fresh_counters ()) (p : t) (q : Sql.select) =
  let ctx =
    { catalog; lookup; counters; scanned = ref 0; distinct_wanted = q.Sql.distinct }
  in
  let acc, root_explain = exec_node ctx p.root in
  let result =
    match q.Sql.columns with
    | [] -> acc
    | cols ->
      let schema = R.Relation.schema acc in
      let positions =
        List.map
          (fun s ->
            match s with
            | Sql.Col c ->
              (match R.Schema.position_opt schema (col_name c) with
               | Some i -> i
               | None -> invalid_arg ("Engine.execute: unknown column " ^ col_name c))
            | Sql.Const _ -> invalid_arg "Engine.execute: constant in SELECT list")
          cols
      in
      R.Ops.project positions acc
  in
  let result = if q.Sql.distinct then R.Relation.distinct result else result in
  let explain =
    if q.Sql.columns = [] && not q.Sql.distinct then root_explain
    else
      { label = (if q.Sql.distinct then "project distinct" else "project");
        est_rows = p.est; actual_rows = R.Relation.cardinality result;
        children = [ root_explain ] }
  in
  (result, !(ctx.scanned), explain)

(* --- rendering --- *)

let explain_to_string e =
  let buf = Buffer.create 256 in
  let rec go indent e =
    Buffer.add_string buf
      (Printf.sprintf "%s%s  (est=%d actual=%s)\n" indent e.label e.est_rows
         (if e.actual_rows < 0 then "?" else string_of_int e.actual_rows));
    List.iter (go (indent ^ "  ")) e.children
  in
  go "" e;
  Buffer.contents buf

let rec signature node =
  match node with
  | Scan sp ->
    let p =
      match sp.path with
      | Seq_scan -> ""
      | Index_probe _ -> "+probe"
      | Index_only _ -> "+cover"
      | Bitmap_in _ | Bitmap_cmp _ -> "+bitmap"
      | In_probe _ -> "+probe-in"
    in
    Printf.sprintf "%s%s" sp.src.Sql.alias p
  | Join jp ->
    let s =
      match jp.strategy with Hash -> "hash" | Merge -> "merge" | Index_nl -> "inlj" | Product -> "prod"
    in
    Printf.sprintf "%s(%s,%s)" s (signature jp.left) (signature jp.right)

let plan_signature p = signature p.root
