(* Property-based tests (qcheck) on the core data structures and
   invariants: unification, ranges, relational algebra laws, streams,
   lazy-vs-eager evaluation, subsumption soundness, path tracking. *)

module L = Braid_logic
module T = L.Term
module R = Braid_relalg
module V = R.Value
module RP = R.Row_pred
module A = Braid_caql.Ast
module TS = Braid_stream.Tuple_stream
module Sub = Braid_subsume.Subsumption
module Range = Braid_subsume.Range
module Adv = Braid_advice.Ast
module Tracker = Braid_advice.Tracker

let ( >|= ) = QCheck.Gen.( >|= )
let ( >>= ) = QCheck.Gen.( >>= )

(* --- generators --- *)

let gen_value : V.t QCheck.Gen.t =
  QCheck.Gen.oneof
    [
      (QCheck.Gen.int_range (-20) 20 >|= fun n -> V.Int n);
      (QCheck.Gen.oneofl [ "a"; "b"; "c"; "d" ] >|= fun s -> V.Str s);
    ]

let gen_var = QCheck.Gen.oneofl [ "X"; "Y"; "Z"; "U"; "W" ]

let gen_term : T.t QCheck.Gen.t =
  QCheck.Gen.oneof
    [ (gen_var >|= fun x -> T.Var x); (gen_value >|= fun v -> T.Const v) ]

let gen_atom pred arity : L.Atom.t QCheck.Gen.t =
  QCheck.Gen.list_repeat arity gen_term >|= L.Atom.make pred

let arb_of gen print = QCheck.make ~print gen

(* --- unification properties --- *)

let prop_unify_is_unifier =
  QCheck.Test.make ~count:500 ~name:"unifier really unifies"
    (arb_of
       (QCheck.Gen.pair (gen_atom "p" 3) (gen_atom "p" 3))
       (fun (a, b) -> L.Atom.to_string a ^ " ~ " ^ L.Atom.to_string b))
    (fun (a, b) ->
      match L.Unify.atoms L.Subst.empty a b with
      | None -> QCheck.assume_fail ()
      | Some s -> L.Atom.equal (L.Subst.apply_atom s a) (L.Subst.apply_atom s b))

let prop_match_produces_instance =
  QCheck.Test.make ~count:500 ~name:"one-way match maps general onto specific"
    (arb_of
       (QCheck.Gen.pair (gen_atom "p" 3) (gen_atom "p" 3))
       (fun (a, b) -> L.Atom.to_string a ^ " >= " ^ L.Atom.to_string b))
    (fun (general, specific) ->
      (* match_atoms requires the two sides to be standardized apart *)
      let specific = L.Atom.rename (fun x -> x ^ "_s") specific in
      match L.Unify.match_atoms L.Subst.empty ~general ~specific with
      | None -> QCheck.assume_fail ()
      | Some s -> L.Atom.equal (L.Subst.apply_atom s general) specific)

let prop_variant_reflexive =
  QCheck.Test.make ~count:200 ~name:"variant is reflexive"
    (arb_of (gen_atom "p" 3) L.Atom.to_string)
    (fun a -> L.Unify.variant a a)

(* --- range properties --- *)

let gen_cmp_op = QCheck.Gen.oneofl [ RP.Eq; RP.Ne; RP.Lt; RP.Le; RP.Gt; RP.Ge ]

let gen_int_cmp : (RP.cmp * int) QCheck.Gen.t = QCheck.Gen.pair gen_cmp_op (QCheck.Gen.int_range (-10) 10)

let satisfies x (op, c) = RP.cmp_holds op (V.Int x) (V.Int c)

let prop_range_implication_sound =
  QCheck.Test.make ~count:1000 ~name:"range implication is sound"
    (arb_of
       (QCheck.Gen.pair (QCheck.Gen.list_size (QCheck.Gen.int_range 0 4) gen_int_cmp) gen_int_cmp)
       (fun _ -> "cmps"))
    (fun (constraints, (op, c)) ->
      let r =
        List.fold_left (fun r (o, k) -> Range.add r o (V.Int k)) Range.unconstrained constraints
      in
      if not (Range.implies r op (V.Int c)) then true
      else
        (* every integer satisfying all constraints must satisfy (op, c) *)
        List.for_all
          (fun x ->
            if List.for_all (satisfies x) constraints then satisfies x (op, c) else true)
          (List.init 41 (fun i -> i - 20)))

(* --- relational algebra laws --- *)

let schema2 = R.Schema.make [ ("x", V.Tint); ("y", V.Tint) ]

let gen_relation : R.Relation.t QCheck.Gen.t =
  QCheck.Gen.list_size (QCheck.Gen.int_range 0 20)
    (QCheck.Gen.pair (QCheck.Gen.int_range 0 5) (QCheck.Gen.int_range 0 5))
  >|= fun pairs ->
  R.Relation.of_tuples ~name:"r" schema2
    (List.map (fun (a, b) -> [| V.Int a; V.Int b |]) pairs)

let arb_rel = arb_of gen_relation (fun r -> Format.asprintf "%a" R.Relation.pp r)
let arb_rel2 = arb_of (QCheck.Gen.pair gen_relation gen_relation) (fun _ -> "rels")

let norm rel = List.sort compare (List.map R.Tuple.to_list (R.Relation.to_list rel))

let prop_distinct_idempotent =
  QCheck.Test.make ~count:300 ~name:"distinct is idempotent" arb_rel (fun r ->
      norm (R.Relation.distinct (R.Relation.distinct r)) = norm (R.Relation.distinct r))

let prop_union_commutes =
  QCheck.Test.make ~count:300 ~name:"set union commutes" arb_rel2 (fun (a, b) ->
      norm (R.Ops.union a b) = norm (R.Ops.union b a))

let prop_diff_disjoint =
  QCheck.Test.make ~count:300 ~name:"A - B is disjoint from B" arb_rel2 (fun (a, b) ->
      R.Relation.cardinality (R.Ops.inter (R.Ops.diff a b) b) = 0)

let prop_inter_subset =
  QCheck.Test.make ~count:300 ~name:"A ∩ B ⊆ A" arb_rel2 (fun (a, b) ->
      R.Relation.fold (fun ok t -> ok && R.Relation.mem a t) true (R.Ops.inter a b))

(* Reference quadratic set operations (the pre-hash-set implementations),
   used as oracles for the Tuple_tbl-backed [Ops.inter]/[Ops.diff]. *)
let ref_inter a b =
  let out = R.Relation.create ~name:(R.Relation.name a) (R.Relation.schema a) in
  R.Relation.iter
    (fun t -> if R.Relation.mem b t then R.Relation.add out t)
    (R.Relation.distinct a);
  out

let ref_diff a b =
  let out = R.Relation.create ~name:(R.Relation.name a) (R.Relation.schema a) in
  R.Relation.iter
    (fun t -> if not (R.Relation.mem b t) then R.Relation.add out t)
    (R.Relation.distinct a);
  out

let prop_inter_matches_reference =
  QCheck.Test.make ~count:300 ~name:"hash-set inter = quadratic reference" arb_rel2
    (fun (a, b) ->
      List.map R.Tuple.to_list (R.Relation.to_list (R.Ops.inter a b))
      = List.map R.Tuple.to_list (R.Relation.to_list (ref_inter a b)))

let prop_diff_matches_reference =
  QCheck.Test.make ~count:300 ~name:"hash-set diff = quadratic reference" arb_rel2
    (fun (a, b) ->
      List.map R.Tuple.to_list (R.Relation.to_list (R.Ops.diff a b))
      = List.map R.Tuple.to_list (R.Relation.to_list (ref_diff a b)))

let prop_indexed_select_equals_scan =
  (* indexed equality selection ≡ full-scan selection, on every key value
     the relation can contain (plus one it cannot) and for single- and
     two-column probes *)
  QCheck.Test.make ~count:300 ~name:"indexed selection = full-scan selection" arb_rel
    (fun r ->
      let ix0 = R.Index.build r [ 0 ] in
      let ix01 = R.Index.build r [ 0; 1 ] in
      List.for_all
        (fun k ->
          let single_ok =
            norm (R.Ops.select_indexed ix0 [ V.Int k ] r)
            = norm (R.Ops.select (RP.Cmp (RP.Eq, Col 0, Lit (V.Int k))) r)
          in
          let pair_ok =
            List.for_all
              (fun k2 ->
                norm (R.Ops.select_indexed ix01 [ V.Int k; V.Int k2 ] r)
                = norm
                    (R.Ops.select
                       (RP.And
                          [
                            RP.Cmp (RP.Eq, Col 0, Lit (V.Int k));
                            RP.Cmp (RP.Eq, Col 1, Lit (V.Int k2));
                          ])
                       r))
              [ 0; 3; 99 ]
          in
          single_ok && pair_ok)
        [ 0; 1; 2; 3; 4; 5; 99 ])

(* Values for IN-lists: every kind [Value.compare] relates across
   constructors ([2] = [2.0], [-0.0] = [0.0], [Null] = [Null]), plus ints and
   floats beyond 2^53, where [float_of_int] rounds and [Value.hash] parts
   values that compare equal. Small ranges make duplicates common. *)
let gen_in_value : V.t QCheck.Gen.t =
  let big = 1 lsl 53 in
  QCheck.Gen.oneof
    [
      (QCheck.Gen.int_range (-3) 3 >|= fun n -> V.Int n);
      (QCheck.Gen.int_range (-3) 3 >|= fun n -> V.Float (float_of_int n));
      (QCheck.Gen.int_range (-3) 3 >|= fun n -> V.Float (float_of_int n +. 0.5));
      QCheck.Gen.return (V.Float (-0.0));
      (QCheck.Gen.oneofl [ "a"; "b"; "2" ] >|= fun s -> V.Str s);
      (QCheck.Gen.bool >|= fun b -> V.Bool b);
      QCheck.Gen.return V.Null;
      QCheck.Gen.oneofl
        [ V.Int big; V.Int (big + 1); V.Float (float_of_int big); V.Int max_int; V.Float 1e19 ];
    ]

let prop_in_set_equals_or_of_eq =
  let print (vs, t, k) =
    Printf.sprintf "in [%s] tuple %s shift %d"
      (String.concat "; " (List.map V.to_string vs))
      (R.Tuple.to_list t |> List.map V.to_string |> String.concat ", ")
      k
  in
  QCheck.Test.make ~count:500 ~name:"IN-set membership = Or of Eq compares"
    (arb_of
       (QCheck.Gen.triple
          (QCheck.Gen.list_size (QCheck.Gen.int_range 0 12) gen_in_value)
          (QCheck.Gen.array_repeat 3 gen_in_value)
          (QCheck.Gen.int_range 0 3))
       print)
    (fun (vs, t, k) ->
      let padded = R.Tuple.concat (Array.make k V.Null) t in
      (match RP.one_of (Col 0) [] with RP.False -> true | _ -> false)
      && List.for_all
           (fun col ->
             let member = RP.one_of (Col col) vs in
             let explicit = RP.Or (List.map (fun v -> RP.Cmp (RP.Eq, Col col, Lit v)) vs) in
             RP.eval member t = RP.eval explicit t
             && RP.eval (RP.shift k member) padded = RP.eval (RP.shift k explicit) padded)
           [ 0; 1; 2 ])

let prop_schema_view_preserves_rows =
  QCheck.Test.make ~count:300 ~name:"qualify is a zero-copy row-preserving view" arb_rel
    (fun r ->
      let q = R.Relation.qualify "t" r in
      List.map R.Tuple.to_list (R.Relation.to_list q)
      = List.map R.Tuple.to_list (R.Relation.to_list r)
      && R.Schema.names (R.Relation.schema q)
         = List.map (fun n -> "t." ^ n) (R.Schema.names (R.Relation.schema r)))

let prop_hash_join_equals_nested =
  QCheck.Test.make ~count:300 ~name:"hash join = nested loop join" arb_rel2 (fun (a, b) ->
      let h = R.Ops.hash_join ~left_cols:[ 1 ] ~right_cols:[ 0 ] a b in
      let n = R.Ops.nested_join (RP.Cmp (RP.Eq, Col 1, Col 2)) a b in
      norm h = norm n)

let prop_select_conj_commutes =
  QCheck.Test.make ~count:300 ~name:"cascaded selections commute" arb_rel (fun r ->
      let p1 = RP.Cmp (RP.Ge, RP.Col 0, RP.Lit (V.Int 2)) in
      let p2 = RP.Cmp (RP.Le, RP.Col 1, RP.Lit (V.Int 4)) in
      norm (R.Ops.select p1 (R.Ops.select p2 r)) = norm (R.Ops.select p2 (R.Ops.select p1 r)))

let prop_index_complete =
  QCheck.Test.make ~count:300 ~name:"index lookup finds exactly the matching tuples" arb_rel
    (fun r ->
      let ix = R.Index.build r [ 0 ] in
      List.for_all
        (fun k ->
          let via_index = List.sort compare (List.map R.Tuple.to_list (R.Index.lookup ix [ V.Int k ])) in
          let via_scan =
            norm (R.Ops.select (RP.Cmp (RP.Eq, Col 0, Lit (V.Int k))) r)
          in
          via_index = via_scan)
        [ 0; 1; 2; 3; 4; 5; 99 ])

(* Incremental index maintenance: a random run of [add]/[remove] writes,
   mirrored on a relation with [Relation.remove_once], must leave the index
   identical to [Index.build] over that relation after every step. Lookups
   are compared by physical tuple identity, so removing the newest equal
   row instead of the oldest shows (equal rows differ by Int/Float
   representation), and the cursor must walk every bucket in [lookup]'s
   order. A drain removes every row of one key, oldest first, so keys
   empty and later adds refill them. [fold_sorted] runs at random points:
   writes before the first one run without a directory, later ones
   maintain it; once built it is compared after every step, key tuples
   structurally, and its sizes must sum to the relation's cardinality. The
   relation's first row's key is an int, a string or an integral float. *)
type ix_op = Ix_add of R.Tuple.t | Ix_remove of int * bool | Ix_drain of int | Ix_fold

let ix_schema = R.Schema.make [ ("a", V.Tint); ("b", V.Tint); ("c", V.Tint) ]

(* [ints] stays all-int; the mixed domain has integral floats equal to the
   ints, a non-integral float, strings and Null — all far below 2^53. *)
let gen_ix_case =
  let open QCheck.Gen in
  let int_val = int_range 0 3 >|= fun n -> V.Int n in
  let str_val = oneofl [ V.Str "a"; V.Str "b"; V.Str "c" ] in
  let float_val = int_range 0 3 >|= fun n -> V.Float (float_of_int n) in
  let mixed_val =
    frequency
      [
        (4, int_val);
        (3, oneofl [ V.Float 1.0; V.Float 2.0; V.Float 1.5 ]);
        (1, oneofl [ V.Str "a"; V.Str "b" ]);
        (1, return V.Null);
      ]
  in
  let payload = oneofl [ V.Int 0; V.Int 1; V.Float 1.0 ] in
  oneofl
    [
      ("ints", [ 0 ], int_val, int_val);
      ("int-first", [ 0 ], int_val, mixed_val);
      ("str-first", [ 0 ], str_val, mixed_val);
      ("float-first", [ 0 ], float_val, mixed_val);
      ("multi", [ 0; 1 ], mixed_val, mixed_val);
      ("multi-str", [ 1; 0 ], str_val, mixed_val);
    ]
  >>= fun (store, cols, first_val, key_val) ->
  let row k = map2 (fun b c -> [| k; b; c |]) mixed_val payload in
  let op =
    frequency
      [
        (5, key_val >>= row >|= fun t -> Ix_add t);
        (4, pair (int_range 0 1000) bool >|= fun (i, twist) -> Ix_remove (i, twist));
        (1, int_range 0 1000 >|= fun i -> Ix_drain i);
        (1, return Ix_fold);
      ]
  in
  triple (first_val >>= row) (list_size (int_range 0 12) (key_val >>= row))
    (list_size (int_range 1 40) op)
  >|= fun (r0, rows, ops) -> (store, cols, r0 :: rows, ops)

let print_ix_case (store, _, rows, ops) =
  let value = function V.Float f -> string_of_float f | v -> V.to_string v in
  let tuple t = R.Tuple.to_list t |> List.map value |> String.concat "," in
  let op = function
    | Ix_add t -> "+(" ^ tuple t ^ ")"
    | Ix_remove (i, twist) -> Printf.sprintf "-%d%s" i (if twist then "~" else "")
    | Ix_drain i -> Printf.sprintf "drain%d" i
    | Ix_fold -> "fold"
  in
  Printf.sprintf "%s [%s] %s" store
    (String.concat "; " (List.map tuple rows))
    (String.concat " " (List.map op ops))

(* The same row with Int and integral Float swapped: [Tuple.equal] to it. *)
let twist_row t =
  Array.map
    (function
      | V.Int n -> V.Float (float_of_int n)
      | V.Float f when Float.is_integer f -> V.Int (int_of_float f)
      | v -> v)
    t

let sorted_dir ix =
  List.rev
    (R.Index.fold_sorted ix ~init:[] ~f:(fun acc kt n -> (R.Tuple.to_list kt, n) :: acc))

(* A bucket as the cursor walks it from position [p]. *)
let rec cursor_walk ix p =
  if p < 0 then [] else R.Index.tuple_at ix p :: cursor_walk ix (R.Index.next ix p)

let cursor_bucket ix key =
  match key with
  | [ v ] -> cursor_walk ix (R.Index.first1 ix v)
  | _ -> cursor_walk ix (R.Index.first ix (Array.of_list key))

let same_rows a b = List.length a = List.length b && List.for_all2 ( == ) a b

let prop_index_incremental_equals_build =
  QCheck.Test.make ~count:400 ~name:"incremental index (add/remove) = fresh build"
    (arb_of gen_ix_case print_ix_case)
    (fun (_, cols, rows, ops) ->
      let r = R.Relation.of_tuples ~name:"r" ix_schema rows in
      let ix = R.Index.build r cols in
      let seen = ref rows and dir_built = ref false in
      let agrees () =
        let fresh = R.Index.build r cols in
        let same_bucket t =
          let k = R.Tuple.key t cols in
          let a = R.Index.lookup ix k in
          same_rows a (R.Index.lookup fresh k) && same_rows a (cursor_bucket ix k)
        in
        List.for_all same_bucket !seen
        && R.Index.bytes_estimate ix = R.Index.bytes_estimate fresh
        && ((not !dir_built)
           || sorted_dir ix = sorted_dir fresh
              && List.fold_left (fun n (_, k) -> n + k) 0 (sorted_dir ix)
                 = R.Relation.cardinality r)
      in
      let remove t =
        assert (R.Relation.remove_once r t);
        R.Index.remove ix t
      in
      List.for_all
        (fun op ->
          (match op with
           | Ix_add t ->
             R.Relation.add r t;
             R.Index.add ix t;
             seen := t :: !seen
           | Ix_remove (i, twist) ->
             let n = R.Relation.cardinality r in
             if n > 0 then begin
               let t = R.Relation.get r (i mod n) in
               remove (if twist then twist_row t else t)
             end
           | Ix_drain i ->
             let n = R.Relation.cardinality r in
             if n > 0 then
               List.iter remove (R.Index.lookup ix (R.Tuple.key (R.Relation.get r (i mod n)) cols))
           | Ix_fold ->
             ignore (sorted_dir ix);
             dir_built := true);
          agrees ())
        ops)

(* [Index.build] over a relation must give the index [add] builds row by
   row from the empty one: the same buckets (by physical tuple identity,
   through [lookup] and the cursor), the same sorted directory, the same
   entry count. The relation's first key is drawn from each kind in turn
   (int, string, integral float) and the rest mix all three. Probes
   include the other kind of each equal int/float key. *)
let gen_build_case =
  let open QCheck.Gen in
  let int_key = int_range 0 3 >|= fun n -> V.Int n in
  let str_key = oneofl [ V.Str "a"; V.Str "b"; V.Str "c" ] in
  let float_key = int_range 0 3 >|= fun n -> V.Float (float_of_int n) in
  let key = oneof [ int_key; str_key; float_key ] in
  let row k = map (fun p -> [| k; V.Int p |]) (int_range 0 9) in
  oneofl [ ("int", int_key); ("str", str_key); ("float", float_key) ]
  >>= fun (kind, first) ->
  first >>= fun k0 ->
  pair (row k0) (list_size (int_range 0 30) (key >>= row))
  >|= fun (r0, rest) -> (kind, r0 :: rest)

let print_build_case (kind, rows) =
  let value = function V.Float f -> string_of_float f | v -> V.to_string v in
  Printf.sprintf "%s-first [%s]" kind
    (String.concat "; "
       (List.map (fun t -> String.concat "," (List.map value (R.Tuple.to_list t))) rows))

let prop_index_build_equals_adds =
  let schema = R.Schema.make [ ("k", V.Tstr); ("p", V.Tint) ] in
  let probes =
    List.concat_map (fun n -> [ V.Int n; V.Float (float_of_int n) ]) [ 0; 1; 2; 3; 4 ]
    @ [ V.Str "a"; V.Str "b"; V.Str "c"; V.Str "z"; V.Float 1.5; V.Null ]
  in
  QCheck.Test.make ~count:400 ~name:"one-column Index.build = adds from empty"
    (arb_of gen_build_case print_build_case)
    (fun (_, rows) ->
      let built = R.Index.build (R.Relation.of_tuples schema rows) [ 0 ] in
      let added = R.Index.build (R.Relation.create schema) [ 0 ] in
      List.iter (R.Index.add added) rows;
      List.for_all
        (fun v ->
          same_rows (R.Index.lookup built [ v ]) (R.Index.lookup added [ v ])
          && same_rows (cursor_bucket built [ v ]) (cursor_bucket added [ v ]))
        probes
      && sorted_dir built = sorted_dir added
      && R.Index.bytes_estimate built = R.Index.bytes_estimate added)

(* The cursor is the join inner loop's probe: walking 1,000 one-column
   buckets allocates nothing, for int and for string keys. The cost of
   reading the counter itself is measured and taken off. *)
let test_cursor_allocates_nothing () =
  let minor_words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let probe ix keys () =
    let hits = ref 0 in
    for i = 0 to Array.length keys - 1 do
      let p = ref (R.Index.first1 ix keys.(i)) in
      while !p >= 0 do
        hits := !hits + R.Tuple.arity (R.Index.tuple_at ix !p);
        p := R.Index.next ix !p
      done
    done;
    ignore (Sys.opaque_identity !hits)
  in
  let idle = minor_words (fun () -> ()) in
  List.iter
    (fun (kind, key) ->
      let rows = List.init 1000 (fun i -> [| key (i mod 500); V.Int i |]) in
      let schema = R.Schema.make [ ("k", V.Tstr); ("p", V.Tint) ] in
      let ix = R.Index.build (R.Relation.of_tuples schema rows) [ 0 ] in
      let keys = Array.init 1000 (fun i -> key (i mod 700)) in
      ignore (probe ix keys ());
      Alcotest.(check (float 0.0))
        (kind ^ " probes allocate nothing") 0.0
        (minor_words (probe ix keys) -. idle))
    [ ("int", fun i -> V.Int i); ("string", fun i -> V.Str (string_of_int i)) ]

let prop_merge_join_equals_hash =
  QCheck.Test.make ~count:300 ~name:"merge join = hash join on sorted inputs" arb_rel2
    (fun (a, b) ->
      let a = R.Ops.order_by [ 1 ] a and b = R.Ops.order_by [ 0 ] b in
      let m = R.Ops.merge_join ~left_cols:[ 1 ] ~right_cols:[ 0 ] a b in
      let h = R.Ops.hash_join ~left_cols:[ 1 ] ~right_cols:[ 0 ] a b in
      norm m = norm h)

(* --- streams --- *)

let prop_stream_roundtrip =
  QCheck.Test.make ~count:300 ~name:"stream roundtrip preserves tuples" arb_rel (fun r ->
      norm (TS.to_relation (TS.of_relation r)) = norm r)

let prop_stream_take_prefix =
  QCheck.Test.make ~count:300 ~name:"take yields a prefix" arb_rel (fun r ->
      let l = List.map R.Tuple.to_list (R.Relation.to_list r) in
      let c = TS.cursor (TS.of_relation r) in
      let t = List.filter_map (fun _ -> Option.map R.Tuple.to_list (TS.next c)) [ 1; 2; 3 ] in
      let rec is_prefix p l =
        match p, l with
        | [], _ -> true
        | x :: p', y :: l' -> x = y && is_prefix p' l'
        | _ :: _, [] -> false
      in
      is_prefix t l && List.length t = min 3 (List.length l))

(* --- lazy vs eager CAQL evaluation --- *)

let gen_conj_query : A.conj QCheck.Gen.t =
  (* q(X, Z) :- r(X, Y) & r(Y, Z) [& optional comparison] with random
     constants substituted *)
  let base = A.conj [ T.Var "X"; T.Var "Z" ] [ L.Atom.make "r" [ T.Var "X"; T.Var "Y" ]; L.Atom.make "r" [ T.Var "Y"; T.Var "Z" ] ] in
  QCheck.Gen.int_range 0 6 >>= fun c ->
  QCheck.Gen.oneofl
    [
      base;
      A.apply_subst (L.Subst.bind "X" (T.Const (V.Int c)) L.Subst.empty) base;
      A.apply_subst (L.Subst.bind "Z" (T.Const (V.Int c)) L.Subst.empty) base;
      {
        base with
        A.cmps = [ (RP.Le, L.Literal.Term (T.Var "X"), L.Literal.Term (T.Const (V.Int c))) ];
      };
    ]

(* Conjunctions over two relations [r] and [s]: one to three atoms whose
   arguments are drawn from four variables and a few constants, so an atom
   may repeat a variable or share none with the atoms before it (a
   product); a head of bound variables and constants; and up to two
   comparisons, each ground, over bound variables, or arithmetic. *)
let gen_wide_conj : A.conj QCheck.Gen.t =
  let open QCheck.Gen in
  let const = int_range 0 5 >|= fun c -> T.Const (V.Int c) in
  let term = frequency [ (4, oneofl [ "X"; "Y"; "Z"; "W" ] >|= fun x -> T.Var x); (1, const) ] in
  let atom =
    pair (oneofl [ "r"; "s" ]) (pair term term) >|= fun (p, (a, b)) -> L.Atom.make p [ a; b ]
  in
  list_size (int_range 1 3) atom >>= fun atoms ->
  let vars = List.sort_uniq compare (List.concat_map L.Atom.vars atoms) in
  let bound =
    if vars = [] then const else frequency [ (3, oneofl vars >|= fun x -> T.Var x); (1, const) ]
  in
  let operand = bound >|= fun t -> L.Literal.Term t in
  let expr =
    frequency
      [
        (3, operand);
        ( 1,
          triple (int_range 0 2) operand operand >|= fun (k, a, b) ->
          match k with
          | 0 -> L.Literal.Add (a, b)
          | 1 -> L.Literal.Sub (a, b)
          | _ -> L.Literal.Mul (a, b) );
      ]
  in
  let cmp = triple (oneofl [ RP.Eq; RP.Ne; RP.Lt; RP.Le; RP.Gt; RP.Ge ]) expr expr in
  let lit = const >|= fun t -> L.Literal.Term t in
  let ground = triple (oneofl [ RP.Le; RP.Ne ]) lit lit in
  list_size (int_range 0 3) bound >>= fun head ->
  list_size (int_range 0 2) (frequency [ (4, cmp); (1, ground) ]) >|= fun cmps ->
  A.conj ~cmps head atoms

let gen_maybe_empty =
  QCheck.Gen.frequency
    [ (1, QCheck.Gen.return (R.Relation.create ~name:"r" schema2)); (4, gen_relation) ]

let prop_lazy_equals_eager =
  QCheck.Test.make ~count:500 ~name:"lazy conj evaluation = eager"
    (arb_of
       (QCheck.Gen.triple gen_maybe_empty gen_maybe_empty gen_wide_conj)
       (fun (r, s, q) ->
         Printf.sprintf "%s over |r| = %d, |s| = %d" (A.conj_to_string q)
           (R.Relation.cardinality r) (R.Relation.cardinality s)))
    (fun (r, s, q) ->
      let rel (a : L.Atom.t) = if a.L.Atom.pred = "r" then r else s in
      let schema_of _ = Some schema2 in
      let eager = Braid_caql.Eval.conj ~source:rel ~schema_of q in
      let lazy_ =
        Braid_caql.Eval.lazy_conj ~source:(fun a -> TS.of_relation (rel a)) ~schema_of q
      in
      norm eager = norm (TS.to_relation lazy_))

(* --- subsumption soundness --- *)

let prop_subsumption_sound =
  (* an element built as the generalization of a query must fully cover it,
     and the rewrite must evaluate to the same answers *)
  QCheck.Test.make ~count:300 ~name:"cover rewrite preserves answers"
    (arb_of (QCheck.Gen.pair gen_relation gen_conj_query) (fun (_, q) -> A.conj_to_string q))
    (fun (r, q) ->
      let general =
        A.conj
          [ T.Var "X"; T.Var "Y"; T.Var "Z" ]
          [ L.Atom.make "r" [ T.Var "X"; T.Var "Y" ]; L.Atom.make "r" [ T.Var "Y"; T.Var "Z" ] ]
      in
      let e = { Sub.id = "elem"; def = general } in
      match Sub.full_cover e q with
      | None -> QCheck.assume_fail ()
      | Some cover ->
        let source _ = r in
        let schema_of _ = Some schema2 in
        let stored = Braid_caql.Eval.conj ~source ~schema_of general in
        let direct = Braid_caql.Eval.conj ~source ~schema_of q in
        let rewritten = Sub.rewrite q [ (cover.Sub.covered, cover.Sub.replacement) ] in
        let source' (a : L.Atom.t) = if a.L.Atom.pred = "elem" then stored else r in
        let schema_of' n =
          if n = "elem" then Some (R.Relation.schema stored) else Some schema2
        in
        let via = Braid_caql.Eval.conj ~source:source' ~schema_of:schema_of' rewritten in
        List.sort_uniq compare (List.map R.Tuple.to_list (R.Relation.to_list via))
        = List.sort_uniq compare (List.map R.Tuple.to_list (R.Relation.to_list direct)))

let prop_instance_always_covered =
  (* completeness on instances: a query built by instantiating a view
     definition's head variables is always fully covered by that view *)
  QCheck.Test.make ~count:300 ~name:"instances are always covered"
    (arb_of
       (QCheck.Gen.pair (QCheck.Gen.int_range 0 6) (QCheck.Gen.int_range 0 6))
       (fun _ -> "consts"))
    (fun (a, b) ->
      let def =
        A.conj
          [ T.Var "X"; T.Var "Z" ]
          [ L.Atom.make "r" [ T.Var "X"; T.Var "Y" ]; L.Atom.make "r" [ T.Var "Y"; T.Var "Z" ] ]
      in
      let subst =
        L.Subst.empty
        |> L.Subst.bind "X" (T.Const (V.Int a))
        |> L.Subst.bind "Z" (T.Const (V.Int b))
      in
      let q = A.apply_subst subst def in
      Sub.full_cover { Sub.id = "e"; def } q <> None)

(* --- the cache probe against its reference implementations --- *)

(* 2 and 2.0 are equal values; the two floats near 1 print alike with
   [%g] but are not equal. *)
let gen_probe_value : V.t QCheck.Gen.t =
  QCheck.Gen.oneof
    [
      (QCheck.Gen.int_range 0 2 >|= fun n -> V.Int n);
      QCheck.Gen.oneofl
        [ V.Str "a"; V.Str "b"; V.Float 0.5; V.Float 2.5; V.Float 2.0; V.Float 1.0000001;
          V.Float 1.0000002 ];
    ]

let gen_probe_term vars : T.t QCheck.Gen.t =
  QCheck.Gen.frequency
    [ (3, QCheck.Gen.oneofl vars >|= fun x -> T.Var x); (1, gen_probe_value >|= fun c -> T.Const c) ]

let gen_probe_atom vars : L.Atom.t QCheck.Gen.t =
  QCheck.Gen.oneofl [ ("p", 2); ("q", 2); ("r", 3) ] >>= fun (pred, arity) ->
  QCheck.Gen.list_repeat arity (gen_probe_term vars) >|= L.Atom.make pred

let gen_probe_cmp vars : A.comparison QCheck.Gen.t =
  let var = QCheck.Gen.oneofl vars >|= fun x -> L.Literal.Term (T.Var x) in
  let const =
    QCheck.Gen.oneof
      [
        (QCheck.Gen.int_range 0 2 >|= fun n -> V.Int n);
        QCheck.Gen.oneofl [ V.Float 2.0; V.Float 1.0000001; V.Float 1.0000002 ];
      ]
    >|= fun v -> L.Literal.Term (T.Const v)
  in
  QCheck.Gen.triple gen_cmp_op var (QCheck.Gen.oneof [ var; const ])

(* A conjunct over [vars]: 1-3 atoms, a head of 0-3 of its atoms' terms
   (repeats allowed) and 0-2 comparisons on atom variables, so it is safe. *)
let gen_probe_conj vars : A.conj QCheck.Gen.t =
  QCheck.Gen.list_size (QCheck.Gen.int_range 1 3) (gen_probe_atom vars) >>= fun atoms ->
  let terms = List.concat_map (fun (a : L.Atom.t) -> a.L.Atom.args) atoms in
  let bound = List.concat_map L.Atom.vars atoms in
  QCheck.Gen.list_size (QCheck.Gen.int_range 0 3) (QCheck.Gen.oneofl terms) >>= fun head ->
  (if bound = [] then QCheck.Gen.return []
   else QCheck.Gen.list_size (QCheck.Gen.int_range 0 2) (gen_probe_cmp bound))
  >|= fun cmps -> A.conj ~cmps head atoms

(* Half the queries instantiate the element (some of its variables bound
   to constants or to the query's own variables U and V, which can merge
   two of them) and add atoms of their own, so covers are common; the
   rest are unrelated conjuncts. *)
let gen_probe_query def =
  QCheck.Gen.bool >>= fun related ->
  if not related then gen_probe_conj [ "U"; "V"; "W"; "X" ]
  else
    QCheck.Gen.list_repeat 3
      (QCheck.Gen.frequency [ (1, QCheck.Gen.return None); (2, gen_probe_term [ "U"; "V" ] >|= Option.some) ])
    >>= fun images ->
    QCheck.Gen.list_size (QCheck.Gen.int_range 0 2) (gen_probe_atom [ "U"; "V"; "W" ])
    >|= fun extra ->
    let subst =
      List.fold_left2
        (fun s x image -> match image with Some t -> L.Subst.bind x t s | None -> s)
        L.Subst.empty [ "X"; "Y"; "Z" ] images
    in
    let inst = A.apply_subst subst def in
    { inst with A.atoms = extra @ inst.A.atoms }

let gen_probe_pair : (A.conj * A.conj) QCheck.Gen.t =
  gen_probe_conj [ "X"; "Y"; "Z" ] >>= fun def ->
  gen_probe_query def >|= fun q -> (def, q)

let print_probe_pair (def, q) = A.conj_to_string def ^ "  vs  " ^ A.conj_to_string q

let prop_covers_equal_reference =
  QCheck.Test.make ~count:2000 ~name:"covers = pre-reject reference, same order"
    (arb_of gen_probe_pair print_probe_pair)
    (fun (def, q) ->
      let e = { Sub.id = "e"; def } in
      let expected = Probe_oracle.covers e q in
      (* the indexed path, over a cache holding the element *)
      let m = Braid_cache.Cache_model.create ~capacity_bytes:max_int in
      Braid_cache.Cache_model.add m
        (Braid_cache.Element.make ~id:"e" ~def ~now:0
           (R.Relation.create schema2));
      Sub.covers e q = expected
      && List.map snd (Braid_cache.Cache_model.covers m (Braid_subsume.Form.of_conj q)) = expected)

(* Comparisons with nested arithmetic and every kind of constant, strings
   that need escaping included. *)
let gen_key_conj : A.conj QCheck.Gen.t =
  let vars = [ "X"; "Y"; "Z"; "W" ] in
  let const =
    QCheck.Gen.oneofl
      [ V.Int (-3); V.Int 7; V.Float 0.1; V.Float 1e21; V.Float (-2.5); V.Str "a b";
        V.Str "say \"hi\""; V.Str "tab\tnew\nline"; V.Bool true; V.Null ]
  in
  let term =
    QCheck.Gen.frequency
      [ (3, QCheck.Gen.oneofl vars >|= fun x -> T.Var x); (1, const >|= fun c -> T.Const c) ]
  in
  let rec expr depth =
    if depth = 0 then term >|= fun t -> L.Literal.Term t
    else
      QCheck.Gen.frequency
        [
          (2, term >|= fun t -> L.Literal.Term t);
          ( 1,
            QCheck.Gen.triple (QCheck.Gen.int_range 0 3) (expr (depth - 1)) (expr (depth - 1))
            >|= fun (k, a, b) ->
            match k with
            | 0 -> L.Literal.Add (a, b)
            | 1 -> L.Literal.Sub (a, b)
            | 2 -> L.Literal.Mul (a, b)
            | _ -> L.Literal.Div (a, b) );
        ]
  in
  let atom =
    QCheck.Gen.oneofl [ ("b", 2); ("link", 3); ("e", 0) ] >>= fun (pred, arity) ->
    QCheck.Gen.list_repeat arity term >|= L.Atom.make pred
  in
  QCheck.Gen.list_size (QCheck.Gen.int_range 0 3) term >>= fun head ->
  QCheck.Gen.list_size (QCheck.Gen.int_range 0 3) atom >>= fun atoms ->
  QCheck.Gen.list_size (QCheck.Gen.int_range 0 3) (QCheck.Gen.triple gen_cmp_op (expr 2) (expr 2))
  >|= fun cmps -> A.conj ~cmps head atoms

let prop_variant_key_equals_reference =
  QCheck.Test.make ~count:1000 ~name:"variant_key = printed old canonical form"
    (arb_of gen_key_conj A.conj_to_string)
    (fun c ->
      String.equal (A.variant_key c) (Probe_oracle.variant_key c))

(* --- path expression tracking --- *)

let rec gen_path depth : Adv.path QCheck.Gen.t =
  let pattern = QCheck.Gen.oneofl [ "a"; "b"; "c"; "d" ] >|= fun id -> Adv.Pattern (id, []) in
  if depth = 0 then pattern
  else
    QCheck.Gen.frequency
      [
        (2, pattern);
        ( 2,
          QCheck.Gen.list_size (QCheck.Gen.int_range 1 3) (gen_path (depth - 1))
          >>= fun ps ->
          QCheck.Gen.oneofl [ { Adv.lo = 1; hi = Adv.Fin 1 }; { Adv.lo = 0; hi = Adv.Inf } ]
          >|= fun rep -> Adv.Seq (ps, rep) );
        ( 1,
          QCheck.Gen.list_size (QCheck.Gen.int_range 1 3) (gen_path (depth - 1))
          >|= fun ps -> Adv.Alt (ps, None) );
      ]

(* Sample one legal query sequence from a path expression. *)
let rec sample_path prng p =
  match p with
  | Adv.Pattern (id, _) -> [ id ]
  | Adv.Seq (ps, { Adv.lo; hi }) ->
    let reps =
      match hi with
      | Adv.Fin k -> max lo (min k (lo + Braid_workload.Prng.int prng 2))
      | Adv.Cardinality _ | Adv.Inf -> lo + Braid_workload.Prng.int prng 3
    in
    List.concat (List.init reps (fun _ -> List.concat_map (sample_path prng) ps))
  | Adv.Alt (ps, _) -> sample_path prng (Braid_workload.Prng.pick prng ps)

let prop_tracker_accepts_legal_sequences =
  QCheck.Test.make ~count:300 ~name:"tracker accepts every legal sequence"
    (arb_of
       (QCheck.Gen.pair (gen_path 2) (QCheck.Gen.int_range 0 10_000))
       (fun (p, _) -> Format.asprintf "%a" Adv.pp_path p))
    (fun (p, seed) ->
      let tr = Tracker.start (Tracker.compile p) in
      let prng = Braid_workload.Prng.create seed in
      List.for_all (Tracker.advance tr) (sample_path prng p))

(* Random walks, unexpected ids included (they make the tracker lost and
   permissive): after every step, for every id, the per-state label sets
   answer what a breadth-first walk of the automaton answers. *)
let prop_may_occur_later_equals_bfs =
  QCheck.Test.make ~count:300 ~name:"may_occur_later = BFS over the NFA"
    (arb_of
       (QCheck.Gen.pair (gen_path 2)
          (QCheck.Gen.list_size (QCheck.Gen.int_range 0 8) (QCheck.Gen.oneofl [ "a"; "b"; "c"; "d"; "e" ])))
       (fun (p, ids) -> Format.asprintf "%a after %s" Adv.pp_path p (String.concat "," ids)))
    (fun (p, ids) ->
      let nfa = Tracker.compile p in
      let tr = Tracker.start nfa in
      let agrees () =
        List.for_all
          (fun id -> Tracker.may_occur_later tr id = Probe_oracle.may_occur_later nfa tr id)
          [ "a"; "b"; "c"; "d"; "e" ]
      in
      agrees ()
      && List.for_all
           (fun id ->
             ignore (Tracker.advance tr id);
             agrees ())
           ids)

(* The DFA against the set-of-states simulation it replaced. Two trackers
   started on one [nfa] take turns, so each runs through DFA states and
   memos the other built; unexpected ids ("e", or any the path lacks) make
   a tracker lost. After every step both trackers must answer what their
   references answer. *)
module Ref = Probe_oracle.Ref_tracker

let agrees_with_reference ids tr (r : Ref.t) =
  Tracker.states tr = r.Ref.states
  && Tracker.next_possible tr = Ref.next_possible r
  && List.for_all (fun id -> Tracker.may_occur_later tr id = Ref.may_occur_later r id) ids
  && Tracker.lost tr = r.Ref.lost
  && Tracker.finished tr = Ref.finished r

let run_against_reference nfa ids steps =
  let trs = [| Tracker.start nfa; Tracker.start nfa |] in
  let refs = [| Ref.start nfa; Ref.start nfa |] in
  let agree () =
    agrees_with_reference ids trs.(0) refs.(0) && agrees_with_reference ids trs.(1) refs.(1)
  in
  agree ()
  && List.for_all
       (fun (k, id) -> Tracker.advance trs.(k) id = Ref.advance refs.(k) id && agree ())
       steps

let prop_tracker_dfa_equals_reference =
  let ids = [ "a"; "b"; "c"; "d"; "e" ] in
  QCheck.Test.make ~count:300 ~name:"tracker DFA = set-of-states reference"
    (arb_of
       (QCheck.Gen.pair (gen_path 2)
          (QCheck.Gen.list_size (QCheck.Gen.int_range 0 16)
             (QCheck.Gen.pair (QCheck.Gen.int_range 0 1) (QCheck.Gen.oneofl ids))))
       (fun (p, steps) ->
         Format.asprintf "%a after %s" Adv.pp_path p
           (String.concat ","
              (List.map (fun (k, id) -> Printf.sprintf "%d:%s" k id) steps))))
    (fun (p, steps) -> run_against_reference (Tracker.compile p) ids steps)

(* A path with more DFA states than one NFA interns: both trackers walk it
   to the end, past the cap, and on after an unexpected id. *)
let test_tracker_past_dfa_cap () =
  let ids = List.init (Tracker.max_dfa_states + 44) (Printf.sprintf "p%d") in
  let nfa =
    Tracker.compile
      (Adv.Seq (List.map (fun id -> Adv.Pattern (id, [])) ids, { Adv.lo = 1; hi = Adv.Fin 1 }))
  in
  let walk = ids @ [ "p0"; "zz"; "p5"; "p6"; "p300" ] in
  let steps = List.map (fun id -> (0, id)) walk @ List.map (fun id -> (1, id)) walk in
  Alcotest.(check bool) "both trackers agree with the reference" true
    (run_against_reference nfa [ "p0"; "p5"; "p299"; "zz" ] steps);
  Alcotest.(check int) "the DFA stops at its cap" Tracker.max_dfa_states (Tracker.dfa_states nfa)

(* --- incremental replacement pins --- *)

module CMgr = Braid_cache.Cache_manager
module CModel = Braid_cache.Cache_model
module Elem = Braid_cache.Element
module Qpo = Braid_planner.Qpo
module Advisor = Braid_advice.Advisor

(* Random adds and removes on a cache model: each predicate's candidates
   are the live elements that mention it, in the order they were added. *)
let prop_candidates_keep_insertion_order =
  let preds = [ "p"; "q"; "r" ] in
  let gen_op =
    QCheck.Gen.frequency
      [
        (3, QCheck.Gen.list_size (QCheck.Gen.int_range 1 2) (QCheck.Gen.oneofl preds) >|= fun ps -> `Add ps);
        (2, QCheck.Gen.int_range 0 20 >|= fun i -> `Remove i);
      ]
  in
  let print_op = function
    | `Add ps -> "add " ^ String.concat "&" ps
    | `Remove i -> "remove e" ^ string_of_int i
  in
  QCheck.Test.make ~count:300 ~name:"candidates_for_pred keeps insertion order"
    (arb_of (QCheck.Gen.list_size (QCheck.Gen.int_range 0 30) gen_op) (fun ops ->
         String.concat "; " (List.map print_op ops)))
    (fun ops ->
      let m = CModel.create ~capacity_bytes:max_int in
      let live = ref [] (* (id, preds), oldest first *) and next = ref 0 in
      List.iter
        (function
          | `Add ps ->
            let id = "e" ^ string_of_int !next in
            incr next;
            let def =
              A.conj [ T.Var "X" ]
                (List.map (fun p -> L.Atom.make p [ T.Var "X"; T.Var "Y" ]) ps)
            in
            CModel.add m (Elem.make ~id ~def ~now:(CModel.tick m) (R.Relation.create schema2));
            live := !live @ [ (id, ps) ]
          | `Remove i ->
            let id = "e" ^ string_of_int i in
            CModel.remove m id;
            live := List.filter (fun (x, _) -> not (String.equal x id)) !live)
        ops;
      List.for_all
        (fun p ->
          List.map (fun (e : Elem.t) -> e.Elem.id) (CModel.candidates_for_pred m p)
          = List.filter_map (fun (id, ps) -> if List.mem p ps then Some id else None) !live)
        preds)

(* Hash indexes, the cache's form index among them, find a value by its
   hash, so values [Value.equal] equates must hash alike: 2 and 2.0, and
   ints past 2^53 and the floats they round to. *)
let prop_equal_values_hash_alike =
  let gen =
    let open QCheck.Gen in
    let big = 1 lsl 53 in
    oneof
      [
        (int_range (-3) 3 >|= fun k -> V.Int (big + k));
        (int_range (-3) 3 >|= fun k -> V.Int (-big + k));
        (int_range (-3) 3 >|= fun k -> V.Float (float_of_int (big + k)));
        (int_range (-2) 2 >|= fun k -> V.Int k);
        (int_range (-2) 2 >|= fun k -> V.Float (float_of_int k));
        oneofl [ V.Float 0.5; V.Float 1e18; V.Int 1_000_000_000_000_000_000; V.Float (-0.0) ];
      ]
  in
  QCheck.Test.make ~count:1000 ~name:"equal values hash alike"
    (arb_of (QCheck.Gen.pair gen gen) (fun (a, b) -> V.to_string a ^ " " ^ V.to_string b))
    (fun (a, b) -> (not (V.equal a b)) || V.hash a = V.hash b)

(* --- the form index against the reference, over a live cache --- *)

module Form = Braid_subsume.Form

(* The conjunct with its constants replaced by [values], in the order
   [Ast.constants] lists them: another query of the same form. *)
let reconst (c : A.conj) values =
  let rest = ref values in
  let next = function
    | T.Const _ as t ->
      (match !rest with
       | v :: vs ->
         rest := vs;
         T.Const v
       | [] -> t)
    | T.Var _ as t -> t
  in
  let rec expr = function
    | L.Literal.Term t -> L.Literal.Term (next t)
    | L.Literal.Add (a, b) -> bin (fun a b -> L.Literal.Add (a, b)) a b
    | L.Literal.Sub (a, b) -> bin (fun a b -> L.Literal.Sub (a, b)) a b
    | L.Literal.Mul (a, b) -> bin (fun a b -> L.Literal.Mul (a, b)) a b
    | L.Literal.Div (a, b) -> bin (fun a b -> L.Literal.Div (a, b)) a b
  and bin mk a b =
    let a = expr a in
    mk a (expr b)
  in
  let head = List.map next c.A.head in
  let atoms =
    List.map (fun (a : L.Atom.t) -> { a with L.Atom.args = List.map next a.L.Atom.args }) c.A.atoms
  in
  let cmps =
    List.map
      (fun (op, a, b) ->
        let a = expr a in
        (op, a, expr b))
      c.A.cmps
  in
  { A.head; atoms; cmps }

type live_op =
  | Admit of int * V.t list  (** a definition template, its constants *)
  | Probe of int * V.t list  (** a query template, its constants *)
  | Drop of string  (** invalidate a predicate *)

let live_op_to_string = function
  | Admit (i, vs) -> Printf.sprintf "admit d%d[%s]" i (String.concat "," (List.map V.to_string vs))
  | Probe (i, vs) -> Printf.sprintf "probe q%d[%s]" i (String.concat "," (List.map V.to_string vs))
  | Drop p -> "drop " ^ p

(* A few definition templates (some over a whole predicate) and a few
   query templates (instances of the definitions with atoms of their own,
   unrelated conjuncts, and the definitions themselves), then a run of admissions, invalidations and
   probes, each with fresh constants: many queries of one form, repeated
   parameters, 2 beside 2.0, floats equal to six digits. *)
let gen_live =
  let open QCheck.Gen in
  let plain pred vars =
    let args = List.map (fun x -> T.Var x) vars in
    A.conj args [ L.Atom.make pred args ]
  in
  (* whole-predicate definitions cover any atom of theirs, so elements of
     several predicates answer one query *)
  list_size (int_range 0 2)
    (oneofl [ plain "p" [ "X"; "Y" ]; plain "q" [ "X"; "Y" ]; plain "r" [ "X"; "Y"; "Z" ] ])
  >>= fun plains ->
  list_size (int_range 1 3) (gen_probe_conj [ "X"; "Y"; "Z" ]) >|= List.append plains
  >>= fun defs ->
  list_size (int_range 1 3) (oneofl defs >>= gen_probe_query) >>= fun queries ->
  let templates = Array.of_list (queries @ defs) and defs_a = Array.of_list defs in
  let values c = list_repeat (List.length (A.constants c)) gen_probe_value in
  let op =
    frequency
      [
        ( 3,
          int_bound (Array.length defs_a - 1) >>= fun i ->
          values defs_a.(i) >|= fun vs -> Admit (i, vs) );
        ( 4,
          int_bound (Array.length templates - 1) >>= fun i ->
          values templates.(i) >|= fun vs -> Probe (i, vs) );
        (1, oneofl [ "p"; "q"; "r" ] >|= fun p -> Drop p);
      ]
  in
  list_size (int_range 5 40) op >|= fun ops -> (defs_a, templates, ops)

let print_live (defs, templates, ops) =
  let conjs tag a =
    String.concat "\n"
      (Array.to_list
         (Array.mapi (fun i c -> Printf.sprintf "%s%d: %s" tag i (A.conj_to_string c)) a))
  in
  conjs "d" defs ^ "\n" ^ conjs "q" templates ^ "\n"
  ^ String.concat "; " (List.map live_op_to_string ops)

(* Runs the ops over a cache with room for four elements, so admissions
   evict; [check] judges every probe. *)
let run_live (defs, templates, ops) check =
  let empty () = R.Relation.create schema2 in
  let one = Elem.bytes_estimate (Elem.make ~id:"e0" ~def:defs.(0) ~now:0 (empty ())) in
  let cmgr = CMgr.create ~capacity_bytes:(4 * one) () in
  List.for_all
    (function
      | Admit (i, vs) ->
        ignore (CMgr.insert cmgr ~def:(reconst defs.(i) vs) (empty ()));
        true
      | Drop p ->
        ignore (CMgr.invalidate_pred cmgr p);
        true
      | Probe (i, vs) -> check cmgr (reconst templates.(i) vs))
    ops

let prop_indexed_covers_equal_reference =
  QCheck.Test.make ~count:500 ~name:"indexed covers = reference over a live cache, same order"
    (arb_of gen_live print_live)
    (fun live ->
      run_live live (fun cmgr q ->
          let m = CMgr.model cmgr in
          let seen = Hashtbl.create 8 in
          let candidates =
            List.concat_map (CModel.candidates_for_pred m)
              (List.sort_uniq String.compare
                 (List.map (fun (a : L.Atom.t) -> a.L.Atom.pred) q.A.atoms))
            |> List.filter (fun (e : Elem.t) ->
                   (not (Hashtbl.mem seen e.Elem.id)) && (Hashtbl.add seen e.Elem.id (); true))
          in
          let expected =
            List.concat_map
              (fun (e : Elem.t) ->
                List.map
                  (fun c -> (e.Elem.id, c))
                  (Probe_oracle.covers { Sub.id = e.Elem.id; def = e.Elem.def } q))
              candidates
          in
          List.map
            (fun ((e : Elem.t), c) -> (e.Elem.id, c))
            (CMgr.relevant_covers cmgr (Form.of_conj q))
          = expected))

let prop_exact_hits_equal_reference =
  QCheck.Test.make ~count:500 ~name:"exact hits = oldest variant over a live cache"
    (arb_of gen_live print_live)
    (fun live ->
      run_live live (fun cmgr q ->
          let id = Option.map (fun (e : Elem.t) -> e.Elem.id) in
          id (CModel.find_variant (CMgr.model cmgr) (Form.of_conj q))
          = id
              (List.find_opt
                 (fun (e : Elem.t) -> Probe_oracle.variant_equal e.Elem.def q)
                 (CModel.elements (CMgr.model cmgr)))))

(* The definition templates as advice specs, each admission replacing one
   spec's constants; every probe must identify the first spec, in advice
   order, that fully covers it. *)
let prop_identify_equals_reference =
  QCheck.Test.make ~count:500 ~name:"identify = first fully covering spec in advice order"
    (arb_of gen_live print_live)
    (fun (defs, templates, ops) ->
      let specs = Array.copy defs in
      let advisor () =
        Advisor.create
          {
            Adv.specs =
              Array.to_list
                (Array.mapi
                   (fun i def ->
                     Adv.spec ~id:(Printf.sprintf "d%d" i)
                       ~bindings:(List.map (fun _ -> Adv.Producer) def.A.head)
                       def)
                   specs);
            path = None;
          }
      in
      let adv = ref (advisor ()) in
      List.for_all
        (function
          | Admit (i, vs) ->
            specs.(i) <- reconst defs.(i) vs;
            adv := advisor ();
            true
          | Drop _ -> true
          | Probe (i, vs) ->
            let q = reconst templates.(i) vs in
            let id = Option.map (fun (s : Adv.view_spec) -> s.Adv.id) in
            id (Advisor.identify !adv (Form.of_conj q))
            = id
                (List.find_opt
                   (fun (s : Adv.view_spec) ->
                     Probe_oracle.full_cover { Sub.id = s.Adv.id; def = s.Adv.def } q <> None)
                   (Advisor.specs !adv)))
        ops)

type pin_op =
  | Advise of int * Adv.path  (* new advice on a session *)
  | Observe of int * string
  | Associate of int * int * string  (* session, element, spec *)
  | Evict of int
  | Recover  (* rebuild the cache from its journal *)
  | Update of int  (* [update_pins] on a session *)

let pin_specs = [ "a"; "b"; "c"; "d" ]
let pin_elements = 8

let pin_advice path =
  {
    Adv.specs =
      List.map
        (fun id -> Adv.spec ~id ~bindings:[] (A.conj [] [ L.Atom.make ("r_" ^ id) [ T.Var "X" ] ]))
        pin_specs;
    path = Some path;
  }

let gen_pin_op =
  let session = QCheck.Gen.int_range 0 1 and spec = QCheck.Gen.oneofl pin_specs in
  QCheck.Gen.frequency
    [
      (1, QCheck.Gen.pair session (gen_path 2) >|= fun (k, p) -> Advise (k, p));
      (3, QCheck.Gen.pair session spec >|= fun (k, id) -> Observe (k, id));
      ( 3,
        QCheck.Gen.triple session (QCheck.Gen.int_range 0 (pin_elements - 1)) spec
        >|= fun (k, e, id) -> Associate (k, e, id) );
      (1, QCheck.Gen.int_range 0 (pin_elements - 1) >|= fun e -> Evict e);
      (1, QCheck.Gen.return Recover);
      (4, session >|= fun k -> Update k);
    ]

let pin_op_to_string = function
  | Advise (k, p) -> Format.asprintf "advise s%d %a" k Adv.pp_path p
  | Observe (k, id) -> Printf.sprintf "observe s%d %s" k id
  | Associate (k, e, id) -> Printf.sprintf "associate s%d e%d %s" k (e + 1) id
  | Evict e -> Printf.sprintf "evict e%d" (e + 1)
  | Recover -> "recover"
  | Update k -> Printf.sprintf "update s%d" k

let pin_capacity = 1 lsl 20

let pin_cache () =
  let cache = CMgr.create ~capacity_bytes:pin_capacity () in
  for k = 1 to pin_elements do
    let rel = R.Relation.of_tuples ~name:"b" (R.Schema.make [ ("y", V.Tint) ]) [ [| V.Int k |] ] in
    ignore
      (CMgr.insert cache
         ~def:(A.conj [ T.Var "Y" ] [ L.Atom.make "b" [ T.int k; T.Var "Y" ] ])
         rel)
  done;
  cache

let recover cache =
  let journal = CMgr.journal cache in
  let model =
    Braid_cache.Journal.replay ~capacity_bytes:pin_capacity journal
  in
  CMgr.create ~journal ~model ~capacity_bytes:pin_capacity ()

let pin_entries cache =
  List.length
    (List.filter
       (function Braid_cache.Journal.Pin _ -> true | _ -> false)
       (Braid_cache.Journal.entries (CMgr.journal cache)))

let flags cache =
  List.init pin_elements (fun e ->
      Option.map
        (fun (el : Braid_cache.Element.t) -> el.Braid_cache.Element.pinned)
        (CMgr.find cache (Printf.sprintf "e%d" (e + 1))))

(* Two sessions share one cache. The planner re-pins incrementally; the
   reference is the full walk over every element→spec link, run on a
   second cache that sees the same operations. *)
let prop_incremental_pins_equal_full_walk =
  QCheck.Test.make ~count:300 ~name:"incremental pins = full walk"
    (arb_of
       (QCheck.Gen.pair (QCheck.Gen.pair (gen_path 2) (gen_path 2))
          (QCheck.Gen.list_size (QCheck.Gen.int_range 1 60) gen_pin_op))
       (fun (_, ops) -> String.concat "; " (List.map pin_op_to_string ops)))
    (fun ((p0, p1), ops) ->
      let server = Braid_remote.Server.create () in
      let cache = ref (pin_cache ()) in
      let qpo = ref (Qpo.create Qpo.braid_config ~cache:!cache ~server) in
      let sessions =
        [| Qpo.new_session !qpo (pin_advice p0); Qpo.new_session !qpo (pin_advice p1) |]
      in
      let ref_cache = ref (pin_cache ()) in
      let ref_advisors = [| Advisor.create (pin_advice p0); Advisor.create (pin_advice p1) |] in
      let ref_links = [| Hashtbl.create 8; Hashtbl.create 8 |] in
      let elem e = Printf.sprintf "e%d" (e + 1) in
      List.for_all
        (fun op ->
          match op with
          | Advise (k, p) ->
            Qpo.advise !qpo sessions.(k) (pin_advice p);
            ref_advisors.(k) <- Advisor.create (pin_advice p);
            (* links end with their advice epoch *)
            Hashtbl.iter (fun e _ -> CMgr.pin !ref_cache e false) ref_links.(k);
            Hashtbl.reset ref_links.(k);
            true
          | Observe (k, id) ->
            Advisor.observe (Qpo.session_advisor sessions.(k)) id;
            Advisor.observe ref_advisors.(k) id;
            true
          | Associate (k, e, id) ->
            if CMgr.find !cache (elem e) <> None then begin
              Qpo.associate sessions.(k) (elem e) id;
              Hashtbl.replace ref_links.(k) (elem e) id
            end;
            true
          | Evict e ->
            List.iter
              (fun c ->
                match CMgr.find c (elem e) with
                | Some el -> CMgr.remove_element c el ~pred:"b"
                | None -> ())
              [ !cache; !ref_cache ];
            true
          | Recover ->
            cache := recover !cache;
            qpo := Qpo.create Qpo.braid_config ~cache:!cache ~server;
            ref_cache := recover !ref_cache;
            true
          | Update k ->
            Qpo.update_pins !qpo sessions.(k);
            let adv = ref_advisors.(k) in
            let keep =
              List.filter_map
                (fun (s : Adv.view_spec) ->
                  if Advisor.may_occur_later adv s.Adv.id then Some s.Adv.id else None)
                (Advisor.predicted_next adv)
            in
            Hashtbl.iter
              (fun e id -> CMgr.pin !ref_cache e (List.mem id keep))
              ref_links.(k);
            flags !cache = flags !ref_cache && pin_entries !cache = pin_entries !ref_cache)
        ops)

(* Pin links end with their advice epoch: right after a new advice nothing
   the old links pinned stays pinned, and from then on the session pins
   exactly what a fresh session pins over the same cache with the old pins
   cleared. *)
let gen_epoch_op =
  let spec = QCheck.Gen.oneofl pin_specs in
  QCheck.Gen.frequency
    [
      (3, spec >|= fun id -> Observe (0, id));
      ( 3,
        QCheck.Gen.pair (QCheck.Gen.int_range 0 (pin_elements - 1)) spec
        >|= fun (e, id) -> Associate (0, e, id) );
      (2, QCheck.Gen.return (Update 0));
    ]

let run_epoch_op qpo ses = function
  | Observe (_, id) -> Advisor.observe (Qpo.session_advisor ses) id
  | Associate (_, e, id) -> Qpo.associate ses (Printf.sprintf "e%d" (e + 1)) id
  | Update _ -> Qpo.update_pins qpo ses
  | Advise _ | Evict _ | Recover -> ()

let prop_advice_epoch_ends_links =
  let ops = QCheck.Gen.list_size (QCheck.Gen.int_range 0 30) gen_epoch_op in
  QCheck.Test.make ~count:300 ~name:"a new advice epoch ends pin links"
    (arb_of
       (QCheck.Gen.pair (QCheck.Gen.pair (gen_path 2) (gen_path 2)) (QCheck.Gen.pair ops ops))
       (fun ((_, p1), (before, after)) ->
         String.concat "; " (List.map pin_op_to_string (before @ (Advise (0, p1) :: after)))))
    (fun ((p0, p1), (before, after)) ->
      let server = Braid_remote.Server.create () in
      let run renew =
        let cache = pin_cache () in
        let qpo = Qpo.create Qpo.braid_config ~cache ~server in
        let ses = Qpo.new_session qpo (pin_advice p0) in
        List.iter (run_epoch_op qpo ses) before;
        let ses = renew qpo ses cache in
        let renewed = flags cache in
        List.iter (run_epoch_op qpo ses) after;
        (renewed, flags cache)
      in
      let renewed, pinned =
        run (fun qpo ses _ ->
            Qpo.advise qpo ses (pin_advice p1);
            ses)
      in
      let _, fresh =
        run (fun qpo _ cache ->
            List.iter
              (fun (e : Elem.t) -> CMgr.pin cache e.Elem.id false)
              (CModel.elements (CMgr.model cache));
            Qpo.new_session qpo (pin_advice p1))
      in
      List.for_all (fun f -> f <> Some true) renewed && pinned = fresh)

(* --- journal truncation --- *)

module Journal = Braid_cache.Journal
module Maintain = Braid_cache.Maintain

type journal_op =
  | J_admit of int  (* an element over b(k, Y) *)
  | J_drop of int  (* the n-th live element *)
  | J_pin of int * bool
  | J_flips of int * int  (* flip a pin this many times: the CMS checkpoints itself *)
  | J_stale of int
  | J_write of bool * int * int  (* insert (true) or delete the row (k, y) of b *)
  | J_checkpoint

let gen_journal_op =
  let open QCheck.Gen in
  let key = int_range 0 3 and nth = int_range 0 7 in
  frequency
    [
      (4, key >|= fun k -> J_admit k);
      (1, nth >|= fun n -> J_drop n);
      (2, pair nth bool >|= fun (n, f) -> J_pin (n, f));
      (1, pair nth (int_range 200 1100) >|= fun (n, c) -> J_flips (n, c));
      (1, nth >|= fun n -> J_stale n);
      (3, triple bool key (int_range 0 3) >|= fun (ins, k, y) -> J_write (ins, k, y));
      (1, return J_checkpoint);
    ]

let journal_op_to_string = function
  | J_admit k -> Printf.sprintf "admit b(%d, Y)" k
  | J_drop n -> Printf.sprintf "drop #%d" n
  | J_pin (n, f) -> Printf.sprintf "pin #%d %b" n f
  | J_flips (n, c) -> Printf.sprintf "flip #%d x%d" n c
  | J_stale n -> Printf.sprintf "stale #%d" n
  | J_write (ins, k, y) -> Printf.sprintf "%s b(%d, %d)" (if ins then "insert" else "delete") k y
  | J_checkpoint -> "checkpoint"

(* Random cache histories, with explicit checkpoints and the CMS's own,
   then a crash after the last one: replaying the truncated journal must
   rebuild the dead model, and the recovered cache must mint the id and
   clock a replay of the whole history would (past every admission, also
   those a checkpoint dropped). *)
let prop_replay_across_truncation =
  let b_schema = R.Schema.make [ ("x", V.Tint); ("y", V.Tint) ] in
  let y_schema = R.Schema.make [ ("y", V.Tint) ] in
  let def k = A.conj [ T.Var "Y" ] [ L.Atom.make "b" [ T.int k; T.Var "Y" ] ] in
  let ext k = R.Relation.of_tuples ~name:"b" y_schema [ [| V.Int k |]; [| V.Int (k + 1) |] ] in
  let capacity_bytes =
    6 * Elem.bytes_estimate
          (Elem.make ~id:"e0" ~def:(def 0) ~now:0 (ext 0))
  in
  QCheck.Test.make ~count:200 ~name:"journal replay across truncation"
    (arb_of
       (QCheck.Gen.list_size (QCheck.Gen.int_range 1 40) gen_journal_op)
       (fun ops -> String.concat "; " (List.map journal_op_to_string ops)))
    (fun ops ->
      let cache = CMgr.create ~capacity_bytes () in
      let max_id = ref 0 and max_at = ref 0 in
      let nth n =
        match CModel.elements (CMgr.model cache) with
        | [] -> None
        | es -> Some (List.nth es (n mod List.length es))
      in
      List.iter
        (fun op ->
          match op with
          | J_admit k ->
            Option.iter
              (fun (e : Elem.t) ->
                max_id := max !max_id (Scanf.sscanf e.Elem.id "e%d" Fun.id);
                max_at := max !max_at e.Elem.created_at)
              (CMgr.insert cache ~def:(def k) (ext k))
          | J_drop n -> Option.iter (fun e -> CMgr.remove_element cache e ~pred:"b") (nth n)
          | J_pin (n, flag) ->
            Option.iter (fun (e : Elem.t) -> CMgr.pin cache e.Elem.id flag) (nth n)
          | J_flips (n, count) ->
            Option.iter
              (fun (e : Elem.t) ->
                for _ = 1 to count do
                  CMgr.pin cache e.Elem.id (not e.Elem.pinned)
                done)
              (nth n)
          | J_stale n -> Option.iter (fun e -> CMgr.mark_stale_element cache e ~pred:"b") (nth n)
          | J_write (ins, k, y) ->
            let row = [| V.Int k; V.Int y |] in
            ignore
              (Maintain.on_write cache
                 ~schema_of:(fun p -> if p = "b" then Some b_schema else None)
                 (if ins then Maintain.Insert ("b", row)
                  else Maintain.Delete ("b", row)))
          | J_checkpoint -> ignore (CMgr.checkpoint cache))
        ops;
      let recovered = Journal.replay ~capacity_bytes (CMgr.journal cache) in
      Braid_check.Oracle.same_state (CMgr.model cache) recovered = Ok ()
      && CModel.fresh_id recovered = Printf.sprintf "e%d" (!max_id + 1)
      && CModel.now recovered = !max_at + 1)

(* --- second-order operations --- *)

let prop_division_is_forall =
  QCheck.Test.make ~count:300 ~name:"division = brute-force for-all" arb_rel2
    (fun (d, s) ->
      (* dividend: (x, y) pairs of d; divisor: distinct y of s *)
      let divisor = R.Relation.distinct (R.Ops.project [ 1 ] s) in
      let q =
        Braid_caql.Eval.query
          ~source:(fun (a : L.Atom.t) -> if a.L.Atom.pred = "d" then d else divisor)
          ~schema_of:(fun n ->
            if n = "d" then Some schema2 else Some (R.Relation.schema divisor))
          (A.Division
             ( A.Conj (A.conj [ T.Var "X"; T.Var "Y" ] [ L.Atom.make "d" [ T.Var "X"; T.Var "Y" ] ]),
               A.Conj (A.conj [ T.Var "Y" ] [ L.Atom.make "s" [ T.Var "Y" ] ]) ))
      in
      (* brute force: candidates are distinct first columns of d *)
      let xs =
        List.sort_uniq compare
          (List.map (fun t -> R.Tuple.get t 0) (R.Relation.to_list d))
      in
      let ys = List.map (fun t -> R.Tuple.get t 0) (R.Relation.to_list divisor) in
      let expected =
        List.filter
          (fun x -> List.for_all (fun y -> R.Relation.mem d [| x; y |]) ys)
          xs
      in
      List.sort compare (List.map (fun t -> R.Tuple.get t 0) (R.Relation.to_list q))
      = List.sort compare expected)

let prop_count_sums_to_cardinality =
  QCheck.Test.make ~count:300 ~name:"group counts sum to cardinality" arb_rel (fun r ->
      let g = R.Aggregate.group_by [ 0 ] [ R.Aggregate.Count ] r in
      let total =
        R.Relation.fold
          (fun acc t -> match R.Tuple.get t 1 with V.Int n -> acc + n | _ -> acc)
          0 g
      in
      total = R.Relation.cardinality r)

let prop_fixpoint_is_closure =
  QCheck.Test.make ~count:150 ~name:"fixpoint computes reachability" arb_rel (fun edges ->
      let edges = R.Relation.distinct edges in
      let source (_ : L.Atom.t) = edges in
      let schema_of _ = Some schema2 in
      let q =
        A.Fixpoint
          {
            A.name = "tc";
            base = A.Conj (A.conj [ T.Var "X"; T.Var "Y" ] [ L.Atom.make "e" [ T.Var "X"; T.Var "Y" ] ]);
            step =
              A.Conj
                (A.conj [ T.Var "X"; T.Var "Z" ]
                   [ L.Atom.make "tc" [ T.Var "X"; T.Var "Y" ]; L.Atom.make "e" [ T.Var "Y"; T.Var "Z" ] ]);
          }
      in
      let got = norm (Braid_caql.Eval.query ~source ~schema_of q) in
      (* brute-force closure *)
      let pairs = List.map (fun t -> (R.Tuple.get t 0, R.Tuple.get t 1)) (R.Relation.to_list edges) in
      let closure = Hashtbl.create 64 in
      List.iter (fun p -> Hashtbl.replace closure p ()) pairs;
      let changed = ref true in
      while !changed do
        changed := false;
        Hashtbl.iter
          (fun (x, y) () ->
            List.iter
              (fun (y', z) ->
                if y = y' && not (Hashtbl.mem closure (x, z)) then begin
                  Hashtbl.replace closure (x, z) ();
                  changed := true
                end)
              pairs)
          (Hashtbl.copy closure)
      done;
      let expected =
        Hashtbl.fold (fun (x, y) () acc -> [ x; y ] :: acc) closure [] |> List.sort compare
      in
      got = expected)

let prop_path_pp_parse_roundtrip =
  QCheck.Test.make ~count:300 ~name:"path expression pp/parse roundtrip"
    (arb_of (gen_path 2) (fun p -> Format.asprintf "%a" Adv.pp_path p))
    (fun p ->
      let printed = Format.asprintf "%a" Adv.pp_path p in
      let reparsed = Braid_advice.Parser.parse_path printed in
      Format.asprintf "%a" Adv.pp_path reparsed = printed)

(* --- prng --- *)

let prop_prng_deterministic =
  QCheck.Test.make ~count:100 ~name:"prng deterministic in seed"
    (arb_of QCheck.Gen.int string_of_int)
    (fun seed ->
      let a = Braid_workload.Prng.create seed and b = Braid_workload.Prng.create seed in
      List.init 20 (fun _ -> Braid_workload.Prng.int a 1000)
      = List.init 20 (fun _ -> Braid_workload.Prng.int b 1000))

let prop_zipf_in_range =
  QCheck.Test.make ~count:100 ~name:"zipf stays in range"
    (arb_of (QCheck.Gen.pair QCheck.Gen.int (QCheck.Gen.int_range 1 50)) (fun _ -> "zipf"))
    (fun (seed, n) ->
      let prng = Braid_workload.Prng.create seed in
      List.for_all
        (fun _ ->
          let k = Braid_workload.Prng.zipf prng ~n ~skew:1.1 in
          k >= 0 && k < n)
        (List.init 50 Fun.id))

(* --- plan enumerator vs the naive FROM-order pipeline --- *)

module Sql = Braid_remote.Sql
module REngine = Braid_remote.Engine

(* Random multi-way join queries over random small relations: whatever
   access paths, join order, and strategies the enumerator picks, the
   answer must be bag-equal to the naive left-deep hash pipeline. *)
let prop_enumerated_plan_equals_naive =
  let gen =
    let open QCheck.Gen in
    let rows = list_size (int_range 0 20) (pair (int_range 0 5) (int_range 0 5)) in
    triple (int_range 2 3) (list_repeat 3 rows) (int_range 0 1000)
  in
  QCheck.Test.make ~count:60 ~name:"enumerated plan equals naive pipeline"
    (arb_of gen (fun (n, _, salt) -> Printf.sprintf "%d-way join, salt %d" n salt))
    (fun (ntab, tables, salt) ->
      let eng = REngine.create () in
      List.iteri
        (fun i rows ->
          if i < ntab then
            REngine.load eng
              (R.Relation.of_tuples ~name:(Printf.sprintf "r%d" i)
                 (R.Schema.make [ ("k", V.Tint); ("v", V.Tint) ])
                 (List.map (fun (a, b) -> [| V.Int a; V.Int b |]) rows)))
        tables;
      let alias i = Printf.sprintf "a%d" i in
      let col i attr = Sql.Col { Sql.src = alias i; attr } in
      let from =
        List.init ntab (fun i -> { Sql.table = Printf.sprintf "r%d" i; alias = alias i })
      in
      let joins = List.init (ntab - 1) (fun i -> (RP.Eq, col i "v", col (i + 1) "k")) in
      let extra =
        match salt mod 3 with
        | 0 -> []
        | 1 -> [ (RP.Eq, col 0 "k", Sql.Const (V.Int (salt mod 6))) ]
        | _ -> [ (RP.Gt, col (ntab - 1) "v", Sql.Const (V.Int (salt mod 6))) ]
      in
      let q =
        {
          Sql.distinct = salt mod 2 = 0;
          columns = [ col 0 "k"; col (ntab - 1) "v" ];
          from;
          where = joins @ extra;
          semijoins = [];
        }
      in
      let bag rel =
        List.sort compare (R.Relation.fold (fun acc t -> Array.to_list t :: acc) [] rel)
      in
      let r1, _ = REngine.execute eng q in
      let r2, _ = REngine.execute_naive eng q in
      bag r1 = bag r2)

(* An IN-listed column answered by probing its index once per distinct
   value gives the seq scan under the explicit [Or]-of-[Eq] filter, as
   bags. Column [v] holds generated values plus 200 distinct padding
   strings, so a list of at most 12 values is always cheapest to probe —
   unless a member is wide, which keeps the filter a residual. Each list
   also runs sorted and de-duplicated, the shape the QPO ships, which
   the planner takes as distinct without hashing it. *)
let prop_in_probe_equals_or_of_eq =
  let print (vs, col) =
    Printf.sprintf "in [%s] over [%s]"
      (String.concat "; " (List.map V.to_string vs))
      (String.concat "; " (List.map V.to_string col))
  in
  QCheck.Test.make ~count:300 ~name:"IN-probed scan = Or-of-Eq seq scan"
    (arb_of
       (QCheck.Gen.pair
          (QCheck.Gen.list_size (QCheck.Gen.int_range 0 12) gen_in_value)
          (QCheck.Gen.list_size (QCheck.Gen.int_range 0 40) gen_in_value))
       print)
    (fun (vs, col) ->
      let eng = REngine.create () in
      let padding = List.init 200 (fun i -> V.Str (Printf.sprintf "pad%d" i)) in
      REngine.load eng
        (R.Relation.of_tuples ~name:"t"
           (R.Schema.make [ ("id", V.Tint); ("v", V.Tint) ])
           (List.mapi (fun i v -> [| V.Int i; v |]) (col @ padding)));
      let bag rel = List.sort compare (List.map R.Tuple.to_list (R.Relation.to_list rel)) in
      let agrees vs =
        let q =
          { Sql.distinct = false; columns = []; from = [ { Sql.table = "t"; alias = "t" } ];
            where = []; semijoins = [ ({ Sql.src = "t"; attr = "v" }, vs) ] }
        in
        let r, _, _, plan = REngine.execute_explained eng q in
        let explicit = RP.Or (List.map (fun v -> RP.Cmp (RP.Eq, Col 1, Lit v)) vs) in
        (Braid_remote.Qplan.plan_signature plan = "t+probe-in") = not (RP.has_wide vs)
        && bag r = bag (R.Ops.select explicit (REngine.table eng "t"))
      in
      agrees vs && agrees (List.sort_uniq V.compare vs))

(* --- datalog algorithms + magic sets over random linear-recursive KBs --- *)

module Datalog = Braid_ie.Datalog
module Magic = Braid_ie.Magic

let tc_kb dir =
  let kb = L.Kb.create () in
  L.Kb.declare_base kb "edge" ~arity:2;
  let atom p args = L.Atom.make p args in
  L.Kb.add_rule kb
    (L.Rule.make ~id:"T1"
       (atom "tc" [ T.Var "X"; T.Var "Y" ])
       [ L.Literal.rel (atom "edge" [ T.Var "X"; T.Var "Y" ]) ]);
  L.Kb.add_rule kb
    (L.Rule.make ~id:"T2"
       (atom "tc" [ T.Var "X"; T.Var "Y" ])
       (match dir with
        | `Left ->
          [
            L.Literal.rel (atom "edge" [ T.Var "X"; T.Var "Z" ]);
            L.Literal.rel (atom "tc" [ T.Var "Z"; T.Var "Y" ]);
          ]
        | `Right ->
          [
            L.Literal.rel (atom "tc" [ T.Var "X"; T.Var "Z" ]);
            L.Literal.rel (atom "edge" [ T.Var "Z"; T.Var "Y" ]);
          ]));
  kb

(* Even/odd path parity: two predicates defined through each other. *)
let parity_kb () =
  let kb = L.Kb.create () in
  L.Kb.declare_base kb "edge" ~arity:2;
  let atom p x y = L.Atom.make p [ T.Var x; T.Var y ] in
  let rule id head body = L.Kb.add_rule kb (L.Rule.make ~id head (List.map L.Literal.rel body)) in
  rule "O1" (atom "odd" "X" "Y") [ atom "edge" "X" "Y" ];
  rule "O2" (atom "odd" "X" "Y") [ atom "even" "X" "Z"; atom "edge" "Z" "Y" ];
  rule "E1" (atom "even" "X" "Y") [ atom "odd" "X" "Z"; atom "edge" "Z" "Y" ];
  kb

let edge_rel edges =
  R.Relation.of_tuples ~name:"edge"
    (R.Schema.make [ ("x", V.Tint); ("y", V.Tint) ])
    (List.map (fun (a, b) -> [| V.Int a; V.Int b |]) edges)

let gen_tc_instance =
  let open QCheck.Gen in
  triple
    (list_size (int_range 0 25) (pair (int_range 0 6) (int_range 0 6)))
    (oneofl [ `Left; `Right; `Parity ])
    (opt (int_range 0 6))

let print_tc_instance (edges, dir, qc) =
  Printf.sprintf "edges=%s dir=%s q=%s"
    (String.concat ","
       (List.map (fun (a, b) -> Printf.sprintf "%d->%d" a b) edges))
    (match dir with `Left -> "left" | `Right -> "right" | `Parity -> "parity")
    (match qc with Some c -> string_of_int c | None -> "free")

let norm_rel rel =
  List.sort_uniq compare (List.map R.Tuple.to_list (R.Relation.to_list rel))

let prop_datalog_algorithms_agree =
  QCheck.Test.make ~count:225 ~name:"naive = semi-naive = set-oriented fixpoint"
    (arb_of gen_tc_instance print_tc_instance)
    (fun (edges, dir, qc) ->
      let kb, pred =
        match dir with
        | `Parity -> (parity_kb (), "odd")
        | (`Left | `Right) as dir -> (tc_kb dir, "tc")
      in
      let rel = edge_rel edges in
      let base n = if n = "edge" then Some rel else None in
      let q =
        L.Atom.make pred
          [
            (match qc with Some c -> T.Const (V.Int c) | None -> T.Var "X");
            T.Var "Y";
          ]
      in
      let naive = Naive_fixpoint.solve kb ~base q in
      let semi = Datalog.solve kb ~base q in
      (* Semi-naive joins each derived tuple once per body occurrence that
         reads it: the delta rounds partition each total. In round 0 every
         recursive rule still sees an empty total (parity evaluates even
         before odd, checked below), so the work is the edges plus, per
         recursive occurrence, one edge join of the final total. *)
      (match dir with
       | `Parity when List.map fst semi.Datalog.derived_sizes <> [ "even"; "odd" ] ->
         QCheck.Test.fail_reportf
           "parity evaluated in order [%s]; the work count below assumes even before odd"
           (String.concat "; " (List.map fst semi.Datalog.derived_sizes))
       | _ -> ());
      let edge_joins p ~col ~edge_end =
        List.fold_left
          (fun n t ->
            let x = R.Tuple.get t col in
            n + List.length (List.filter (fun e -> V.equal (V.Int (edge_end e)) x) edges))
          0
          (R.Relation.to_list
             (Naive_fixpoint.solve kb ~base (L.Atom.make p [ T.Var "X"; T.Var "Y" ]))
               .Naive_fixpoint.result)
      in
      let work =
        List.length edges
        +
        match dir with
        | `Left -> edge_joins "tc" ~col:0 ~edge_end:snd
        | `Right -> edge_joins "tc" ~col:1 ~edge_end:fst
        | `Parity -> edge_joins "odd" ~col:1 ~edge_end:fst + edge_joins "even" ~col:1 ~edge_end:fst
      in
      (* the set-oriented path: conjunctive fetches (against a local
         evaluator) over the magic-transformed program *)
      let schema n = Option.map R.Relation.schema (base n) in
      let fetch c =
        Braid_caql.Eval.conj
          ~source:(fun a -> Option.get (base a.L.Atom.pred))
          ~schema_of:schema c
      in
      let kb', q' =
        match Magic.transform kb q with
        | Some m -> (m.Magic.kb, m.Magic.query)
        | None -> (kb, q)
      in
      let set = Datalog.run kb' ~source:(Datalog.Conj_fetch { fetch; schema }) q' in
      norm_rel naive.Naive_fixpoint.result = norm_rel semi.Datalog.result
      && naive.Naive_fixpoint.derived_sizes = semi.Datalog.derived_sizes
      && semi.Datalog.tuples_produced = work
      && norm_rel semi.Datalog.result = norm_rel set.Datalog.result)

(* Rule bodies the edge-only KBs above never produce: a constant inside an
   atom, a repeated variable, comparisons (shipped with a fetch or kept
   local), three-atom bodies, a ground atom, and an atom that shares no
   variable with the delta (a product). [p] always has its base rule; each
   other rule is in or out by a flag. *)
type shapes_instance = {
  s_edges : (int * int) list;
  s_marks : int list;
  s_rules : bool list;  (* one flag per optional rule of [shapes_kb] *)
  s_consts : int * int * int;
  s_query : [ `P | `Q ] * int option;
}

let shapes_kb { s_rules; s_consts = c1, c2, c3; _ } =
  let kb = L.Kb.create () in
  L.Kb.declare_base kb "edge" ~arity:2;
  L.Kb.declare_base kb "mark" ~arity:1;
  let x = T.Var "X" and y = T.Var "Y" and z = T.Var "Z" and w = T.Var "W" in
  let k n = T.Const (V.Int n) in
  let rel p args = L.Literal.rel (L.Atom.make p args) in
  let cmp op a b = L.Literal.Cmp (op, a, b) in
  let term t = L.Literal.Term t in
  let rule id head body = L.Kb.add_rule kb (L.Rule.make ~id head body) in
  rule "P0" (L.Atom.make "p" [ x; y ]) [ rel "edge" [ x; y ] ];
  let optional =
    [
      (* linear recursion, the delta second *)
      (fun () -> rule "P1" (L.Atom.make "p" [ x; y ]) [ rel "edge" [ x; z ]; rel "p" [ z; y ] ]);
      (* a comparison across the derived and the base atom: kept local *)
      (fun () ->
        rule "P2" (L.Atom.make "p" [ x; y ])
          [ rel "p" [ x; z ]; rel "edge" [ z; y ]; cmp RP.Lt (term x) (term y) ]);
      (* three atoms, nonlinear: two derived occurrences *)
      (fun () ->
        rule "P3" (L.Atom.make "p" [ x; y ]) [ rel "p" [ x; z ]; rel "p" [ z; w ]; rel "edge" [ w; y ] ]);
      (* constants inside a base and a derived atom *)
      (fun () -> rule "P4" (L.Atom.make "p" [ x; y ]) [ rel "edge" [ x; k c1 ]; rel "p" [ k c1; y ] ]);
      (* a two-atom base component with a comparison shipped alongside *)
      (fun () ->
        rule "P5" (L.Atom.make "p" [ x; y ])
          [ rel "edge" [ x; z ]; rel "edge" [ z; y ]; cmp RP.Gt (term z) (term (k c2)) ]);
      (* a repeated variable in the derived atom *)
      (fun () -> rule "Q1" (L.Atom.make "q" [ x; y ]) [ rel "p" [ x; x ]; rel "edge" [ x; y ] ]);
      (* a product: mark(X) shares no variable with the delta of p *)
      (fun () -> rule "Q2" (L.Atom.make "q" [ x; y ]) [ rel "mark" [ x ]; rel "p" [ y; z ] ]);
      (* a ground atom and an arithmetic comparison *)
      (fun () ->
        rule "Q3" (L.Atom.make "q" [ x; y ])
          [
            rel "edge" [ k c3; k c1 ];
            rel "p" [ x; y ];
            cmp RP.Lt (L.Literal.Add (term x, term (k 1))) (term y);
          ]);
      (* recursion through q with the head's arguments swapped *)
      (fun () -> rule "Q4" (L.Atom.make "q" [ x; y ]) [ rel "q" [ y; x ]; rel "mark" [ y ] ]);
    ]
  in
  List.iter2 (fun on add -> if on then add ()) s_rules optional;
  rule "Q0" (L.Atom.make "q" [ x; x ]) [ rel "mark" [ x ] ];
  kb

let gen_shapes_instance =
  let open QCheck.Gen in
  let node = int_range 0 6 in
  map
    (fun ((s_edges, s_marks), (s_rules, s_consts, s_query)) ->
      { s_edges; s_marks; s_rules; s_consts; s_query })
    (pair
       (pair (list_size (int_range 0 20) (pair node node)) (list_size (int_range 0 4) node))
       (triple (list_repeat 9 bool) (triple node node node)
          (pair (oneofl [ `P; `Q ]) (opt node))))

let print_shapes_instance i =
  let c1, c2, c3 = i.s_consts in
  Printf.sprintf "edges=%s marks=%s rules=%s consts=%d,%d,%d q=%s(%s, Y)"
    (String.concat "," (List.map (fun (a, b) -> Printf.sprintf "%d->%d" a b) i.s_edges))
    (String.concat "," (List.map string_of_int i.s_marks))
    (String.concat "" (List.map (fun b -> if b then "1" else "0") i.s_rules))
    c1 c2 c3
    (match fst i.s_query with `P -> "p" | `Q -> "q")
    (match snd i.s_query with Some c -> string_of_int c | None -> "X")

let prop_datalog_shapes_agree =
  QCheck.Test.make ~count:300 ~name:"rule plans = naive fixpoint on varied rule bodies"
    (arb_of gen_shapes_instance print_shapes_instance)
    (fun inst ->
      let kb = shapes_kb inst in
      let edge = edge_rel inst.s_edges in
      let mark =
        R.Relation.of_tuples ~name:"mark"
          (R.Schema.make [ ("x", V.Tint) ])
          (List.map (fun m -> [| V.Int m |]) inst.s_marks)
      in
      let base n = if n = "edge" then Some edge else if n = "mark" then Some mark else None in
      let pred = match fst inst.s_query with `P -> "p" | `Q -> "q" in
      let arg0 = match snd inst.s_query with Some c -> T.Const (V.Int c) | None -> T.Var "X" in
      let q = L.Atom.make pred [ arg0; T.Var "Y" ] in
      let naive = Naive_fixpoint.solve kb ~base q in
      let expected = norm_rel naive.Naive_fixpoint.result in
      let agrees what result sizes =
        if norm_rel result <> expected then QCheck.Test.fail_reportf "%s: answers differ" what
        else
          match sizes with
          | Some s when s <> naive.Naive_fixpoint.derived_sizes ->
            QCheck.Test.fail_reportf "%s: derived sizes differ" what
          | Some _ | None -> true
      in
      let semi = Datalog.solve kb ~base q in
      let schema n = Option.map R.Relation.schema (base n) in
      let fetch c =
        Braid_caql.Eval.conj ~source:(fun a -> Option.get (base a.L.Atom.pred)) ~schema_of:schema c
      in
      let fetched = Datalog.run kb ~source:(Datalog.Conj_fetch { fetch; schema }) q in
      (* the set-oriented tier's path: the magic program compiled once with
         a parameter in place of the goal's constant *)
      let compiled =
        match snd inst.s_query with
        | None -> None
        | Some c ->
          let sentinel = V.Str "\000param" in
          Option.map
            (fun m ->
              Datalog.exec
                (Datalog.compile m.Magic.kb ~params:[ sentinel ] ~schema m.Magic.query)
                ~args:[ V.Int c ]
                ~fetch:(fun c ->
                  (* hand over indexes kept outside the run, as a cache
                     element's are *)
                  let r = fetch c in
                  (r, Some (R.Index.build r))))
            (Magic.transform kb (L.Atom.make pred [ T.Const sentinel; T.Var "Y" ]))
      in
      agrees "Datalog.solve" semi.Datalog.result (Some semi.Datalog.derived_sizes)
      && agrees "Conj_fetch run" fetched.Datalog.result (Some fetched.Datalog.derived_sizes)
      &&
      match compiled with
      | Some o -> agrees "compiled magic program" o.Datalog.result None
      | None -> true)

let prop_magic_sound =
  QCheck.Test.make ~count:150 ~name:"magic answer = full answer restricted to query"
    (arb_of
       (QCheck.Gen.triple
          (QCheck.Gen.list_size (QCheck.Gen.int_range 0 25)
             (QCheck.Gen.pair (QCheck.Gen.int_range 0 6) (QCheck.Gen.int_range 0 6)))
          (QCheck.Gen.oneofl [ `Left; `Right ])
          (QCheck.Gen.int_range 0 6))
       (fun (e, d, c) -> print_tc_instance (e, d, Some c)))
    (fun (edges, dir, c) ->
      let kb = tc_kb dir in
      let rel = edge_rel edges in
      let base n = if n = "edge" then Some rel else None in
      let q_free = L.Atom.make "tc" [ T.Var "X"; T.Var "Y" ] in
      let q_bound = L.Atom.make "tc" [ T.Const (V.Int c); T.Var "Y" ] in
      match Magic.transform kb q_bound with
      | None -> false (* a bound query must transform *)
      | Some m when (m.Magic.query.L.Atom.pred = "tc$bf$rl") <> (dir = `Left) ->
        (* `Left's tc(X,Y) <- edge(X,Z) & tc(Z,Y) is right-linear and takes
           the rewrite; `Right's left-linear rule keeps the plain program *)
        QCheck.Test.fail_reportf "right-linear rewrite %s" (L.Atom.to_string m.Magic.query)
      | Some m ->
        let full = Datalog.solve kb ~base q_free in
        let restricted =
          List.sort_uniq compare
            (List.filter_map
               (fun t ->
                 match R.Tuple.to_list t with
                 | [ x; y ] when V.equal x (V.Int c) -> Some [ y ]
                 | _ -> None)
               (R.Relation.to_list full.Datalog.result))
        in
        let magic = Datalog.solve m.Magic.kb ~base m.Magic.query in
        norm_rel magic.Datalog.result = restricted)

let to_alcotest = List.map (QCheck_alcotest.to_alcotest ~verbose:false)

let suites : unit Alcotest.test list =
  [
    ( "properties",
      to_alcotest
        [
          prop_unify_is_unifier;
          prop_match_produces_instance;
          prop_variant_reflexive;
          prop_range_implication_sound;
          prop_distinct_idempotent;
          prop_union_commutes;
          prop_diff_disjoint;
          prop_inter_subset;
          prop_inter_matches_reference;
          prop_diff_matches_reference;
          prop_indexed_select_equals_scan;
          prop_in_set_equals_or_of_eq;
          prop_schema_view_preserves_rows;
          prop_hash_join_equals_nested;
          prop_merge_join_equals_hash;
          prop_select_conj_commutes;
          prop_index_complete;
          prop_index_incremental_equals_build;
          prop_index_build_equals_adds;
          prop_stream_roundtrip;
          prop_stream_take_prefix;
          prop_lazy_equals_eager;
          prop_subsumption_sound;
          prop_instance_always_covered;
          prop_tracker_accepts_legal_sequences;
          prop_covers_equal_reference;
          prop_variant_key_equals_reference;
          prop_candidates_keep_insertion_order;
          prop_may_occur_later_equals_bfs;
          prop_tracker_dfa_equals_reference;
          prop_incremental_pins_equal_full_walk;
          prop_advice_epoch_ends_links;
          prop_replay_across_truncation;
          prop_division_is_forall;
          prop_count_sums_to_cardinality;
          prop_fixpoint_is_closure;
          prop_path_pp_parse_roundtrip;
          prop_prng_deterministic;
          prop_zipf_in_range;
          prop_enumerated_plan_equals_naive;
          prop_in_probe_equals_or_of_eq;
          prop_datalog_algorithms_agree;
          prop_datalog_shapes_agree;
          prop_magic_sound;
          prop_indexed_covers_equal_reference;
          prop_exact_hits_equal_reference;
          prop_identify_equals_reference;
          prop_equal_values_hash_alike;
        ]
      @ [
          Alcotest.test_case "index cursor allocates nothing" `Quick test_cursor_allocates_nothing;
          Alcotest.test_case "tracker past the DFA-state cap" `Quick test_tracker_past_dfa_cap;
        ]
    );
  ]
