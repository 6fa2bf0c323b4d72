module R = Braid_relalg
module V = R.Value
module A = Braid_caql.Ast
module L = Braid_logic
module T = L.Term
module Server = Braid_remote.Server
module Engine = Braid_remote.Engine
module Catalog = Braid_remote.Catalog
module Router = Braid_remote.Shard_router
module Prng = Braid_prng.Prng
module Cms = Braid.Cms

let size = 40

let v x = T.Var x
let s x = T.Const (V.Str x)
let atom p args = L.Atom.make p args

let load server =
  List.iter
    (Engine.load (Server.engine server))
    (Braid_workload.Datagen.paper_example ~size ())

(* Hash-partition keys chosen so the workload exercises every route kind:
   shape 0 pins b1's column 0 ("c1") and shape 4 pins b2's column 0 (an
   x-key) — partition-key-pinned, one shard; shape 1 scans all of b2 —
   fan-out; shapes 2/5 join b2.z against b3.z while b3 is partitioned on
   its y column — a router-side gather join (with b3's y pinned by shape
   2, only b3's one shard is touched for that source). *)
let partition_keys = [ ("b1", 0); ("b2", 0); ("b3", 2) ]

let partition server =
  List.iter
    (fun (name, column) ->
      Catalog.set_partitioning (Server.catalog server) name
        (Some (Catalog.Hash { column })))
    partition_keys

(* Constants come from pools far smaller than the tables' value universe
   (6 y-keys, 4 x-keys), so two sessions drawing independently in the same
   wave frequently collide on the exact same view — and shape 1 (all of
   b2) subsumes every shape-4 selection of b2. *)
let gen_query prng =
  let yk = Printf.sprintf "y%d" (Prng.int prng 6) in
  let xk = Printf.sprintf "x%d" (Prng.int prng 4) in
  match Prng.int prng 6 with
  | 0 -> A.conj [ v "Y" ] [ atom "b1" [ s "c1"; v "Y" ] ]
  | 1 -> A.conj [ v "X"; v "Z" ] [ atom "b2" [ v "X"; v "Z" ] ]
  | 2 ->
    A.conj [ v "X" ] [ atom "b2" [ v "X"; v "Z" ]; atom "b3" [ v "Z"; s "c2"; s yk ] ]
  | 3 -> A.conj [ v "Z" ] [ atom "b3" [ v "Z"; s "c2"; s yk ] ]
  | 4 -> A.conj [ v "Z" ] [ atom "b2" [ s xk; v "Z" ] ]
  | _ ->
    A.conj
      [ v "X"; v "W" ]
      [
        atom "b2" [ v "X"; v "Z" ];
        atom "b3" [ v "Z"; s "c3"; v "Y" ];
        atom "b1" [ v "W"; v "Y" ];
      ]

(* The recursive-goal leg's knowledge base, over the same tables: [b3] and
   [b1] both map a z-key to a y-key, so joining them on the shared y gives
   z-to-z edges — a genuine graph over the z namespace whose transitive
   closure takes several fixpoint rounds. *)
let recursive_kb () =
  let kb = L.Kb.create () in
  L.Kb.declare_base kb "b1" ~arity:2;
  L.Kb.declare_base kb "b3" ~arity:3;
  let rule id head body = L.Kb.add_rule kb (L.Rule.make ~id head body) in
  let r p args = L.Literal.Rel (atom p args) in
  rule "Z1"
    (atom "zlink" [ v "X"; v "Y" ])
    [ r "b3" [ v "X"; v "C"; v "W" ]; r "b1" [ v "Y"; v "W" ] ];
  rule "ZR1" (atom "zreach" [ v "X"; v "Y" ]) [ r "zlink" [ v "X"; v "Y" ] ];
  rule "ZR2"
    (atom "zreach" [ v "X"; v "Y" ])
    [ r "zlink" [ v "X"; v "Z" ]; r "zreach" [ v "Z"; v "Y" ] ];
  kb

(* Goals draw their bound z-key from a pool much smaller than [size], so
   sessions repeat goals and the magic-restricted base fetches overlap —
   the same locality story as the CAQL shapes. *)
let gen_goal prng = atom "zreach" [ s (Printf.sprintf "z%d" (Prng.int prng 8)); v "Y" ]

(* A strictly narrower variant of [q], when the family has one: all of
   [b2] narrows to a single x-key (shape 1 ⊒ shape 4). Once the broad
   fetch is cached, the narrow one is answered by subsumption from it
   instead of reaching the RDI. *)
let specialize prng (q : A.conj) =
  match q.A.atoms with
  | [ { L.Atom.pred = "b2"; args = [ T.Var _; T.Var _ ] } ] ->
    Some
      (A.conj [ v "Z" ] [ atom "b2" [ s (Printf.sprintf "x%d" (Prng.int prng 4)); v "Z" ] ])
  | _ -> None

(* The maintained write stream tracks what it inserted so deletes always
   name a row the remote really holds (bag semantics: one occurrence). *)
type write_stream = { mutable ws_rows : (string * R.Tuple.t) list; mutable ws_n : int }

let new_write_stream () = { ws_rows = []; ws_n = 0 }

let gen_row prng =
  let zi = Printf.sprintf "z%d" (Prng.int prng size) in
  let yi = Printf.sprintf "y%d" (Prng.int prng size) in
  match Prng.int prng 3 with
  | 0 -> ("b1", [| V.Str zi; V.Str yi |])
  | 1 -> ("b2", [| V.Str (Printf.sprintf "x%d" (Prng.int prng 4)); V.Str zi |])
  | _ ->
    ("b3", [| V.Str zi; V.Str (if Prng.bool prng 0.5 then "c2" else "c3"); V.Str yi |])

let gen_write prng ws cms =
  if ws.ws_n > 0 && Prng.bool prng 0.3 then begin
    let i = Prng.int prng ws.ws_n in
    let table, tup = List.nth ws.ws_rows i in
    ws.ws_rows <- List.filteri (fun j _ -> j <> i) ws.ws_rows;
    ws.ws_n <- ws.ws_n - 1;
    ignore (Cms.apply_delete cms table tup);
    `Delete
  end
  else begin
    let table, tup = gen_row prng in
    Cms.apply_insert cms table tup;
    ws.ws_rows <- (table, tup) :: ws.ws_rows;
    ws.ws_n <- ws.ws_n + 1;
    `Insert
  end

let gen_insert prng cms =
  let table, tup = gen_row prng in
  Router.insert (Cms.router cms) table tup;
  let mode = if Prng.bool prng 0.5 then `Drop else `Mark_stale in
  ignore (Cms.invalidate_table cms ~mode table);
  mode
