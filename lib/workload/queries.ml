module L = Braid_logic
module T = L.Term

let constants_with_locality prng ~pool ~skew ~n =
  let arr = Array.of_list pool in
  List.init n (fun _ -> arr.(Prng.zipf prng ~n:(Array.length arr) ~skew))

let batch ?(seed = 7) ~pool ~skew ~n mk =
  let prng = Prng.create seed in
  List.map mk (constants_with_locality prng ~pool ~skew ~n)

let ancestor_batch ?seed ~persons ~n ~skew () =
  (* Only the first third of people are likely to have descendants. *)
  let pool = List.init (max 1 (persons / 3)) (fun i -> Printf.sprintf "p%d" i) in
  batch ?seed ~pool ~skew ~n (fun c ->
      L.Atom.make "ancestor" [ T.Const (Braid_relalg.Value.Str c); T.Var "Y" ])

let bom_batch ?seed ~parts ~n ~skew () =
  let pool = List.init (max 1 (parts / 3)) (fun i -> Printf.sprintf "part%d" i) in
  batch ?seed ~pool ~skew ~n (fun c ->
      L.Atom.make "uses" [ T.Const (Braid_relalg.Value.Str c); T.Var "Y" ])

let university_batch ?seed ~students ~n ~skew () =
  let pool = List.init (max 1 students) (fun i -> Printf.sprintf "s%d" i) in
  batch ?seed ~pool ~skew ~n (fun c ->
      L.Atom.make "eligible" [ T.Const (Braid_relalg.Value.Str c); T.Var "C" ])

let telecom_batch ?(seed = 9) ~orders ~offices ~n () =
  let prng = Prng.create seed in
  List.init n (fun _ ->
      match Prng.int prng 10 with
      | 0 | 1 ->
        let j = Prng.zipf prng ~n:offices ~skew:1.0 in
        L.Atom.make "servable"
          [ T.Const (Braid_relalg.Value.Str (Printf.sprintf "co%d" j)); T.Var "S" ]
      | 2 -> L.Atom.make "reachable_backbone" [ T.Var "CO" ]
      | _ ->
        let k = Prng.zipf prng ~n:orders ~skew:0.8 in
        L.Atom.make "provisionable"
          [ T.Const (Braid_relalg.Value.Str (Printf.sprintf "ord%d" k)) ])
