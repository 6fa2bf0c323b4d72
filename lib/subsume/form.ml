module L = Braid_logic
module A = Braid_caql.Ast
module V = Braid_relalg.Value

type slot = int

let is_param s = s < 0
let param s = -s - 1

type t = {
  key : string;
  hash : int;
  id : int;
  atoms : (string * slot array) array;
  head : slot array;
  n_vars : int;
  atom_params : int;
  has_cmps : bool;
  needed : bool array;
  preds : string list;
}

type inst = {
  conj : A.conj;
  form : t;
  consts : V.t array;
  vars : string array;
}

(* The state of one pass: the variables and parameter values met so far,
   in order, and the key being printed. One pass runs at a time. *)
let buf = Buffer.create 128
let names = ref (Array.make 16 "")
let n_names = ref 0
let values = ref (Array.make 16 V.Null)
let n_values = ref 0

let grow a n fill = if n < Array.length !a then () else a := Array.append !a (Array.make n fill)

let slot = function
  | L.Term.Var x ->
    let rec find i =
      if i = !n_names then begin
        grow names i "";
        !names.(i) <- x;
        incr n_names;
        i
      end
      else if String.equal !names.(i) x then i
      else find (i + 1)
    in
    find 0
  | L.Term.Const v ->
    let k = !n_values in
    grow values k V.Null;
    !values.(k) <- v;
    incr n_values;
    -k - 1

let rec add_int n =
  if n >= 10 then add_int (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let add_slot s =
  if is_param s then begin
    Buffer.add_char buf '$';
    add_int (param s)
  end
  else begin
    Buffer.add_char buf 'v';
    add_int s
  end

let add_slots ts =
  List.iteri
    (fun i t ->
      if i > 0 then Buffer.add_char buf ',';
      add_slot (slot t))
    ts

let rec add_expr = function
  | L.Literal.Term t -> add_slot (slot t)
  | L.Literal.Add (a, b) -> bin a '+' b
  | L.Literal.Sub (a, b) -> bin a '-' b
  | L.Literal.Mul (a, b) -> bin a '*' b
  | L.Literal.Div (a, b) -> bin a '/' b

and bin a op b =
  Buffer.add_char buf '(';
  add_expr a;
  Buffer.add_char buf op;
  add_expr b;
  Buffer.add_char buf ')'

let reset () =
  Buffer.clear buf;
  n_names := 0;
  n_values := 0

(* Numbers the conjunct's variables and parameters (see the interface for
   the order) and prints its key; returns the number of atom parameters. *)
let print (c : A.conj) =
  reset ();
  List.iter
    (fun (a : L.Atom.t) ->
      Buffer.add_string buf a.L.Atom.pred;
      Buffer.add_char buf '(';
      add_slots a.L.Atom.args;
      Buffer.add_char buf ')')
    c.A.atoms;
  let atom_params = !n_values in
  Buffer.add_char buf '|';
  add_slots c.A.head;
  Buffer.add_char buf '|';
  List.iter
    (fun (op, a, b) ->
      add_expr a;
      Buffer.add_string buf (L.Literal.cmp_symbol op);
      add_expr b;
      Buffer.add_char buf ';')
    c.A.cmps;
  atom_params

let counter = ref 0

(* The structure of a form not seen recently: the same walk again,
   keeping the slots. *)
let build key atom_params (c : A.conj) =
  reset ();
  let atoms =
    Array.of_list
      (List.map
         (fun (a : L.Atom.t) -> (a.L.Atom.pred, Array.of_list (List.map slot a.L.Atom.args)))
         c.A.atoms)
  in
  let head = Array.of_list (List.map slot c.A.head) in
  let cmp_slots = ref [] in
  let rec expr = function
    | L.Literal.Term t -> cmp_slots := slot t :: !cmp_slots
    | L.Literal.Add (a, b) | L.Literal.Sub (a, b) | L.Literal.Mul (a, b) | L.Literal.Div (a, b) ->
      expr a;
      expr b
  in
  List.iter
    (fun (_, a, b) ->
      expr a;
      expr b)
    c.A.cmps;
  let needed = Array.make !n_names false in
  List.iter
    (fun s -> if not (is_param s) then needed.(s) <- true)
    (Array.to_list head @ !cmp_slots);
  incr counter;
  {
    key;
    hash = Hashtbl.hash key;
    id = !counter;
    atoms;
    head;
    n_vars = !n_names;
    atom_params;
    has_cmps = c.A.cmps <> [];
    needed;
    preds =
      List.sort_uniq String.compare (List.map (fun (a : L.Atom.t) -> a.L.Atom.pred) c.A.atoms);
  }

(* A workload's forms come from its program — rule bodies, advice specs,
   the single atoms it fetches — not from its data: 16, 1 and 10 in the
   three perfbench workloads. 1,024 leaves room for many programs in one
   process, and starting over only costs rebuilding the forms still in
   use. *)
let max_forms = 1024

let interned : (string, t) Hashtbl.t = Hashtbl.create 64

let of_conj (c : A.conj) =
  let atom_params = print c in
  let key = Buffer.contents buf in
  let form =
    match Hashtbl.find_opt interned key with
    | Some f -> f
    | None ->
      let f = build key atom_params c in
      if Hashtbl.length interned >= max_forms then Hashtbl.reset interned;
      Hashtbl.replace interned key f;
      f
  in
  {
    conj = c;
    form;
    consts = Array.sub !values 0 !n_values;
    vars = Array.sub !names 0 !n_names;
  }

let map_atom_consts (i : inst) f =
  let consts = Array.copy i.consts in
  let k = ref 0 in
  let term = function
    | L.Term.Var _ as x -> x
    | L.Term.Const v as c ->
      let j = !k in
      incr k;
      (match f v with
       | Some w ->
         consts.(j) <- w;
         L.Term.Const w
       | None -> c)
  in
  let atoms =
    List.map (fun (a : L.Atom.t) -> { a with L.Atom.args = List.map term a.L.Atom.args }) i.conj.A.atoms
  in
  { i with conj = { i.conj with A.atoms }; consts }

let equal f g = f == g || String.equal f.key g.key

let same a b =
  equal a.form b.form
  &&
  let n = Array.length a.consts in
  let rec go i = i = n || (V.equal a.consts.(i) b.consts.(i) && go (i + 1)) in
  go 0
