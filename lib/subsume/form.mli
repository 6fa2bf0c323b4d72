(** The form of a conjunct: its shape with the variables numbered and the
    constants lifted out as numbered parameters (paper §5.3.2's queries
    "differ only in their constants").

    The queries an IE goal form issues, the cache elements they leave and
    the advice specs they instantiate share a handful of forms, so what
    §5.3.2's search finds for a pair of forms is computed once
    ({!Subsumption.plan}) and every later pair of the same forms only
    checks constants.

    {b Numbering.} Variables are numbered [0, 1, ...] and parameters
    [0, 1, ...] in the order they are met reading the atoms' arguments left
    to right, then the head, then each comparison's left operand before
    its right (inside an arithmetic expression, left first). So the
    parameters [0 .. atom_params - 1] are the atoms' constants, the ones
    atom matching pins down; the head's and the comparisons' come after.
    Every constant occurrence is its own parameter, even when two are
    equal. *)

type slot = int
(** A term position of a form: [s >= 0] is variable [s]; [s < 0] is
    parameter [-s - 1]. *)

val is_param : slot -> bool
val param : slot -> int
(** The parameter number of a parameter slot. *)

type t = private {
  key : string;
      (** the form printed; two conjuncts have the same form iff their
          keys are equal *)
  hash : int;  (** [Hashtbl.hash key] *)
  id : int;  (** unique per form record, for memo tables *)
  atoms : (string * slot array) array;  (** predicate and argument slots *)
  head : slot array;
  n_vars : int;
  atom_params : int;
  has_cmps : bool;
  needed : bool array;
      (** per variable: it occurs in the head or in a comparison *)
  preds : string list;  (** the atoms' predicates, sorted, each once *)
}

type inst = private {
  conj : Braid_caql.Ast.conj;
  form : t;
  consts : Braid_relalg.Value.t array;  (** the parameters' values *)
  vars : string array;  (** the variables' names *)
}
(** A conjunct as its form and the values that instantiate it. *)

val of_conj : Braid_caql.Ast.conj -> inst
(** One pass over the conjunct. Forms are interned: a conjunct whose form
    was seen recently gets the same record, and its parameter and variable
    arrays are all the pass allocates besides the key. The intern table
    holds at most 1,024 forms and starts over when full; nothing
    depends on a record's identity, only on its key. The pass's scratch
    state and the table are process-global and unsynchronised: call it
    from one domain at a time. *)

val map_atom_consts : inst -> (Braid_relalg.Value.t -> Braid_relalg.Value.t option) -> inst
(** [map_atom_consts i f] replaces each constant [v] of [i]'s atoms for
    which [f v = Some w] by [w], in the conjunct and in its parameter, and
    keeps the rest. It is [of_conj] of the new conjunct without a pass:
    every constant occurrence is its own parameter, so the form stays. *)

val equal : t -> t -> bool
(** Same key. *)

val same : inst -> inst -> bool
(** Exact reuse ({!Braid_caql.Ast.variant_equal}'s test, on values): the
    same form and pairwise [Value.equal] parameters. *)
