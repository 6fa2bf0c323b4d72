(** Compiled join plans: the CMS's local join executor.

    {!Eval.conj}, IVM deltas ([Braid_cache.Maintain]) and every rule of
    the set-oriented fixpoint ([Braid_ie.Datalog]) compile their
    conjunction to a plan and run it over numbered {e inputs}, relations
    the caller supplies per run. A constant equal to one of the
    compiler's [params] reads the run's arguments, so a plan depends on
    the conjunction's form and serves every instance of it. Lazy answers
    do not run here: {!Eval.lazy_conj}, behind the QPO's generators, is
    still tuple-at-a-time, and on [telecom_session] lazy answers are most
    of the QPO's answers.

    A plan starts from its [lead] atom (else the first atom), then takes
    the first remaining atom that shares a bound variable, or else the
    first remaining one (a product). The lead is scanned: all of its input
    or, with [range], its rows from [lo] up to [hi] (exclusive) that the
    run points it at (a semi-naive delta). Every later atom with a bound
    column (a bound variable or a constant) is probed through an index on
    exactly those columns; one with none is scanned. Bindings live in one slot array;
    constants, repeated variables and comparisons are checked as soon as
    they are bound, and head tuples go straight to the run's [emit], with
    no intermediate relation. A one-atom plan whose head names the atom's
    columns in order emits the rows it reads, sharing them. The join order
    moves only the order of the emitted bag.

    A run gets an index on first probe and keeps it: one the input's
    provider keeps (a cache element's own) is probed in place, any other
    is built and kept current as {!add} grows its input. A probe walks its
    bucket with {!Braid_relalg.Index}'s cursor and allocates nothing. *)

exception Unsafe of string
(** Raised by {!compile} when a head or comparison variable is bound by no
    atom. *)

type t

type compiler
(** What plans compiled together share: the parameters, the indexes their
    probes need and the size of the binding array. One run serves every
    plan of its compiler. *)

val compiler : ?params:Braid_relalg.Value.t array -> unit -> compiler

val compile :
  compiler ->
  ?lead:int ->
  ?range:bool ->
  target:int ->
  head:Braid_logic.Term.t list ->
  atoms:(int * Braid_logic.Atom.t) list ->
  cmps:(Braid_relalg.Row_pred.cmp * Braid_logic.Literal.expr * Braid_logic.Literal.expr) list ->
  unit ->
  t
(** The plan deriving [head] from [atoms], each paired with the input it
    reads, and [cmps]. [lead] is the position of the atom read first;
    [range] makes it read its input's range. [target] goes to [emit] with
    every head tuple. *)

type run

val start :
  compiler ->
  rels:Braid_relalg.Relation.t array ->
  ?providers:(int list -> Braid_relalg.Index.t option) array ->
  ?ranges:int array * int array ->
  ?args:Braid_relalg.Value.t array ->
  emit:(int -> Braid_relalg.Tuple.t -> unit) ->
  unit ->
  run
(** A run over [rels], one relation per input. [providers.(i) cols] is the
    index on [cols] that something already keeps over exactly input [i]'s
    rows, in order, if any. [ranges] are the arrays [(lo, hi)], per input,
    that a range lead reads when its plan executes. [args] fill the
    parameters. *)

val execute : run -> t -> unit
(** Calls [emit target tuple] for each tuple of the plan's bag. *)

val add : run -> int -> Braid_relalg.Tuple.t -> unit
(** Appends a tuple to an input's relation and to the indexes the run has
    built over it. *)
