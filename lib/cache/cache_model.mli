(** The cache model (paper §3/§5.3.2): meta-information about the cache —
    which elements exist, their definitions, state and statistics. The IE
    may query it through the CMS.

    Keeps two indexes. The paper's [(predicate name, cache element)]
    index lists the elements that read a predicate, for invalidation and
    IVM. The form index maps (definition form, atom constants)
    ({!Braid_subsume.Form}) to elements, oldest first: an exact hit is one
    lookup, and a cover is one lookup per assignment of a match plan
    ({!covers}). {!add} and {!remove} maintain both, so journal replay
    rebuilds them. *)

type t

val create : capacity_bytes:int -> t

val capacity_bytes : t -> int

val used_bytes : t -> int
(** The sum of {!Element.bytes_estimate} over the elements: one fold over
    the elements, each read in O(1) (the element keeps its extension's
    byte count), so O(elements), not O(cached tuples). There is no running
    total: a generator's size grows as its consumers pull from it. *)

val tick : t -> int
(** Advances and returns the logical clock. *)

val now : t -> int

val add : t -> Element.t -> unit
(** Raises [Invalid_argument] on duplicate element id. *)

val remove : t -> string -> unit
val find : t -> string -> Element.t option
val elements : t -> Element.t list
(** In insertion order. *)

val find_variant : t -> Braid_subsume.Form.inst -> Element.t option
(** The oldest element whose definition is a variant of the query with
    equal constants ({!Braid_subsume.Form.same}): one lookup of the form
    index. *)

val covers :
  t -> Braid_subsume.Form.inst -> (Element.t * Braid_subsume.Subsumption.cover) list
(** Step 2 of §5.3.2 through the form index: for each definition form
    with elements whose match plan against the query's form is not empty,
    each assignment whose query equalities hold is one lookup of
    (definition form, {!Braid_subsume.Subsumption.def_key}), and each
    element found is checked for the rest (its comparisons) and gives a
    cover. Pairs come in candidate order — the query's predicates sorted,
    each predicate's elements oldest first, an element counted once at its
    first predicate — and each element's covers in search order with
    repeats dropped: exactly {!Braid_subsume.Subsumption.covers} of each
    element of {!candidates_for_pred}, in that order. *)

val candidates_for_pred : t -> string -> Element.t list
(** Elements whose definition mentions the given predicate, oldest first
    (invalidation and IVM's dependents). The index holds the elements
    themselves in that order, so this allocates nothing. *)

val touch : t -> Element.t -> unit
(** Records a use (hit count + LRU clock). *)

val fresh_id : t -> string
(** A cache-unique element identifier (["e1"], ["e2"], ...). *)

val restore : t -> counter:int -> clock:int -> unit
(** Advances the id counter and logical clock to at least the given values
    (never backwards) — used by journal replay so recovered models mint
    fresh ids and timestamps past everything already journaled. *)

type summary = {
  element_count : int;
  materialized : int;
  generators : int;
  total_bytes : int;
  total_hits : int;
}

val summary : t -> summary
