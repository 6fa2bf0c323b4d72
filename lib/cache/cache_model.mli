(** The cache model (paper §3/§5.3.2): meta-information about the cache —
    which elements exist, their definitions, state and statistics. The IE
    may query it through the CMS.

    Keeps the paper's [(predicate name, cache element)] index used to
    expedite subsumption candidate lookup, and a variant-key index
    ({!Braid_caql.Ast.variant_key}) that makes exact-match lookup a hash
    probe. {!add} and {!remove} maintain both, so journal replay rebuilds
    them. *)

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

val find_variant : t -> string -> Element.t option
(** [find_variant t (Braid_caql.Ast.variant_key q)] is the oldest element
    whose definition is a variant of [q]. *)

val candidates_for_pred : t -> string -> Element.t list
(** Elements whose definition mentions the given predicate, oldest first —
    the candidates of the §5.3.2 algorithm. The index holds the elements
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
