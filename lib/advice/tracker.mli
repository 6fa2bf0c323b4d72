(** Path expression tracking (paper §4.2.2: "the CMS must be able to keep
    track of the path expression element to which a given CAQL query
    corresponds. Path expression tracking is crucial if path expressions
    are to be of any use to the CMS").

    The path expression is compiled to an NFA over spec-id labels; the
    tracker maintains the set of states compatible with the queries
    observed so far and answers the two questions cache management needs:
    {e what may come next} (prefetching) and {e what may still be needed}
    (replacement pinning — the [d1] example at the end of §4.2.2).

    Repetition counts are abstracted to zero/one/many, and an alternation
    with selection term [k > 1] (or none) may repeat — a sound
    over-approximation for prediction. *)

type nfa

val compile : Ast.path -> nfa

type t

val start : nfa -> t

val advance : t -> string -> bool
(** Observe a query against the given spec id. Returns [false] when the id
    was not among the expected ones; the tracker then becomes permissive
    (all states) rather than useless. *)

val lost : t -> bool
(** Whether an unexpected query has been observed. *)

val next_possible : t -> string list
(** Spec ids that may label the very next query. *)

val may_occur_later : t -> string -> bool
(** Whether the spec id can still appear in the remainder of the session:
    whether some current state reaches an edge labeled with it. The set of
    labels reachable from each NFA state is computed once per compiled
    NFA, so a call is a lookup per current state. *)

val states : t -> int list
(** The NFA states the tracker is in, ascending. *)

val successors : nfa -> int -> (string option * int) list
(** The edges out of an NFA state: [(None, dst)] for an epsilon edge,
    [(Some id, dst)] for one labeled with a spec id. With {!states} this
    lets a test walk the automaton itself. *)

val finished : t -> bool
(** Whether the session may be complete at this point. *)
