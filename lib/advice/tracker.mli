(** Path expression tracking (paper §4.2.2: "the CMS must be able to keep
    track of the path expression element to which a given CAQL query
    corresponds. Path expression tracking is crucial if path expressions
    are to be of any use to the CMS").

    The path expression is compiled to an NFA over spec-id labels, and the
    tracker runs the DFA of that NFA: each DFA state is the set of NFA
    states compatible with the queries observed so far, closed under
    epsilon edges. It answers the two questions cache management needs:
    {e what may come next} (prefetching) and {e what may still be needed}
    (replacement pinning — the [d1] example at the end of §4.2.2).

    The DFA is built lazily by subset construction and kept on the [nfa]:
    a DFA state is interned by its set of NFA states, and memoises its
    successor per spec id, its {!next_possible} list and {!may_occur_later}
    per id. Every tracker started on one [nfa] shares them, so once a
    path's states have been visited, {!advance} is a hash lookup. At most
    {!max_dfa_states} states are interned per [nfa]; past that, a state
    outside the table is computed afresh on each visit and memoises
    nothing. The answers never depend on what was memoised.

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
    whether some current state reaches an edge labeled with it. *)

val states : t -> int list
(** The NFA states the tracker is in (its DFA state), ascending. *)

val successors : nfa -> int -> (string option * int) list
(** The edges out of an NFA state: [(None, dst)] for an epsilon edge,
    [(Some id, dst)] for one labeled with a spec id, each kind in the
    order {!next_possible} reads them. With {!states} and the three below
    this lets a test walk the automaton itself. *)

val nfa_states : nfa -> int
(** The NFA's states are [0 .. nfa_states - 1]. *)

val initial_state : nfa -> int
val final_state : nfa -> int

val finished : t -> bool
(** Whether the session may be complete at this point. *)

val max_dfa_states : int
(** How many DFA states one [nfa] interns at most. *)

val dfa_states : nfa -> int
(** How many DFA states the [nfa] has interned so far. *)
