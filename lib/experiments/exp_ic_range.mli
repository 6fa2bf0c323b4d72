(** E6 — §2's central claim: "it is simply not the case that more fully
    compiled systems are always preferable".

    The same AI queries are solved at four points of the
    interpreted–compiled range (interpretive, conjunction compilation of 2
    and 4, set-oriented) under two demand patterns: only the first
    solution wanted, and all solutions wanted. The crossover: interpretive
    wins when few solutions are demanded (lazy, tuple-at-a-time); the
    compiled end amortizes requests when everything is needed — and wastes
    transfer when it is not. *)

type row = {
  strategy : string;
  demand : string;
  requests : int;
  tuples_moved : int;
  total_ms : float;
}

val run : ?persons:int -> ?queries:int -> unit -> row list * Table.t
