(** E11 (extension) — §2's proposal: "we propose to use second-order
    templates along with specialized operators (e.g., a fixed point
    operator) to alleviate much of this mismatch".

    Three ways to compute an ancestor closure are compared: the
    interpretive IE (one CAQL query per subgoal), the set-oriented IE
    (fetch base components, fixpoint on the workstation), and a single CAQL
    [Fixpoint] DAP evaluated by the CMS itself. The fixpoint template gets
    the compiled strategy's round-trip economy without IE-side machinery —
    the complex-DAP mismatch moves into the interface, as proposed. *)

type row = {
  approach : string;
  requests : int;
  tuples_moved : int;
  caql_queries : int;
  total_ms : float;
}

val run : ?persons:int -> unit -> row list * Table.t
