(** The advice language (paper §4.2): view specifications and path
    expressions, the two kinds of problem-specific information the IE gives
    the CMS ahead of a session.

    A {b view specification} [d_i(...) =def c_j(...) & ... & c_n(...)
    (Rj,...,Rk)] names a conjunction the IE will instantiate as CAQL
    queries; its parameters carry {b binding annotations}: [X^] (producer —
    the query will have a free variable there; advice {e against} indexing)
    and [Y?] (consumer — the query will supply a constant there; a prime
    candidate for indexing, §4.2.1).

    A {b path expression} abstracts the CAQL query sequence of a session:
    query patterns, sequences [( ... )^<lo,hi>] with repetition counts whose
    upper bound may be symbolic ([|Y|]), and alternations [[ ... ]^s] with an
    optional selection term (§4.2.2). *)

type binding =
  | Producer  (** [^] — executing the query produces bindings *)
  | Consumer  (** [?] — the query will carry a constant here *)

type view_spec = {
  id : string;
  def : Braid_caql.Ast.conj;
      (** the defining conjunction; [def.head] lists the parameters *)
  bindings : binding list;  (** one per head position *)
  rule_ids : string list;  (** provenance, "for human consumption" *)
}

type repetition = { lo : int; hi : bound }

and bound =
  | Fin of int
  | Cardinality of string  (** [|Y|]: the number of bindings produced for Y *)
  | Inf

type path =
  | Pattern of string * Braid_logic.Term.t list
      (** a query pattern [d_i(T1,...,Tn)] *)
  | Seq of path list * repetition
  | Alt of path list * int option  (** members with optional selection term *)

type t = { specs : view_spec list; path : path option }

val spec : ?rule_ids:string list -> id:string -> bindings:binding list ->
  Braid_caql.Ast.conj -> view_spec
(** Raises [Invalid_argument] when [bindings] and the head disagree in
    length. *)

val find_spec : t -> string -> view_spec option

val consumer_positions : view_spec -> int list
(** Head positions annotated [?] — the indexing recommendations. *)

val producer_only : view_spec -> bool
(** No consumer annotation anywhere: the relation is "strictly a producer
    relation", best produced lazily and without indexing (§4.2.1). *)

val pattern_ids : path -> string list
(** All spec ids mentioned, without duplicates. *)

val pp_path : Format.formatter -> path -> unit

val pp : Format.formatter -> t -> unit
(** Prints the syntax [Braid_advice.Parser.parse] reads, one clause per
    line, each spec's rule ids in a trailing [%] comment. *)
