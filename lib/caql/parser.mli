(** Textual CAQL syntax (Prolog-flavoured, as in the paper's examples):

    {v
    d2(X, Y) :- b2(X, Z) & b3(Z, c2, Y).
    k(X) :- b(X, N) & N >= 10 & ~excluded(X).
    v}

    - Tokens are {!Grammar}'s, shared with the advice language.
      Identifiers starting with an upper-case letter or [_] are variables;
      lower-case identifiers are symbolic constants, except directly before
      [(] where they are predicate names.
    - Literals: integers, floats (a fraction needs a digit after the [.]),
      ['..'] / ["..."] strings, [true]/[false].
    - Body conjuncts are separated by [&] (or [,]); [~] negates an atom
      (compiled to safe set difference); comparisons use
      [= <> < <= > >=] with [+ - * /] arithmetic.
    - Several clauses with the same head predicate form a union.

    A program is a sequence of clauses, each terminated by [.]. *)

exception Error of string
(** Every lexical and syntax error, a bad numeric literal included; a
    lexical error names its offset. [Braid_advice.Parser.Error] is the
    same exception. *)

val parse_clause : string -> string * Ast.t
(** Parses a single clause; returns the head predicate name and the query
    ([Conj], or [Diff] when the body contains negated atoms). *)

val parse_program : string -> (string * Ast.t) list
(** Parses clauses and groups same-name clauses into unions, preserving
    first-appearance order of names. *)

val parse_query : string -> Ast.t
(** [parse_program] then expects exactly one name; returns its query. *)
