(** Concrete syntax for the advice language, matching the paper's notation:

    {v
    d1(Y^) =def b1(c1, Y).
    d2(X^, Y?) =def b2(X, Z) & b3(Z, c2, Y).
    path (d1(Y), (d2(X, Y), d3(X, Y))<0,|Y|>)<1,1>.
    v}

    - Spec parameters are variables annotated [^] (producer) or [?]
      (consumer); constants may appear directly in the defining conjuncts.
    - Tokens are CAQL's ({!Braid_caql.Grammar}): [=def] is [=] followed
      by the identifier [def], so [=defb1(...)] does not parse.
    - A body is a CAQL body without negation: atoms and comparisons
      ([X < 5], [Y <> c2], [X + 1 < Y]) separated by [&] or [,]. Literals
      are read as in CAQL: negative and float numbers, [true]/[false] as
      booleans.
    - A sequence [( ... )] takes an optional repetition count [<lo,hi>]
      (default [<1,1>]) whose upper bound is an integer, [*] (unbounded) or
      [|Y|] (the cardinality of Y's bindings); an alternation [[ ... ]]
      takes an optional selection term [^k].
    - Clauses end with [.]; [%] starts a comment; at most one [path]
      clause. *)

exception Error of string
(** The same exception as {!Braid_caql.Parser.Error}. *)

val parse : string -> Ast.t
(** Parses a whole advice set (spec clauses + optional path clause). *)

val parse_path : string -> Ast.path
(** Parses a bare path expression (no [path] keyword, no final dot). *)
