(** The one CAQL reader: the lexer, a token cursor, and the term and body
    grammar. {!Parser} adds clause heads and programs on top of it,
    [Braid_advice.Parser] adds view-specification heads and path
    expressions; neither lexes text itself.

    The token set is CAQL's plus the advice punctuation [[ ] ^ ? |]:
    {ul
    {- identifiers — upper-case or [_]-initial are variables;}
    {- integers and floats — a number takes a fraction only when a digit
       follows the [.], so [N > 30.] ends a clause with the integer 30; an
       integer that does not fit an OCaml [int] raises {!Error} with its
       offset;}
    {- ['..'] and ["..."] strings;}
    {- [( ) [ ] , & ~ . :- + - * / ^ ? |] and the comparisons
       [= <> < <= > >=];}
    {- [%] comments to end of line.}}

    Advice's [=def] is read as [=] followed by the identifier [def], and a
    repetition count [<lo,hi>] uses the ordinary comparison tokens. *)

exception Error of string
(** Every reading error: lexical ones carry their offset. *)

type token =
  | Tident of string
  | Tvar of string
  | Tint of int
  | Tfloat of float
  | Tstring of string
  | Tlparen
  | Trparen
  | Tlbracket
  | Trbracket
  | Tcomma
  | Tamp
  | Ttilde
  | Tdot
  | Tturnstile
  | Tcmp of Braid_relalg.Row_pred.cmp
  | Tplus
  | Tminus
  | Tstar
  | Tslash
  | Tcaret
  | Tquestion
  | Tbar
  | Teof

val error : string -> 'a
(** Raises {!Error}. *)

type state
(** A cursor over the tokens of one text. *)

val of_string : string -> state
val peek : state -> token
val peek2 : state -> token
val advance : state -> unit

val expect : state -> token -> string -> unit
(** Consumes the token or raises {!Error} ["expected " ^ what]. *)

val comma_list : state -> (state -> 'a) -> 'a list
(** One or more items separated by [,]. *)

val parens : state -> (state -> 'a) -> 'a list
(** [( )] around zero or more comma-separated items. *)

val expr : state -> Braid_logic.Literal.expr
(** A term, or [+ - * /] arithmetic over terms with the usual precedence.
    Lower-case identifiers are string constants, [true]/[false] booleans;
    a [-] before a number negates it. *)

val term : state -> Braid_logic.Term.t
(** An {!expr} that must be a plain term. *)

val term_list : state -> Braid_logic.Term.t list
(** [parens] of terms: an atom's or a pattern's arguments. *)

type conjunct =
  | Atom of Braid_logic.Atom.t
  | Neg of Braid_logic.Atom.t  (** [~p(...)] *)
  | Cmp of Ast.comparison

val body : state -> conjunct list
(** One or more conjuncts separated by [&] or [,]. *)
