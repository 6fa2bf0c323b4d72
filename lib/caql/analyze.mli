(** Static analysis of CAQL queries: safety, binding patterns, result
    schemas. *)

val is_safe_conj : Ast.conj -> bool
(** Every head variable and every comparison variable occurs in some
    relation occurrence (range-restriction). *)

val is_safe : Ast.t -> bool
(** [is_safe_conj] recursively; [Diff] additionally requires equal arity. *)

val binding_pattern : Ast.conj -> [ `Bound | `Free ] list
(** Per head position: [`Bound] for a constant, [`Free] for a variable —
    the consumer/producer distinction of advice annotations (§4.2.1). *)

val schema_of_conj :
  (string -> Braid_relalg.Schema.t option) -> Ast.conj -> Braid_relalg.Schema.t
(** Result schema for a conjunctive query: attribute names from head
    variable names (constants become [k0], [k1], ...; a repeated variable
    is primed), types resolved from the base schemas when possible,
    defaulting to [str]. *)

val schema_of :
  (string -> Braid_relalg.Schema.t option) -> Ast.t -> Braid_relalg.Schema.t

