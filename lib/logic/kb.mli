(** The knowledge base controlled by the IE (§3: "the IE controls the
    knowledge base"): rules over derived relations, declarations of which
    predicates are database (base) relations, and second-order assertions. *)

type t

val create : unit -> t

val declare_base : t -> string -> arity:int -> unit
(** Declares a predicate as a database relation (resolved via the CMS).
    Raises [Invalid_argument] if already declared with another arity or
    already defined by rules. *)

val add_rule : t -> Rule.t -> unit
(** Raises [Invalid_argument] if the head predicate is declared base or the
    rule id is already used. *)

val add_soa : t -> Soa.t -> unit

val generation : t -> int
(** Bumped by every {!declare_base}, {!add_rule} and {!add_soa}: work
    derived from the knowledge base stays valid while it is unchanged. *)

val is_base : t -> string -> bool
val is_derived : t -> string -> bool
val base_arity : t -> string -> int option

val rules_for : t -> string -> Rule.t list
(** Rules whose head predicate is the given one, in insertion order. *)

val all_rules : t -> Rule.t list
val constants : t -> Braid_relalg.Value.t list
(** Every constant written in a rule (heads, body atoms and comparisons),
    without structural duplicates (values that are equal but written
    differently, such as [Int 100000000] and [Float 1e8], both stay). *)

val rule_by_id : t -> string -> Rule.t option

val mutually_exclusive : t -> string -> string -> bool
(** Symmetric lookup of mutual-exclusion SOAs. *)

val functional_dependencies : t -> string -> Soa.t list
val recursive_preds : t -> string list
(** Predicates that (transitively) depend on themselves through rules. *)

val base_preds_reachable : t -> Atom.t -> string list
(** All base predicates reachable from the query's predicate through rules —
    the paper's "simplest kind of advice" (§4.2). *)

type lint =
  | Unsafe_rule of { rule_id : string; variable : string }
      (** a head or comparison variable not bound by any body relation *)
  | Undefined_predicate of { rule_id : string; pred : string }
      (** a body relation that is neither base nor defined by rules *)
  | Unreachable_rule of { rule_id : string }
      (** no rule chain links it to any other rule or declared relation —
          usually a typo in a predicate name *)
  | Mutex_same_pred of string  (** mutual exclusion of a predicate with itself *)

val lint : t -> lint list
(** Static checks a production knowledge base should pass; an empty list
    means clean. [Undefined_predicate] findings are what Prolog would
    silently fail on. *)

val pp_lint : Format.formatter -> lint -> unit

val pp : Format.formatter -> t -> unit
