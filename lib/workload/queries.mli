(** Query batches with locality: repeated and overlapping AI queries are
    what makes caching (and especially subsumption-based reuse) pay off. *)

val constants_with_locality :
  Prng.t -> pool:string list -> skew:float -> n:int -> string list
(** [n] constants drawn Zipf-distributed from the pool: higher [skew] means
    more repetition of the popular constants. *)

val ancestor_batch :
  ?seed:int -> persons:int -> n:int -> skew:float -> unit -> Braid_logic.Atom.t list
(** Queries [ancestor(p_i, Y)] with Zipf-chosen [p_i] (low-numbered people,
    who actually have descendants). *)

val bom_batch :
  ?seed:int -> parts:int -> n:int -> skew:float -> unit -> Braid_logic.Atom.t list
(** Queries [uses(part_i, Y)]. *)

val university_batch :
  ?seed:int -> students:int -> n:int -> skew:float -> unit -> Braid_logic.Atom.t list
(** Queries [eligible(s_i, C)]. *)

val telecom_batch :
  ?seed:int -> orders:int -> offices:int -> n:int -> unit -> Braid_logic.Atom.t list
(** A provisioning session: mostly ground [provisionable(ord_i)] checks
    with interleaved [servable(co_j, S)] lookups and occasional
    [reachable_backbone(CO)] sweeps — the mixed, repetitive load of an
    expert-system front end. *)
