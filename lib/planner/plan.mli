(** Plans: the partially ordered set of subqueries the QPO produces
    (paper §5: "a program consisting of a partially ordered set of
    subqueries where each subquery is designated for execution by either
    the Cache Manager or by the remote DBMS").

    The executed plan is reported alongside every answer so examples,
    tests and experiments can observe {e how} a query was satisfied. *)

(** Why a remote part of the plan is degraded, with the failure that
    caused it ({!Braid_remote.Rdi.failure_to_string} prints it). *)
type degraded_source =
  | Stale_subset of Braid_remote.Rdi.failure
      (** an honest subset of the truth from the shard router: a lagging
          replica's answer, or a scatter merge missing some slices *)
  | Unavailable of Braid_remote.Rdi.failure
      (** the remote failed: the answer for this part is explicitly
          empty *)

type step =
  | Exact_hit of { element : string }
      (** answered by a cached result with a variant-equal definition *)
  | Use_element of { element : string; covered_atoms : int list }
      (** subsumption-derived reuse of a cached view *)
  | Ship_subquery of { sql : string; cached_as : string option }
      (** a multi-relation subquery executed by the remote DBMS *)
  | Remote_fetch of { sql : string; cached_as : string option }
      (** a single-relation fetch from the remote DBMS *)
  | Local_eval of { touched : int }
      (** Cache Manager / Query Processor work on the rewritten query *)
  | Lazy_answer
      (** the result is a generator; tuples are produced on demand *)
  | Generalized of { spec : string; element : string }
      (** QPO step 1 chose to evaluate a generalization of the IE-query *)
  | Prefetch of { spec : string; element : string }
      (** a predicted-next query was materialized ahead of its arrival *)
  | Index_built of { element : string; columns : int list }
  | Degraded_serve of { sql : string; source : degraded_source }
      (** the remote could not answer this subquery fully: a subset or an
          empty answer stands in for it *)
  | Stale_elements of { touched : int }
      (** the local evaluation read cache elements marked stale (kept
          through an invalidation instead of dropped) *)

type t = step list

type provenance = Fresh | Degraded

val provenance_to_string : provenance -> string

val pp_step : Format.formatter -> step -> unit
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val used_remote : t -> bool
val fully_from_cache : t -> bool
(** No remote interaction was needed for the query itself (prefetches and
    generalizations are counted separately). *)

val provenance : t -> provenance
