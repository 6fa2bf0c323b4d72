(** The serving layer's overlapping-view workload: the paper-example
    tables of {!Braid_workload.Datagen.paper_example}, with a deliberately
    narrow parameter space, so that within one scheduling wave
    independent sessions keep asking identical or subsumed variants of
    the same small view family — the workload shape the fetch coalescer
    and the cache's subsumption exist for (K sessions, overlapping views,
    one remote round trip). *)

val load : Braid_remote.Server.t -> unit
(** Loads the paper-example tables ([b1]/[b2]/[b3]) into the server. *)

val partition_keys : (string * int) list
(** Hash-partition column per table for sharded runs: [b1]/[b2] on column
    0 (the columns the selection shapes pin), [b3] on its y column — so
    the six query shapes exercise pinned, fanned-out, and gather routes. *)

val partition : Braid_remote.Server.t -> unit
(** Records {!partition_keys} in the server's catalog (call between
    {!load} and {!Braid_remote.Shard_router.create}). *)

val gen_query : Braid_prng.Prng.t -> Braid_caql.Ast.conj
(** One seeded query from the six-shape family (selections, joins, a
    three-way chain). Constants are drawn from small pools so repeats and
    subsumed pairs — e.g. all of [b2] vs a selection of [b2] — are
    frequent across sessions. *)

val recursive_kb : unit -> Braid_logic.Kb.t
(** The recursive-goal leg's knowledge base over the same tables:
    [zlink(X,Y) <- b3(X,C,W), b1(Y,W)] (z-to-z edges via the shared
    y-key) and [zreach] its transitive closure — a fixpoint the CMS alone
    cannot answer, so goal jobs exercise the set-oriented IE tier under
    the scheduler. *)

val gen_goal : Braid_prng.Prng.t -> Braid_logic.Atom.t
(** One seeded goal [zreach(z_k, Y)] with the bound z-key drawn from a
    small pool (repeats across sessions are frequent). *)

val specialize :
  Braid_prng.Prng.t -> Braid_caql.Ast.conj -> Braid_caql.Ast.conj option
(** [specialize prng q] is a strictly narrower variant of [q] when the
    shape family has one (all of [b2] narrows to one x-key), [None]
    otherwise. Waves that pair a broad hot query with its specialization
    exercise the cache's subsumption reuse. *)

type write_stream
(** Mutable history of the rows {!gen_write} has inserted and not yet
    deleted — the pool its deletes draw from, so every delete names a row
    the remote really holds. *)

val new_write_stream : unit -> write_stream

val gen_write :
  Braid_prng.Prng.t -> write_stream -> Braid.Cms.t -> [ `Insert | `Delete ]
(** One write on the CMS write path ({!Braid.Cms.apply_insert} /
    {!Braid.Cms.apply_delete}): ~70% inserts drawn from {!gen_insert}'s
    value pools, ~30% deletes of a previously inserted row. Cache
    propagation is whatever the CMS is configured for — delta maintenance
    when it was created with [~maintain:true], stale-marking/dropping
    otherwise — so the same seeded stream drives both arms of E18. *)

val gen_insert : Braid_prng.Prng.t -> Braid.Cms.t -> [ `Drop | `Mark_stale ]
(** A single-tuple insert into one base table followed by the matching
    cache invalidation, randomly dropping or stale-marking dependents.
    The row goes through the CMS's router
    ({!Braid_remote.Shard_router.insert}: coordinator, then the owning
    shard's copies), so a CMS created with [~maintain:true] also
    delta-maintains it before the invalidation. *)
