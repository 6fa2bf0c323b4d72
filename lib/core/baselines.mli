(** The coupling disciplines BrAID is compared against (paper §1's survey
    and §2's discussion of earlier Prolog–DBMS efforts), as ready-made
    configurations for {!System.build}. *)

type named = {
  label : string;
  description : string;
  config : Braid_planner.Qpo.config;
}

val loose_coupling : named
(** KEE-Connection / EDUCE style: a thin interface, every database goal is
    one remote request, nothing is reused. *)

val bermuda : named
(** BERMUDA [IOAN88]: query results are cached but "the data is reused only
    if an exact match of a later query occurs". *)

val ceri : named
(** [CERI86]: caching of single-relation extensions inside the interface. *)

val braid_no_advice : named
(** BrAID's subsumption caching with the advice-driven features (prefetch,
    generalization, pinning, indexing) disabled — isolates subsumption. *)

val braid : named
(** The full system. *)

val all : named list
(** In the order above — weakest coupling first. *)

val of_label : string -> (named, string) result
(** The entry of {!all} with this label; [Error] carries a one-line
    message naming the accepted labels. Shared by the CLI's [--system]
    and the REPL's [:system]. *)
