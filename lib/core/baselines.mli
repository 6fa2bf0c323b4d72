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

val braid : named
(** The full system. *)

val all : named list
(** Weakest coupling first: loose coupling, BERMUDA, CERI86-style caching
    of single-relation extensions (label ["ceri"]), BrAID's subsumption
    caching with the advice-driven features off (["braid-sub"]), and the
    full system. *)

val of_label : string -> (named, string) result
(** The entry of {!all} with this label; [Error] carries a one-line
    message naming the accepted labels. Shared by the CLI's [--system]
    and the REPL's [:system]. *)
