(** The complete experiment suite (see DESIGN.md §5 and EXPERIMENTS.md). *)

val id_range : string
(** ["e1..eN"], the first and last experiment ids, for usage messages. *)

val run_all : ?seed:int -> unit -> unit
(** Runs every experiment and prints its table. *)

val run_one : ?seed:int -> string -> bool
(** Runs the experiment with the given id (e.g. ["e5"]); false if the id is
    unknown. *)
