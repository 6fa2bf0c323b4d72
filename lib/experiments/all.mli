(** The complete experiment suite (see DESIGN.md §5 and EXPERIMENTS.md). *)

val experiments : (string * (?seed:int -> unit -> Table.t)) list
(** [(id, run)] pairs in id order, at full benchmark scale. [seed]
    overrides the default PRNG seed for the experiments that take one;
    the others ignore it. *)

val id_range : string
(** ["e1..eN"], the first and last id of {!experiments}, for usage
    messages. *)

val run_all : ?seed:int -> unit -> unit
(** Runs every experiment and prints its table. *)

val run_one : ?seed:int -> string -> bool
(** Runs the experiment with the given id (e.g. ["e5"]); false if the id is
    unknown. *)
