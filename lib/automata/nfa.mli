(** Nondeterministic finite automata with ε-transitions.

    Built from regexes by Thompson's construction; simulated by ε-closure
    subset stepping.  This is the classical one-way, one-tape device the
    paper generalises to k-FSAs. *)

type t = {
  num_states : int;  (** states are [0 .. num_states-1]. *)
  start : int;
  finals : int list;  (** accepting states, duplicate-free. *)
  edges : (int * char option * int) list;
      (** [(p, Some c, q)] consumes [c]; [(p, None, q)] is an ε-move. *)
}

val of_regex : Regex.t -> t
(** Thompson's construction: one start, one final, ε-transitions allowed. *)

val accepts : t -> string -> bool
(** Subset simulation with ε-closure. *)

val reachable : t -> int list
(** States reachable from the start (sorted). *)

val size : t -> int
(** Number of transitions, the paper's |A| measure. *)
