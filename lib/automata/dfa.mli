(** Deterministic finite automata over an explicit alphabet.

    Total transition function (a sink state is materialised by the subset
    construction), Moore minimisation, product constructions and language
    equivalence with counterexample extraction.  The DFA layer is the
    independent referee for Theorem 6.1: both directions of the theorem are
    tested by compiling to DFAs and checking equivalence. *)

type t = {
  sigma : Strdb_util.Alphabet.t;
  num_states : int;  (** states are [0 .. num_states-1]. *)
  start : int;
  finals : bool array;  (** [finals.(q)] = is [q] accepting. *)
  delta : int array array;
      (** [delta.(q).(r)] is the successor of [q] on the character of rank
          [r]; total. *)
}

val determinize : max_states:int -> Strdb_util.Alphabet.t -> Nfa.t -> t option
(** Subset construction restricted to the given alphabet, or [None] when
    it needs more than [max_states] states.  Subsets are bitsets: a
    subset's successors are the word-wise union of its members' ε-closed
    successor rows, each built once.  Subsets leave out states that
    neither read a character nor accept, and one that contains a
    universal NFA state (final, with a self-loop on every character) is
    that state alone, so all such subsets share one accepting sink. *)

val of_nfa : Strdb_util.Alphabet.t -> Nfa.t -> t
(** {!determinize} without a budget. *)

val of_regex : Strdb_util.Alphabet.t -> Regex.t -> t
(** [of_nfa] of the Thompson NFA. *)

val accepts : t -> string -> bool
(** Run the DFA; characters outside the alphabet raise [Not_found]. *)

val minimize : t -> t
(** Moore partition refinement on the reachable part. *)

val complement : t -> t
(** Accepts exactly the strings the input rejects. *)

val inter : t -> t -> t
(** Product automaton for intersection; alphabets must be equal. *)

val union : t -> t -> t
(** Product automaton for union; alphabets must be equal. *)

val is_empty : t -> bool
(** Is the accepted language empty? *)

val some_word : t -> string option
(** A shortest accepted word, if any. *)

val equal : t -> t -> bool
(** Language equality (via symmetric-difference emptiness). *)

val difference_witness : t -> t -> string option
(** A shortest word accepted by exactly one of the two automata, if the
    languages differ; [None] when equivalent. *)

val num_reachable : t -> int
(** Number of reachable states. *)
