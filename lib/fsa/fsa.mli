(** Multitape two-way nondeterministic finite state acceptors (k-FSAs).

    The paper's Section 3 device: a k-FSA [A = (Q, s, F, T)] has a finite
    state set, a start state, final states, and a transition relation over
    [(Q × (Σ ∪ {⊢,⊣})ᵏ) × (Q × {-1,0,+1}ᵏ)], restricted so that no head
    ever leaves the endmarked tape area.  k-FSAs are the computational
    counterpart of string formulae (Theorems 3.1/3.2) and the selection
    devices of alignment algebra (Section 4). *)

type transition = {
  src : int;  (** source state. *)
  read : Symbol.t array;  (** symbol required under each head; length k. *)
  dst : int;  (** destination state. *)
  moves : int array;  (** per-tape head movement, each in [{-1,0,+1}]. *)
}

type t = private {
  sigma : Strdb_util.Alphabet.t;
  arity : int;  (** number of tapes, k. *)
  num_states : int;  (** states are [0 .. num_states-1]. *)
  start : int;
  finals : bool array;  (** [finals.(q)] = is state [q] final. *)
  transitions : transition array;
  by_src : int list array;  (** transition indices grouped by source state. *)
}

exception Ill_formed of string
(** Raised by {!make} when the description violates the k-FSA well-formedness
    rules (arity mismatches, out-of-range states or moves, or a transition
    that walks a head off an endmarker). *)

val make :
  sigma:Strdb_util.Alphabet.t ->
  arity:int ->
  num_states:int ->
  start:int ->
  finals:int list ->
  transitions:transition list ->
  t
(** Validates and builds a k-FSA.  The endmarker restriction of the paper is
    enforced: a transition reading [⊢] on tape [i] must not move head [i]
    left, and one reading [⊣] must not move it right.
    @raise Ill_formed when a rule is violated. *)

val transition :
  src:int -> read:Symbol.t list -> dst:int -> moves:int list -> transition
(** Convenience constructor taking lists. *)

val size : t -> int
(** |A|: the number of transitions (the size measure of Section 3). *)

val size_hash : t -> int
(** A hash of the state, transition and tape counts: the hash of the
    memos keyed on an automaton's physical identity. *)

val is_final : t -> int -> bool
(** Is the state final? *)

val finals_list : t -> int list
(** The final states, ascending. *)

val outgoing : t -> int -> transition list
(** All transitions leaving a state. *)

val is_stationary : transition -> bool
(** No head moves — the FSA counterpart of an ε-transition. *)

val tape_bidirectional : t -> int -> bool
(** [tape_bidirectional a i] holds when some transition moves head [i]
    left; otherwise the tape is unidirectional (Section 3). *)

val bidirectional_tapes : t -> int list
(** The bidirectional tapes, ascending. *)

val is_right_restricted : t -> bool
(** At most one tape is bidirectional — the decidable subclass of the
    safety analysis (Sections 2 and 5). *)

val disregard : t -> int -> t
(** [disregard a l] retains tape [l] but pins its head to the left
    endmarker: every transition now reads [⊢] on tape [l] and does not move
    it, so the tape's contents are never examined (Section 3's tape
    disregarding). *)

val useful_states : t -> bool array
(** [useful_states a] marks states both reachable from the start and able to
    reach a final state in the transition graph. *)

val trim : t -> t
(** Restrict to useful states (the start state is always kept, possibly as a
    lone rejecting state when the language is empty), preserving the
    accepted language under halting acceptance.  A transition from a
    final state into a useless state is what keeps that final state from
    halting, so it is redirected to one rejecting sink state, numbered
    last and added only when some transition needs it; every other
    transition into a useless state is dropped.  The sink replaces at
    least one dropped state, so trimming never adds states or
    transitions. *)

val reverse_reachable : t -> bool array
(** States from which some final state is reachable in the transition
    graph. *)

val union_states : t -> t -> t * int * (int -> int)
(** [union_states a b] puts [b]'s states after [a]'s in a single automaton
    with [a]'s start and no finals merged: returns the combined automaton
    (start = [a.start], finals = both), the offset added to [b]'s states, and
    the renumbering function for [b].  Building block for compilers; both
    automata must share [sigma] and [arity]. *)

val map_states : t -> num_states:int -> f:(int -> int) -> start:int -> finals:int list -> t
(** Renumber/merge states by [f] (surjective onto [0..num_states-1]),
    with explicitly chosen start and finals. *)

val pp : Format.formatter -> t -> unit
(** Human-readable listing: header plus one line per transition. *)
