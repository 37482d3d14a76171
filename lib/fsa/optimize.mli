(** The automaton optimization pipeline and Section 5 shape analysis.

    Runs between {!Strdb_calculus.Compile} and the {!Runtime} index:

    - {b trimming}: drop states that are unreachable from the start or
      cannot reach a final state (plus duplicate transitions — the
      Theorem 3.1 constructions produce both freely);
    - {b stay-transition elimination}: an all-heads-stationary step is an
      ε-like move; where sound under halting acceptance it is deleted or
      composed away;
    - {b equivalent-state merging}: partition refinement in both
      directions — forward (Moore) bisimulation merges states with
      identical finality and outgoing behaviour, backward bisimulation
      merges states with identical incoming behaviour, keeping the start
      state and every final state unmerged;
    - {b shape analysis}: the Section 5 taxonomy — per-tape head
      direction and the unidirectional / right-restricted / general
      classification — that {!Runtime} dispatches acceptance kernels on
      and {!Strdb_algebra.Eval} orders conjuncts by.

    Every rewrite preserves the accepted language under the paper's
    halting-acceptance semantics (final state, no enabled transition);
    the qcheck suite checks optimized ≡ original on random compiled
    formulae with and without Lemma 3.1 specialisation. *)

(** {1 Shape analysis} *)

type tape_dir = Oneway  (** the head never moves left. *) | Twoway

type shape =
  | Unidirectional  (** every tape is one-way. *)
  | Right_restricted  (** at most one bidirectional tape (Theorem 5.2). *)
  | General

val tape_dirs : Fsa.t -> tape_dir array
(** Per-tape head-movement classification. *)

val shape_of : Fsa.t -> shape
(** The whole-FSA classification (built on {!Fsa.bidirectional_tapes},
    the same machinery Limitation's right-restriction checks use). *)

val shape_to_string : shape -> string

val shape_rank : shape -> int
(** [0] for unidirectional, [1] for right-restricted, [2] for general:
    the cheap-first key Eval's cost-based conjunct ordering sorts by. *)

val describe : Fsa.t -> string
(** One-line summary ("unidirectional, 12 states, 40 transitions") for
    [Eval.explain] and the CLI. *)

(** {1 The optimization pass} *)

val run : Fsa.t -> Fsa.t
(** [run a] is the optimized automaton: trim ({!Fsa.trim}) and
    deduplicate, then repeat rounds of stay-transition elimination,
    trimming and merging while a round shrinks the automaton.  Merging
    runs a forward pass, then a backward pass, then alternates
    directions while the last pass merged something, so a round's
    result is stable in both.  [run (run a)] is no smaller than
    [run a].  Pure; accepts exactly the tuples [a] accepts.

    Cost guard: the result never has more states, nor (with as many
    states) more transitions, than [a] trimmed and deduplicated; when
    the passes end up larger, that trimmed input is returned.  The rejecting sink
    {!Fsa.trim} may add does not break the guard, since it replaces a
    dropped state: neither trim adds states or transitions. *)

val optimized : Fsa.t -> Fsa.t
(** [run], memoized on the FSA's physical identity in the ["optimize"]
    {!Strdb_util.Memo} (256 entries; compile-memoized automata optimize
    once per process).  When the pass wins nothing it returns [a]
    itself, so downstream identity-keyed memos (the Runtime index) are
    unaffected.  Domain-safe. *)

val clear_cache : unit -> unit
(** Drop the memo and zero its counters (benchmark hygiene). *)

val enabled : unit -> bool
(** Always [true]: the pass can no longer be switched off.  Kept only
    because [perfbench/layers.ml] still calls it. *)
