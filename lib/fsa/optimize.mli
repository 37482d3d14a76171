(** The automaton optimization pipeline and Section 5 shape analysis.

    Runs between {!Strdb_calculus.Compile} and the {!Runtime} index:

    - {b trimming}: drop states that are unreachable from the start or
      cannot reach a final state (plus duplicate transitions — the
      Theorem 3.1 constructions produce both freely);
    - {b stay-transition elimination}: an all-heads-stationary step is an
      ε-like move; where sound under halting acceptance it is deleted or
      composed away;
    - {b equivalent-state merging}: the coarsest bisimulation by
      partition refinement, merging states with identical finality and
      outgoing behaviour;
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
(** [run a] is the optimized automaton: trim, deduplicate, eliminate
    stay transitions, merge bisimilar states, trim again.  Pure; accepts
    exactly the tuples [a] accepts; never has more states or transitions
    than the trimmed, deduplicated input. *)

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
