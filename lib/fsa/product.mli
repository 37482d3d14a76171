(** Synchronized products of k-FSAs over merged variable frames — the
    automaton side of the selection-composition law σ_A(σ_B(e)) =
    σ_{A×B}(e) of Section 4.

    Theorem 3.1 closes k-FSAs under conjunction when both operands range
    over the {e same} frame; this module generalises the construction to
    factors with differing frames: tapes are aligned by variable name,
    and a variable private to one factor rides along as a free tape of
    the other.  Two constructions are provided.

    {b Synchronized window product} ({!product_sync}) — for pairs of
    unidirectional factors.  The two automata run interleaved over one
    physical head per merged tape; a factor reading ahead of the
    physical head records its reads in a per-tape {e window} of guessed
    symbols which later physical reads verify.  The reachable product
    state space is built lazily under a state budget (4096 states):
    pairs whose traversal phases diverge unboundedly (e.g. a counter
    scan against a same-length scan) blow the budget and fall back.
    When the saturation terminates the construction is exact, and all
    product moves are in {0, +1}, so the product of unidirectional
    factors is unidirectional and keeps the linear one-way frontier
    kernel.

    {b Sequential composition} ({!product_seq}) — for arbitrary factors
    in compiled normal form (every final state outgoing-free, so
    reaching a final state is equivalent to halting acceptance): run A
    on the merged frame with B's private tapes pinned at ⊢, rewind every
    tape A moved back to ⊢, then run B.  Always exact; the result is a
    general-shape automaton of ~|A| + |B| states.

    {!fuse} dispatches: sync when both factors are one-way and the
    budget suffices; sequential when a factor is two-way (sync is
    inapplicable); [None] on budget blowout or incompatible frames, so
    the planner evaluates the conjuncts unfused — the sequential
    composition's generate-then-test runs are no faster than separate
    passes, so blowing the budget never buys a slower plan.
    A pair's product is built on its second request, not its first, so a
    plan prepared once pays nothing for fusion; results are memoized on
    the physical identities of the factors, so repeated plans reuse one
    product automaton — and with it any optimizer/runtime memos keyed on
    it. *)

type frame = string list
(** A variable frame: the tape names of an automaton, in tape order,
    duplicate-free. *)

val enabled : unit -> bool
(** The [STRDB_FUSE] master toggle (default on; an off spelling,
    {!Strdb_util.Knob}, disables).  With fusion off {!fuse} always
    answers [None] and the evaluator reproduces the unfused engine
    exactly. *)

val set_enabled : bool -> unit
(** Flip the toggle at runtime (benchmarks, tests). *)

val state_budget : unit -> int
(** Cap on lazily-built synchronized product states before falling back
    (4096 unless {!set_state_budget} changed it). *)

val set_state_budget : int -> unit
(** Override the budget at runtime. *)

type stats = {
  attempts : int;  (** {!fuse} calls that reached construction. *)
  sync_built : int;  (** synchronized window products built. *)
  seq_built : int;  (** sequential compositions built. *)
  budget_fallbacks : int;
      (** synchronized constructions abandoned on budget blowout. *)
  ineligible : int;  (** factor pairs {!fuse} refused outright. *)
  deferred : int;
      (** first requests for a pair, which {!fuse} recorded and answered
          [None] without building. *)
}

val stats : unit -> stats
(** Snapshot of the counters (reported by the F1 bench).  The memo's
    hits and misses are the ["product"] entry of
    {!Strdb_util.Memo.registered}. *)

val reset_stats : unit -> unit
(** Zero the counters. *)

val merged_frame : frame -> frame -> frame
(** [merged_frame fa fb] is [fa] followed by the variables of [fb] not
    already present, in order — the frame of every product below. *)

val normal_finals : Fsa.t -> bool
(** Do all final states lack outgoing transitions?  The precondition
    under which reaching a final state coincides with halting acceptance
    (compiled normal form, Theorem 3.1); both constructions require it
    of both factors. *)

val product_sync : Fsa.t * frame -> Fsa.t * frame -> (Fsa.t * frame) option
(** The synchronized window product, or [None] when a factor is not
    unidirectional, the frames/alphabets are incompatible, or the state
    budget is exceeded.  When [Some (p, f)], [p] accepts a tuple over
    [f = merged_frame fa fb] iff both factors accept its projections. *)

val product_seq : Fsa.t * frame -> Fsa.t * frame -> (Fsa.t * frame) option
(** The sequential composition; [None] only on incompatible inputs
    (alphabet/frame mismatch, a factor violating {!normal_finals}) or a
    degenerate transition blowup.  Same acceptance contract. *)

val fuse : Fsa.t * frame -> Fsa.t * frame -> (Fsa.t * frame) option
(** The memoized dispatcher used by the evaluator.  Requests for one
    pair, keyed on ([==] of factor automata, [=] of frames) in the
    ["product"] {!Strdb_util.Memo} (128 entries), are answered in turn:
    - the first records the pair and answers [None] (counted in
      [deferred]), so a plan prepared once keeps its conjuncts unfused;
    - the second builds the product.  Of domains making it at once, one
      builds and the others answer [None] this once;
    - every later request answers the memoized result.

    A built result is [None] when both constructions decline, else the
    product of the optimized factors, run through [Optimize.optimized].
    With fusion disabled every request answers [None] and records
    nothing.  Callers treat [None] alike whatever its cause: they keep
    the conjuncts separate. *)

val clear_cache : unit -> unit
(** Drop the {!fuse} memo — built products and recorded first requests
    alike — and zero its counters (benchmarks isolating cold costs). *)
