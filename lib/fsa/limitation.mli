(** The limitation problem of Definition 3.1 / Theorem 5.2.

    Given a k-FSA whose tapes are partitioned into {e inputs} and
    {e outputs}, decide whether the inputs {e limit} the outputs: is there a
    function [W] with [|vⱼ| ≤ W(|u₁|,…)] for every accepted tuple?  This is
    what lets an acceptor be used safely as a string {e producer} during
    query evaluation (Section 4's finitely evaluable expressions).

    Decidability statement (Theorem 5.2): the problem is decidable for
    right-restricted FSAs — at most one bidirectional tape.  We implement:

    - the {b unidirectional} case exactly as in the paper: an output is
      unlimited iff the automaton can accept without driving that tape to
      [⊣] (the "easy" way) or has a loop of input-consuming-free transitions
      that advances an output (the "hard" way); otherwise a linear limit
      function is returned;
    - the {b right-restricted} case with the bidirectional tape [b] among
      the {e outputs}: the paper's crossing-sequence automaton [A″]
      ({!Crossing}) decides both the easy checks and the hard (pumping-loop)
      checks; linear bound for [b], quadratic for the other outputs;
    - the right-restricted case with [b] among the {e inputs}: the easy
      checks are exact; the hard check searches for the paper's Fig. 9
      "returning loop" (a reading-free, writing excursion of the two-way
      head that returns to its starting square and state) by an
      iterative-deepening lazy-window exploration, windows may include the
      endmarkers, and a cheap zero-net-displacement prefilter skips
      impossible anchors.  The window bound follows the paper's
      [|v| ≤ 2·|arcs(A″)|] argument but is capped for practicality
      ([max_window], default 12, plus a node budget); this case is
      therefore complete only up to those bounds.

    The analysis presupposes the compiled normal form of Theorem 3.1
    (properties 2–4 checkable, property 5 by provenance): use it on automata
    produced by the string-formula compiler. *)

type bound = {
  formula : string;  (** human-readable closed form, e.g. ["12·(Σ(nᵢ+1)+1)"]. *)
  eval : int list -> int;
      (** the limit function [W]: lengths of the input strings, in input
          order, to a bound on every output length. *)
}

type verdict =
  | Limited of bound  (** the inputs limit the outputs, with witness [W]. *)
  | Unlimited of string  (** they do not; the string names the culprit. *)

val normal_form_errors : Fsa.t -> string list
(** Violations of the compiled normal form (unique final state without
    outgoing transitions, final state entered only by stationary
    transitions, start state without incoming transitions); empty when
    well-formed.  Automata with no final state pass (their language is
    empty). *)

val analyze :
  ?max_crossing_states:int ->
  ?max_window:int ->
  Fsa.t ->
  inputs:int list ->
  outputs:int list ->
  (verdict, string) result
(** [analyze a ~inputs ~outputs] decides whether [inputs ⤳ outputs] in [a].
    [inputs] and [outputs] must partition the tapes.  Returns [Error] when
    the FSA is not right-restricted (the problem is then undecidable —
    Theorem 5.1), is not in compiled normal form, or the crossing
    construction exceeds [max_crossing_states].

    Verdicts are memoized on the FSA's physical identity and the analysis
    parameters in the ["limitation"] {!Strdb_util.Memo} (128 entries,
    domain-safe) — the crossing-sequence construction dominates repeated
    query planning otherwise. *)

val clear_cache : unit -> unit
(** Drop memoized verdicts and zero the counters (benchmark hygiene). *)

type stats = Strdb_util.Memo.stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  bound : int;
}

val cache_stats : unit -> stats
(** Verdict-memo telemetry.  The memo keys on the automaton's
    {e physical} identity ([==], like the optimize memo): analyzing the
    same compile-memoized automaton twice is one miss then one hit,
    while a structurally-equal clone is a fresh miss — deep-comparing
    whole automata per probe is exactly what the keying avoids. *)

val limits : Fsa.t -> inputs:int list -> outputs:int list -> bool
(** [limits a ~inputs ~outputs] is [true] exactly when {!analyze} returns
    [Ok (Limited _)]. *)
