(** The string-formula compiler of Theorem 3.1.

    For a string formula [φ] on variables [x₁,…,x_k], build a k-FSA [A_φ]
    with [L(A_φ) = ⟨φ⟩] satisfying the theorem's structural properties:

    + tape [i] is bidirectional only if variable [xᵢ] is;
    + the start state has no incoming transitions;
    + either [A_φ] is a single non-final start state or every transition
      lies on a path from the start to the unique final state;
    + the final state has no outgoing transitions and its incoming
      transitions are exactly the stationary ones;
    + (by construction) disregarding bidirectional tapes, every path is
      traced by some computation.

    Atomic formulae become the two-edge gadgets of Fig. 4, stationary
    transitions are bypassed as in Fig. 5, and concatenation/union/star
    splice the sub-automata as in the theorem's proof.  The published star
    case maps an empty sub-automaton to itself, which would lose the
    vacuously-true empty iteration; we build the λ-automaton there instead
    (noted in DESIGN.md). *)

val compile :
  ?trim:bool ->
  Strdb_util.Alphabet.t ->
  vars:Window.var list ->
  Sformula.t ->
  Strdb_fsa.Fsa.t
(** [compile sigma ~vars phi] compiles [phi] with tape [i] holding variable
    [List.nth vars i].  [vars] must be duplicate-free and cover
    [Sformula.vars phi] (extra variables become tapes that are tested
    never).  The automaton begins with the initial-alignment test (all
    heads on [⊢]) so that [L] matches truth in {e initial} alignments.
    [trim] (default true) prunes useless states — property 3; pass [false]
    for the size-ablation benches.

    Results are memoized on [(sigma, vars, phi, trim)] in the
    ["compile"] {!Strdb_util.Memo} (256 entries): repeated compilations
    (per conjunct, per query) return the same — physically shared —
    automaton, which also lets the runtime's per-FSA dispatch index hit
    its memo.  Eviction drops one least-recently-used entry at a time
    (never a full reset, so hot entries keep their physical identity
    across unrelated churn); safe to call from pool workers, and
    compilation itself runs outside the memo's lock.
    @raise Invalid_argument when [vars] misses a variable of [phi]. *)

val clear_cache : unit -> unit
(** Drop the memo table and zero its counters (benchmark hygiene). *)

type stats = Strdb_util.Memo.stats = {
  hits : int;  (** memoized compilations returned shared. *)
  misses : int;  (** compilations performed. *)
  evictions : int;  (** single entries dropped by LRU overflow. *)
  entries : int;  (** live entries right now. *)
  bound : int;  (** 256. *)
}
(** Counters since start or {!clear_cache}; the benches report memo hit
    rates from these, and a miss count that keeps climbing on a workload
    that cycles through few formulae signals eviction thrash. *)

val stats : unit -> stats

val compile_ordered : Strdb_util.Alphabet.t -> Sformula.t -> Strdb_fsa.Fsa.t
(** [compile sigma ~vars:(Sformula.vars phi) phi]: tapes in ascending
    variable order, the paper's convention for queries. *)
