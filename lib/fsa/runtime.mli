(** The high-performance k-FSA runtime.

    Theorem 3.3's acceptance search and the Generate/Eval loops above it
    are the system's hot paths.  This module packages the ingredients
    they share:

    - {b shape-dispatched acceptance kernels} ({!try_accepts}): a DFA
      row scan for one-tape one-way automata, a state-set frontier
      search for other one-way ones, a visited-set search for two-way
      ones;
    - {b indexed transition dispatch}: per FSA (memoized on first use,
      keyed on physical identity), a [state × symbol-vector-code ↦
      transitions] table.  Read vectors are concrete, so the enabled set
      is an exact-match lookup instead of a [List.filter] over
      [Fsa.outgoing];
    - {b packed configuration keys} for the two-way search: a
      configuration [(q, p₁..p_k)] on inputs of lengths [n₁..n_k] packs
      into one int whenever [states·Π(nᵢ+2)] fits in an OCaml int,
      giving an allocation-free search with a flat bitmap (small key
      spaces) or a monomorphic open-addressing int set (large ones) as
      the visited set. *)

val enabled : unit -> bool
(** Always [true]: the runtime can no longer be switched off.  Kept only
    because [perfbench/layers.ml] still calls it. *)

(** {1 Transition dispatch} *)

type t
(** A dispatch index for one FSA. *)

val index : Fsa.t -> t
(** [index a] is the dispatch index of [a], built on first use and kept
    in the ["index"] {!Strdb_util.Memo} (256 entries, keyed on physical
    identity — FSAs are immutable after construction).  Domain-safe:
    racing builders converge on one shared index.  A lookup takes a
    lock, so batch callers resolve the index once per batch
    ({!Run.prepare}). *)

val index_uncached : Fsa.t -> t
(** Build a dispatch index without consulting or populating the memo.
    For automata whose identity never recurs outside their owner (the
    per-row specialisations [Generate] memoizes, each with its index)
    and that would otherwise thrash the bounded memo with always-miss
    insertions. *)

val clear_cache : unit -> unit
(** Drop all memoized indices and zero the counters (benchmark
    hygiene). *)

type stats = Strdb_util.Memo.stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  bound : int;
}

val stats : unit -> stats
(** The index memo's counters since start or {!clear_cache}. *)

val indexable : t -> bool
(** False when [(|Σ|+2)^arity] overflows the code budget; dispatch and
    packed acceptance then decline and callers keep the naive path. *)

val code_of_symbols : t -> Symbol.t array -> int
(** The mixed-radix code of a symbol vector: [Σᵢ rank(sᵢ)·(|Σ|+2)ⁱ] with
    characters ranked by the alphabet, then [⊢], then [⊣].  Only valid
    when [indexable]. *)

val transitions_for : t -> state:int -> code:int -> int array
(** Indices (into [Fsa.transitions]) of the transitions leaving [state]
    whose read vector has code [code] — exactly the enabled transitions
    of a configuration observing that vector.  The returned array is
    shared; do not mutate. *)

val transition : t -> int -> Fsa.transition
(** Resolve a transition index. *)

(** {1 Packed configuration keys} *)

type layout = {
  states : int;
  dims : int array;  (** [dims.(i) = nᵢ + 2]: head positions per tape. *)
  steps : int array;  (** mixed-radix strides: [states·Π_{j<i} dims.(j)]. *)
  total : int;  (** number of distinct keys, [states·Π dims]. *)
}

val layout : Fsa.t -> int array -> layout option
(** [layout a lens] is the packing layout for inputs of the given
    lengths, or [None] when [states·Π(lensᵢ+2)] overflows an int. *)

val pack : layout -> state:int -> pos:int array -> int
(** Injective encoding of a configuration into [0..total-1]. *)

val unpack : layout -> int -> int * int array
(** Inverse of {!pack}: [(state, positions)]. *)

(** {1 Acceptance} *)

val try_accepts : Fsa.t -> string list -> bool option
(** Acceptance, dispatched on shape ({!Optimize.shape_of}) to one of
    three kernels:

    - {b one-way DFA}: a one-tape unidirectional FSA (Theorem 6.1: it
      defines a regular language) is determinized on first use —
      {!Oneway.to_nfa}, then {!Strdb_automata.Dfa.determinize} under a
      budget of 1024 states — and kept in this index behind an
      [Atomic.t], so racing builders converge and the scan takes no
      lock.  Each row is one table lookup per character, stopping early
      in the dead state or the accept sink;
    - {b one-way frontier}: other unidirectional FSAs (several tapes,
      one tape over the DFA budget, or none — Lemma 3.1 acceptance
      graphs) run a subset simulation by levels of equal head-position
      sum.  Each occupied head-position cell holds the set of states
      reached there as a bitset of [⌈|Q|/63⌉] words, closed under
      stationary moves.  A level is a dense slice over the positions of
      every tape but the longest, whose position the level implies;
      moves are in [{0,1}ᵏ], so only [k+1] levels are live, and a
      touched list per level visits only the occupied cells.
      Transitions come from a per-automaton successor table —
      (destination, move vector) per state and symbol code — built on
      first use and kept in this index behind an [Atomic.t] like the
      DFA.  Per-row scratch is one array of [(k+1)·cells·(⌈|Q|/63⌉+1)]
      words plus [O(|Q| + Σnᵢ)], [cells = Π(nᵢ+2)] over every tape but
      the longest; over 2²⁰ words (8 MB) the kernel declines and the
      row runs the two-way packed search, whose cost follows the
      configurations it reaches.  There is no visited set: each
      occupied cell is processed once;
    - {b two-way packed}: everything else runs the general two-way
      search (Theorem 3.3) with a bitmap or int-set visited set.

    [None] when the FSA is not indexable or the input is not packable
    (and, if one-way, over the frontier budget); the caller then uses
    the naive search.  Assumes the input was validated ([Run.accepts]
    does this).  [try_accepts a] is {!accepts_indexed} on [index a]: a
    memo lookup per call. *)

val accepts_indexed : t -> string list -> bool option
(** The kernel {!try_accepts} dispatches to, on an index already
    resolved: what a batch runs per row, after one {!index} lookup per
    batch. *)

val kernel_name : Fsa.t -> string
(** Which acceptance kernel {!try_accepts} would run for this automaton:
    ["one-way DFA, N states"], ["one-way frontier"], ["two-way packed"],
    or ["naive search"] when the FSA is not indexable — for
    [Eval.explain], the server's [EXPLAIN] and the CLI.  Naming the DFA
    builds it, the work the first accepted row would otherwise do. *)
