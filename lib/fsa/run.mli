(** Simulation of k-FSAs: configurations, computations, acceptance.

    A configuration on input [W = (w₁,…,w_k)] is [(p, n₁,…,n_k)] with
    [0 ≤ nᵢ ≤ |wᵢ|+1].  A computation accepts when it starts in the initial
    configuration [(s, 0,…,0)], is finite, ends in a final state, and its
    last configuration has no next configuration (Section 3).  The default
    decision procedure is the configuration-graph search of Theorem 3.3:
    polynomial in the input lengths for a fixed FSA. *)

type config = { state : int; pos : int array }
(** A configuration: control state plus one head position per tape. *)

val initial : Fsa.t -> config
(** The initial configuration [(s, 0, …, 0)]. *)

val symbols_under_heads : string array -> config -> Symbol.t array
(** The symbol vector the heads observe. *)

val enabled : Fsa.t -> string array -> config -> Fsa.transition list
(** The transitions applicable in a configuration. *)

val successors : Fsa.t -> string array -> config -> config list
(** The next configurations. *)

val accepts : Fsa.t -> string list -> bool
(** [accepts a ws] decides [ws ∈ L(a)] by search over the configuration
    graph (Theorem 3.3) on {!Optimize.optimized}[ a]: the packed,
    indexed engine of {!Runtime} when it applies, the naive search
    otherwise.
    @raise Invalid_argument if the tuple arity differs from the FSA's or a
    string uses characters outside the alphabet. *)

val accepts_batch :
  ?pool:Strdb_util.Pool.t -> Fsa.t -> string list list -> bool array
(** [accepts_batch ~pool a tuples] is [accepts a] over every tuple, the
    per-tuple searches spread across [pool] (default: sequential).  This
    is the σ_A filter shape of the query pipeline: one shared compiled
    FSA, many independent rows, one {!prepare} for the batch.
    @raise Invalid_argument as {!accepts}, re-raised on the caller. *)

type prepared
(** An automaton resolved for repeated acceptance: its optimized form
    and that form's dispatch index. *)

val prepare : Fsa.t -> prepared
(** Resolve an automaton once, looking up the optimize and index memos;
    {!accepts_prepared} then takes no memo lookup per row. *)

val accepts_prepared : prepared -> string list -> bool
(** [accepts a] on a prepared automaton: the input is still checked on
    every call. *)

val accepts_naive : Fsa.t -> string list -> bool
(** The reference decision procedure: breadth-first search with
    polymorphic-hashtable configuration keys, exactly as before the
    {!Runtime} engine existed.  Kept for benches and the qcheck
    equivalence suite. *)

val accepts_dfs : Fsa.t -> string list -> bool
(** Ablation baseline: naive depth-first search with a visited set.
    Decides the same language; included so benches can compare traversal
    orders. *)

val accepting_trace : Fsa.t -> string list -> config list option
(** A witnessing computation (list of configurations from the initial one to
    an accepting halt), if the tuple is accepted; breadth-first, so the
    trace has minimal length. *)

val reachable_configs : Fsa.t -> string list -> config list
(** All configurations reachable from the initial one (ordered by
    discovery); the node set of Lemma 3.1's configuration graph. *)
