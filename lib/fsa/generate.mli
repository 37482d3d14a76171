(** Enumerating the tuples accepted by a k-FSA.

    This is the "generalized Mealy machine" reading of an FSA discussed
    after Definition 3.1: instead of checking given strings, the automaton
    *produces* tape contents.  Tapes are determined lazily: a character is
    committed the first time a head enters an unexplored square, branching
    over the alphabet (or the decision to end the string there).  Together
    with the limitation analysis (which bounds output lengths) this is what
    makes FSA-based selection over the infinite domain Σ* finitely
    evaluable (Section 4).

    The fast enumerator walks the trie of committed output prefixes.  A
    node is one tuple of prefixes and holds, as a set of packed
    configurations, every configuration whose heads read committed
    squares only, closed under firing; it branches on the lowest tape
    some configuration is blocked on (its head at that tape's first
    uncommitted square), into each character and [⊣].  The work follows
    the prefixes the outputs share instead of one configuration at a
    time, and each tuple is reached by one path.  [accepted_naive] is the
    reference it is checked against. *)

val accepted : Fsa.t -> max_len:int -> string list list
(** [accepted a ~max_len] is every tuple of [L(a)] whose components all have
    length at most [max_len], sorted.  When an accepting computation halts
    without having examined the whole of some tape, all extensions of the
    committed prefix up to [max_len] are accepted and are all enumerated.

    This is {!accepted_fast} on {!Optimize.optimized}[ a]. *)

val accepted_naive : Fsa.t -> max_len:int -> string list list
(** The original enumerator (string-valued prefixes, one configuration at
    a time, [List.filter] dispatch); the reference the qcheck suite checks
    {!accepted} and {!outputs} against. *)

val accepted_fast : Fsa.t -> max_len:int -> string list list
(** The output-trie walk on [a] itself, unoptimized (for direct
    cross-checking in tests and benches).  Configurations are
    packed ints over {!Runtime.layout} with [max_len + 2] head positions
    per tape and fire through [a]'s {!Runtime.index}.  The scratch — a
    worklist, a generation-stamped open-addressing set cleared per node,
    each tape's committed prefix, the pending children — is per call and
    grows on demand, never sized by [max_len]; calls on different domains
    share nothing.  When the index is not indexable or the key does not
    pack, the row runs {!accepted_naive}. *)

val outputs : Fsa.t -> inputs:string list -> max_len:int -> string list list
(** [outputs a ~inputs ~max_len] fixes the first tapes to [inputs]
    (Lemma 3.1) and enumerates the accepted contents of the remaining
    tapes, each bounded by [max_len]; sorted.

    The product grows with [a]'s state count, so the query pipeline
    passes the optimized automaton: a plan's [Gen] step carries
    {!Optimize.optimized} of its conjunct.

    The specialized product is run through [Optimize.run] (trimming
    usually collapses it drastically) and the result is memoized with
    its private dispatch index on [(a, inputs)] in the ["generate"]
    {!Strdb_util.Memo} (512 entries, hashed on the input strings,
    domain-safe), so repeated expansions of the same bound row amortize
    the Lemma 3.1 construction and the index.  The output-trie walk
    ({!accepted_fast}) then enumerates the specialisation. *)

val clear_spec_cache : unit -> unit
(** Drop memoized optimized specializations and zero the memo's
    counters (benchmark hygiene). *)

val is_empty_upto : ?inputs:string list -> Fsa.t -> max_len:int -> bool
(** No accepted tuple with all components of length at most [max_len]
    — of [a], or, given [inputs], of the remaining tapes once the first
    ones are fixed to [inputs] (as {!outputs}).  The walk stops at the
    first accepting node, taking [⊣] before any character, so a
    nonempty answer costs one path of the trie, not the whole bounded
    language.  (Nonemptiness of two-way multitape automata is
    undecidable in general — Theorem 5.1 — so a bound is required.) *)
