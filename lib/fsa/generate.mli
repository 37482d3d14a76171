(** Enumerating the tuples accepted by a k-FSA.

    This is the "generalized Mealy machine" reading of an FSA discussed
    after Definition 3.1: instead of checking given strings, the automaton
    *produces* tape contents.  The enumerator explores configurations whose
    tapes are only partially determined, committing characters lazily the
    first time a head enters an unexplored square and branching over the
    alphabet (or the decision to end the string there).  Together with the
    limitation analysis (which bounds output lengths) this is what makes
    FSA-based selection over the infinite domain Σ* finitely evaluable
    (Section 4). *)

val accepted : Fsa.t -> max_len:int -> string list list
(** [accepted a ~max_len] is every tuple of [L(a)] whose components all have
    length at most [max_len], sorted.  When an accepting computation halts
    without having examined the whole of some tape, all extensions of the
    committed prefix up to [max_len] are accepted and are all enumerated.

    With the {!Runtime} enabled (default) the enumerator interns committed
    prefixes in a pool — committing a character is O(1) instead of an O(n)
    string copy — and dispatches transitions through the indexed table. *)

val accepted_naive : Fsa.t -> max_len:int -> string list list
(** The original enumerator (string-valued prefixes, [List.filter]
    dispatch); the reference the qcheck suite checks {!accepted} against. *)

val accepted_fast : Fsa.t -> max_len:int -> string list list
(** The runtime-backed enumerator, regardless of the toggle (for direct
    cross-checking in tests and benches). *)

val outputs : Fsa.t -> inputs:string list -> max_len:int -> string list list
(** [outputs a ~inputs ~max_len] fixes the first tapes to [inputs]
    (Lemma 3.1) and enumerates the accepted contents of the remaining
    tapes, each bounded by [max_len]; sorted.

    With the {!Runtime} enabled, the specialized product is run through
    [Optimize.run] (trimming usually collapses it drastically) and the
    result is memoized with its private dispatch index on [(a, inputs)]
    in the ["generate"] {!Strdb_util.Memo} (512 entries, hashed on the
    input strings, domain-safe), so repeated expansions of the same
    bound row amortize the Lemma 3.1 construction and the index. *)

val clear_spec_cache : unit -> unit
(** Drop memoized optimized specializations and zero the memo's
    counters (benchmark hygiene). *)

val is_empty_upto : Fsa.t -> max_len:int -> bool
(** No accepted tuple with all components of length at most [max_len].
    (Nonemptiness of two-way multitape automata is undecidable in general —
    Theorem 5.1 — so a bound is required.) *)
