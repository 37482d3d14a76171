(** Necessary-factor analysis of unidirectional 1-FSAs.

    The factor-indexed store ({!Strdb_store.Store}) answers "which rows
    contain factor [f]?" from a q-gram inverted index.  To compile a
    σ_A selection into index probes the planner needs a {e sound} set of
    factors: strings every tuple of [L(A)] must contain, so that
    intersecting their posting lists yields a candidate superset of the
    accepted rows (pruning never loses an answer; the automaton verifies
    the survivors).

    A q-gram [g] is {e necessary} for a unidirectional 1-tape automaton
    [A] exactly when [L(A) ∩ avoid(g) = ∅], where [avoid(g)] is the
    regular set of strings not containing [g].  We decide an
    over-approximation of that emptiness: a reachability search over the
    product of [A]'s transition graph with the [q+1]-state KMP automaton
    of [g], advancing the KMP state only on transitions that {e consume}
    an input character (read a character and move the head right — on a
    one-way tape the consumed sequence of a run spells the input).  The
    graph search over-approximates [L(A)] (it ignores the halting
    condition and the consistency of stationary re-reads), so a gram
    reported necessary really is necessary, while a necessary gram may
    be missed — the sound direction for pruning.  When nothing useful
    can be said — multi-tape or bidirectional automata, patterns
    admitting factor-free strings (short cycles, λ) — the analysis
    returns ⊤ and the caller falls back to a full scan. *)

type verdict =
  | Top  (** no factor constraint derived: scan every row. *)
  | Factors of string list
      (** every accepted string contains each listed q-gram (non-empty,
          duplicate-free, ascending). *)

val necessary : q:int -> Fsa.t -> verdict
(** [necessary ~q a] is the set of length-[q] factors every string of
    [L(a)] must contain, or [Top] when the analysis does not apply:
    [a] is not a unidirectional 1-FSA, [q < 1], the candidate space
    [|Σ|^q] exceeds {!max_space}, or no gram is necessary.  Sound for
    any input in its scope; never raises. *)

val max_space : int
(** Candidate-gram budget: analyses with [|Σ|^q] above this bound
    return [Top] (with no start-to-final path, [necessary] enumerates
    all [|Σ|^q] grams). *)

val is_necessary : q:int -> Fsa.t -> string -> bool
(** [is_necessary ~q a g] decides the single gram [g] (length [q],
    characters within the automaton's alphabet — anything else is
    [false]).  [necessary] equals the sweep of this test over [Σ^q], but
    runs it only on the q-grams of the string consumed along one
    start-to-final path of [a]'s graph: that path avoids every other
    gram.  With no such path it tests all of [Σ^q]. *)
