(** Theorem 6.1's backward direction: a one-tape unidirectional FSA is a
    nondeterministic finite automaton with endmarkers.

    {!to_nfa} composes each consuming move with the stationary closure of
    its source cell and materialises the halting semantics: an FSA
    accepts as soon as it halts in a final state, even mid-string, so an
    always-accepting sink absorbs the remaining input, and a state is
    final exactly when it halts on ⊣.  [Strdb_encodings.Regular] turns
    the result into a regex; {!Runtime} determinizes it
    ({!Strdb_automata.Dfa.determinize}) into the DFA row-scan kernel. *)

val to_nfa : Fsa.t -> Strdb_automata.Nfa.t
(** [to_nfa a] for a unidirectional 1-FSA: a classical NFA over [Σ] with
    [L(to_nfa a) = L(a)].  Its states are [a]'s, then the accept sink
    ([a.num_states]), then the start ([a.num_states + 1]); only the start
    has ε-moves.  Linear in [|A|] times the stationary-closure size.
    @raise Invalid_argument if [a] has more than one tape or a leftward
    move. *)
