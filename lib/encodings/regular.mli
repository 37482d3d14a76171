(** Theorem 6.1: unidirectional one-variable string formulae define exactly
    the regular languages.

    Forward direction: {!Strdb_calculus.Regex_embed} turns a regex into a
    formula.  Backward direction (this module): a unidirectional 1-FSA —
    what the Theorem 3.1 compiler produces from such a formula — is "a
    nondeterministic finite automaton with endmarkers";
    {!Strdb_fsa.Oneway.to_nfa} converts it to a classical NFA over [Σ],
    the same construction the runtime's DFA row-scan kernel
    determinizes. *)

val to_nfa : Strdb_fsa.Fsa.t -> Strdb_automata.Nfa.t
(** {!Strdb_fsa.Oneway.to_nfa}: [L(to_nfa a) = L(a)] for a unidirectional
    1-FSA.  @raise Invalid_argument if [a] has more than one tape or a
    leftward move. *)

val to_regex : Strdb_fsa.Fsa.t -> Strdb_automata.Regex.t
(** State elimination after {!to_nfa}. *)

val formula_to_regex :
  Strdb_util.Alphabet.t -> Strdb_calculus.Window.var -> Strdb_calculus.Sformula.t ->
  Strdb_automata.Regex.t
(** The full Theorem 6.1 round: compile the (unidirectional, one-variable)
    string formula and extract an equivalent classical regex.
    @raise Invalid_argument if the formula has other variables or right
    transposes. *)

val formula_to_dfa :
  Strdb_util.Alphabet.t -> Strdb_calculus.Window.var -> Strdb_calculus.Sformula.t ->
  Strdb_automata.Dfa.t
(** As {!formula_to_regex} but determinised — the form used for language
    equivalence checks in the tests and benches. *)
