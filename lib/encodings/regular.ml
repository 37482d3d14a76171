let to_nfa = Strdb_fsa.Oneway.to_nfa

let to_regex a = Strdb_automata.Regex_of_nfa.convert (to_nfa a)

let check_shape var phi =
  if not (Strdb_calculus.Sformula.is_unidirectional phi) then
    invalid_arg "Regular: the formula must be unidirectional (Theorem 6.1)";
  match Strdb_calculus.Sformula.vars phi with
  | [] -> ()
  | [ v ] when v = var -> ()
  | _ -> invalid_arg "Regular: the formula must use exactly the given variable"

let formula_to_regex sigma var phi =
  check_shape var phi;
  to_regex (Strdb_calculus.Compile.compile sigma ~vars:[ var ] phi)

let formula_to_dfa sigma var phi =
  check_shape var phi;
  Strdb_automata.Dfa.of_nfa sigma
    (to_nfa (Strdb_calculus.Compile.compile sigma ~vars:[ var ] phi))
