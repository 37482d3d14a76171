(** Strdb: reasoning about strings in databases.

    The public façade of the library — a faithful implementation of
    G. Grahne, M. Nykänen and E. Ukkonen, {e Reasoning about Strings in
    Databases} (PODS 1994; JCSS 59, 1999).  The layers mirror the paper:

    - {!Window}, {!Sformula}, {!Alignment}, {!Naive}: alignment calculus's
      modal string layer (Section 2);
    - {!Formula}, {!Database}: the relational layer and query semantics;
    - {!Fsa}, {!Run}, {!Specialize}, {!Generate}: multitape two-way
      acceptors, the computational counterpart (Section 3); {!Runtime}
      and {!Oneway}: their acceptance kernels, one of them Theorem 6.1's
      one-tape DFA;
    - {!Compile} / {!Decompile}: Theorems 3.1 and 3.2;
    - {!Algebra}, {!Translate}, {!Safety}: alignment algebra, the
      calculus↔algebra equivalence (Section 4) and the limitation-based
      safety analysis (Section 5, via {!Limitation} and {!Crossing});
    - {!Grammar}, {!Turing}, {!Lba}, {!Qbf}, {!Regular}: the
      expressive-power constructions (Sections 5–6);
    - {!Combinators}, {!Temporal}, {!Seqpred}, {!Regex_embed}: the worked
      examples and derived sub-languages;
    - {!Query}: a convenience layer used by the examples and the CLI;
    - {!Plan}, {!Plan_cache}, {!Server}, {!Client}: first-class prepared
      plans and the [strdb serve] query server built on them.  *)

(* Substrates. *)
module Alphabet = Strdb_util.Alphabet
module Strutil = Strdb_util.Strutil
module Prng = Strdb_util.Prng
module Pool = Strdb_util.Pool
module Memo = Strdb_util.Memo
module Knob = Strdb_util.Knob
module Regex = Strdb_automata.Regex
module Nfa = Strdb_automata.Nfa
module Dfa = Strdb_automata.Dfa
module Regex_of_nfa = Strdb_automata.Regex_of_nfa
module Kleene = Strdb_automata.Kleene

(* Multitape two-way acceptors. *)
module Symbol = Strdb_fsa.Symbol
module Fsa = Strdb_fsa.Fsa
module Runtime = Strdb_fsa.Runtime
module Optimize = Strdb_fsa.Optimize
module Product = Strdb_fsa.Product
module Run = Strdb_fsa.Run
module Specialize = Strdb_fsa.Specialize
module Generate = Strdb_fsa.Generate
module Limitation = Strdb_fsa.Limitation
module Crossing = Strdb_fsa.Crossing
module Factors = Strdb_fsa.Factors
module Oneway = Strdb_fsa.Oneway

(* Alignment calculus. *)
module Window = Strdb_calculus.Window
module Sformula = Strdb_calculus.Sformula
module Alignment = Strdb_calculus.Alignment
module Naive = Strdb_calculus.Naive
module Compile = Strdb_calculus.Compile
module Decompile = Strdb_calculus.Decompile
module Database = Strdb_calculus.Database
module Formula = Strdb_calculus.Formula
module Combinators = Strdb_calculus.Combinators
module Temporal = Strdb_calculus.Temporal
module Seqpred = Strdb_calculus.Seqpred
module Regex_embed = Strdb_calculus.Regex_embed
module Sparser = Strdb_calculus.Sparser

(* Indexed storage. *)
module Store = Strdb_store.Store

(* Alignment algebra. *)
module Algebra = Strdb_algebra.Algebra
module Translate = Strdb_algebra.Translate
module Safety = Strdb_algebra.Safety
module Eval = Strdb_algebra.Eval
module Plan = Strdb_algebra.Plan

(* Serving. *)
module Plan_cache = Strdb_server.Plan_cache
module Server = Strdb_server.Server
module Client = Strdb_server.Client

(* Expressive power. *)
module Grammar = Strdb_encodings.Grammar
module Turing = Strdb_encodings.Turing
module Lba = Strdb_encodings.Lba
module Qbf = Strdb_encodings.Qbf
module Regular = Strdb_encodings.Regular

(* Independent baselines and workloads. *)
module Edit_distance = Strdb_baselines.Edit_distance
module Strmatch = Strdb_baselines.Strmatch
module Dpll = Strdb_baselines.Dpll
module Workload = Strdb_workload.Gen

(** Convenience query interface: build a query, check its safety, run it.

    A query is [x̄ | φ] (Section 2): answer columns are the free variables
    in the order given.  [run] uses the full pipeline — safety inference,
    translation to alignment algebra, generator-based evaluation at the
    inferred limit (Eq. 6); [run_truncated] evaluates the truncated
    semantics [⟨φ⟩ˡ] at an explicit cutoff for queries the analysis cannot
    bound. *)
module Query = struct
  type t = {
    free : Formula.var list;  (** answer columns, in output order. *)
    body : Formula.t;
  }

  exception Bad_query of string

  (** [make ~free body] checks that [free] lists exactly the free
      variables of [body].  @raise Bad_query otherwise. *)
  let make ~free body =
    if List.sort compare free <> Formula.free_vars body then
      raise
        (Bad_query
           (Printf.sprintf "free variables are {%s}, query declares {%s}"
              (String.concat "," (Formula.free_vars body))
              (String.concat "," free)));
    { free; body }

  (** The safety report of the body (Section 5 analysis). *)
  let safety sigma q = Safety.infer sigma q.body

  (** Is the query syntactically domain independent? *)
  let safe sigma q = (safety sigma q).Safety.unlimited = []

  (** Evaluate with the production pipeline ({!Eval}): joins, Theorem 3.3
      filters and Lemma 3.1/Theorem 5.2 generators.  [Error] when the
      query is outside the generator-pipeline fragment or a variable
      cannot be bound safely.

      [domains] runs the per-row filter and generator work on a shared
      {!Pool} of that many domains (default: [STRDB_DOMAINS] from the
      environment, else sequential).  Answers are identical for every
      domain count.

      [store] lets σ-selections probe the q-gram factor index instead of
      scanning (see {!Eval.run}); answers are identical either way. *)
  let run ?domains ?store sigma db q =
    Eval.run ?domains ?store sigma db ~free:q.free q.body

  (** The plan {!run} would execute. *)
  let explain ?store sigma db q = Eval.explain ?store sigma db q.body

  (** Plan once ({!Eval.prepare}), keep the plan, {!execute} it at will
      — what the query server does per cached entry. *)
  let prepare ?store sigma db q =
    Eval.prepare ?store sigma db ~free:q.free q.body

  let execute ?pool plan = Eval.execute ?pool plan

  (** Evaluate through the literal Theorem 4.2 translation to alignment
      algebra at the inferred limit (Eq. 6) — the semantics {!run} is
      tested against; exponential in the limit under [Materialize]. *)
  let run_algebra ?strategy sigma db q =
    Safety.evaluate ?strategy sigma db ~free:q.free q.body

  (** Evaluate the truncated semantics [⟨φ⟩ˡ_db] at an explicit cutoff. *)
  let run_truncated ?strategy sigma db ~cutoff q =
    Safety.evaluate_truncated ?strategy sigma db ~cutoff ~free:q.free q.body

  (** Brute-force reference evaluation (quantifiers enumerated), used by
      the test suite to referee [run]. *)
  let run_reference ?checker sigma db ~cutoff q =
    Formula.answers ?checker sigma db ~max_len:cutoff ~free:q.free q.body
end
