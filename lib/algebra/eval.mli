(** The production query evaluator: a conjunctive generator pipeline.

    Theorem 4.2's translation is the semantics (and is what the test suite
    checks against at small cutoffs), but evaluating each string-formula
    atom as a standalone relation over [Σ^{≤W}] is exponential.  This
    module evaluates the {e generator-pipeline} fragment — an existential
    prefix over a conjunction of relational atoms, string-formula atoms and
    quantifier-free negations — the way a practical engine would:

    + join the relational atoms (finite tables);
    + repeatedly pick a string-formula conjunct: if all its variables are
      bound it is a {e filter} (Theorem 3.3 acceptance per row); otherwise,
      if the limitation analysis certifies that the bound variables limit
      the unbound ones ([B ⤳ rest], Theorem 5.2), it is a {e generator} —
      specialise the compiled FSA on the bound columns (Lemma 3.1) and
      enumerate the outputs within the certified per-row bound;
    + finally apply quantifier-free negated conjuncts as filters and
      project onto the free variables.

    The working table is a set at every step.  Relations are sets
    (Section 2), a join with one maps distinct rows to distinct rows, a
    generator emits a set of outputs per row, and filters and negations
    only drop rows; so no step deduplicates, and only the final
    projection does, when it drops a column.

    Every step is justified by a theorem of the paper; a query outside the
    fragment, or whose variables cannot all be bound, is rejected with an
    explanation (use {!Safety.evaluate_truncated} for those).

    Evaluation is split into {!prepare} (build a {!Plan.t}: join order,
    compiled/fused automata, limitation certificates, index-probe
    survivors — every data-independent decision) and {!execute} (replay
    the plan over the rows).  [prepare] then [execute] is exactly {!run};
    the split is what lets the query server cache prepared plans and
    execute one plan concurrently from many sessions.  Both halves trap
    the engine's input-triggered exceptions and return [Error] instead —
    the result signature is honest even on malformed relations
    (tuple/atom arity mismatches) or strings outside the alphabet. *)

val run :
  ?domains:int ->
  ?store:Strdb_store.Store.t ->
  Strdb_util.Alphabet.t ->
  Strdb_calculus.Database.t ->
  free:Strdb_calculus.Formula.var list ->
  Strdb_calculus.Formula.t ->
  (Strdb_calculus.Database.tuple list, string) result
(** Evaluate; answer columns follow [free] (which must list the free
    variables).  Sorted, duplicate-free: every step's rows are
    duplicate-free, so the answer is sorted only when the projected rows
    are not already strictly sorted, and deduplicated only when [free]
    drops a column.

    [domains] spreads the per-row work — σ_A acceptance filters and
    per-bound-tuple generator expansion — over a shared
    {!Strdb_util.Pool} of that many domains.  Defaults to
    [Pool.default_domains ()] (the [STRDB_DOMAINS] environment
    variable, else 1); [1] is fully sequential.  Results are identical
    for every domain count.

    [store] enables σ-index pruning: when the store was built from this
    very database (physical equality) and [Store.enabled ()] holds, a
    relation scan first probes the store's q-gram indexes with the
    necessary factors ({!Strdb_fsa.Factors.necessary}) of each
    single-variable string conjunct over the scanned columns, and only
    the candidate rows are joined.  The pruned conjuncts still run as
    filters over the survivors, so results are identical with or
    without a store — pruning is a pure optimization. *)

val prepare :
  ?store:Strdb_store.Store.t ->
  Strdb_util.Alphabet.t ->
  Strdb_calculus.Database.t ->
  free:Strdb_calculus.Formula.var list ->
  Strdb_calculus.Formula.t ->
  (Plan.t, string) result
(** Plan without touching a row: compile and fuse the automata, order
    the conjuncts, certify the generators (Theorem 5.2), run the
    σ-index probes and materialise their survivor tuples.  Everything a
    plan captures is immutable, so the result may be kept, shared
    across domains and executed many times; {!Plan.explain} renders it.
    Rejects queries outside the generator-pipeline fragment, unbindable
    variables, and malformed input — always as [Error], never as an
    exception. *)

val execute :
  ?pool:Strdb_util.Pool.t ->
  Plan.t ->
  (Strdb_calculus.Database.tuple list, string) result
(** Replay a prepared plan over the database it captured.  Answer
    columns follow the plan's [free] list; sorted, duplicate-free.  No
    step deduplicates (see {!run}), which relies on every [Join]'s
    [tuples] being duplicate-free, as {!prepare} makes them; so with
    [free] set to every column the steps bind, a plan returns its rows
    as they are, sorted.
    [pool] (default sequential) spreads the per-row filter and
    generator work, exactly as [run ~domains] does.  For every query,
    [prepare] followed by [execute] returns what {!run} returns —
    including the [Error] cases, which this boundary traps rather than
    letting engine exceptions escape (a malformed tuple found
    mid-execution kills no server worker). *)

val dedup_rows : string array list -> string array list
(** Expected-O(n) row dedup on an explicit injective string key
    (length-prefixed concatenation — the polymorphic hash only samples
    a bounded prefix of a row, which collapses wide rows with repeated
    early columns onto one bucket).  First occurrence wins.  Not on the
    execute path, which the table invariant makes duplicate-free: it is
    the invariant's test oracle ([rows = dedup_rows rows] at every plan
    prefix). *)

type plan_step = Plan.plan_step =
  | Scan of string  (** join a relational atom. *)
  | IndexProbe of string * string
      (** a σ-index probe shrinking the following scan: (description —
          ["σ-index[x ⊇ {acg,cgt}] on r"], candidate ratio —
          ["verify(n/N)"]). *)
  | Filter of string * string
      (** a fully-bound string formula or negation: (description,
          shape/kernel annotation — e.g. ["unidirectional, 8 states, 21
          transitions; one-way frontier"], or ["row predicate"] for a
          negation). *)
  | Generator of string * string * string
      (** a string formula generating new columns: (description, bound,
          shape/kernel annotation). *)

val explain :
  ?store:Strdb_store.Store.t ->
  Strdb_util.Alphabet.t ->
  Strdb_calculus.Database.t ->
  Strdb_calculus.Formula.t ->
  (plan_step list, string) result
(** The plan [run] would execute, for inspection and the CLI: [prepare]
    projected through {!Plan.explain}.  With [store], index probes
    appear with their candidate counts (the probe itself runs at
    prepare time). *)
