(** First-class query plans: everything {!Eval.prepare} decides, nothing
    it computes from rows.

    A plan captures the join order, the compiled (and fused) automata of
    the filter and generator steps, the Theorem 5.2 limitation
    certificates with their per-row bound functions, and the
    index-probe survivor sets — i.e. every decision
    [Eval.plan_and_run] used to re-make on each call.  All of those
    decisions are data-independent given the (immutable) database and
    store, so a plan can be executed any number of times, concurrently,
    and always yields exactly what a fresh plan-and-run would: this is
    the seam the query server's shared plan cache lives on.

    Plans are immutable and domain-safe: {!Eval.execute} threads all
    per-execution state (the working table) through its own stack, and
    the only shared mutable state a plan closes over — the string-atom
    checker's memo — is a mutex-guarded {!Strdb_util.Memo}. *)

type plan_step =
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

(** One physical step of the pipeline, in execution order.  Public so
    {!Eval} can build and replay plans; treat as an implementation
    detail everywhere else. *)
type exec_step =
  | Join of {
      rel : string;
      args : Strdb_calculus.Formula.var list;
      tuples : Strdb_calculus.Database.tuple list option;
          (** [Some survivors] when a σ-index probe pruned the scan at
              plan time; [None] scans the relation.  The survivors are a
              duplicate-free sub-list of the relation: the join relies
              on it to keep the working table duplicate-free. *)
    }
  | FilterFsa of {
      fsa : Strdb_fsa.Fsa.t;
      frame : Strdb_calculus.Formula.var list;
    }  (** σ_A over the bound [frame] columns — a single compiled
          conjunct or a fused product. *)
  | Gen of {
      fsa : Strdb_fsa.Fsa.t;
      known : Strdb_calculus.Formula.var list;
      unknown : Strdb_calculus.Formula.var list;
      bound : Strdb_fsa.Limitation.bound;
    }  (** generate the [unknown] columns from the [known] ones within
          the certified per-row bound (frame is [known @ unknown]).
          [fsa] is the optimized automaton ({!Strdb_fsa.Optimize.optimized}
          of the certified conjunct or fused product), so each row's
          Lemma 3.1 specialisation starts from the merged states. *)
  | NegFilter of Strdb_calculus.Formula.t
      (** a quantifier-free negated conjunct, as a row predicate. *)

type t = {
  sigma : Strdb_util.Alphabet.t;
  db : Strdb_calculus.Database.t;
  free : Strdb_calculus.Formula.var list;
  checker : Strdb_calculus.Formula.checker;
      (** the memoised string-atom checker negation filters decide with
          (mutex-guarded — safe to share across domains). *)
  steps : exec_step list;
  describe : plan_step list;
}

val explain : t -> plan_step list
(** The human-readable plan — a pure projection of the value, no
    evaluation involved. *)

val free : t -> Strdb_calculus.Formula.var list
val database : t -> Strdb_calculus.Database.t
val sigma : t -> Strdb_util.Alphabet.t

val step_to_string : plan_step -> string
(** One [explain] line, as the CLI and the server's [EXPLAIN] print it. *)
