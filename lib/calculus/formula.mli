(** Full alignment calculus: string formulae under the relational calculus
    (Section 2, truth definitions 10–13).

    The language is two-level by design: string formulae (the modal layer)
    appear as atoms of an otherwise ordinary relational calculus with
    [∧], [¬] and [∃] over the string domain.  Quantifiers range over [Σ*];
    the executable semantics here is the paper's {e truncated} semantics
    [⟨φ⟩ˡ_db] (quantifiers and free variables range over [Σ^{≤l}]), which
    coincides with the full answer for domain-independent queries once [l]
    reaches the query's limit function (Definition 3.2, Eq. 6). *)

type var = Window.var

type t =
  | Str of Sformula.t  (** a string formula atom. *)
  | Rel of string * var list  (** an atomic relational formula [R(x̄)]. *)
  | And of t * t
  | Not of t
  | Exists of var * t

val or_ : t -> t -> t
(** [φ ∨ ψ := ¬(¬φ ∧ ¬ψ)]. *)

val implies : t -> t -> t
(** [φ → ψ := ¬φ ∨ ψ]. *)

val forall : var -> t -> t
(** [∀x.φ := ¬∃x.¬φ]. *)

val exists_many : var list -> t -> t
(** Nested existentials. *)

val and_list : t list -> t
(** Conjunction of a list.  @raise Invalid_argument on the empty list. *)

val free_vars : t -> var list
(** Free variables, sorted, duplicate-free.  All variables of an embedded
    string formula are free in it. *)

val is_pure : t -> bool
(** No relational atoms — pure alignment calculus (its truth does not
    depend on the database). *)

val relation_symbols : t -> (string * int) list
(** The relation symbols used, with the arity implied by their argument
    lists; duplicates removed.  @raise Invalid_argument if one symbol is
    used at two arities. *)

type checker = Sformula.t -> (var * string) list -> bool
(** How to decide string-formula atoms given bindings for their
    variables. *)

val naive_checker : checker
(** {!Naive.holds}: the reference decision procedure. *)

val compiled_checker : Strdb_util.Alphabet.t -> checker
(** Compile each distinct string formula once (Theorem 3.1) and decide by
    FSA acceptance (Theorem 3.3).  Each returned checker keeps its own
    memo (64 entries, not registered) of prepared automata
    ({!Strdb_fsa.Run.prepare}), so repeated atoms across a query
    evaluation are compiled and resolved once, and a call takes one memo
    lookup. *)

val eval :
  ?checker:checker ->
  Strdb_util.Alphabet.t ->
  Database.t ->
  max_len:int ->
  (var * string) list ->
  t ->
  bool
(** [eval sigma db ~max_len env phi] decides [φ] under the truncated
    semantics with active domain [Σ^{≤max_len}]; [env] must bind every free
    variable.  @raise Invalid_argument on unbound variables. *)

val answers :
  ?checker:checker ->
  Strdb_util.Alphabet.t ->
  Database.t ->
  max_len:int ->
  free:var list ->
  t ->
  string list list
(** [answers sigma db ~max_len ~free phi] is [⟨φ⟩^{max_len}_db] with the
    answer columns ordered as [free] (which must equal the free variables
    of [phi] up to order): brute-force enumeration, the reference
    evaluator the algebra layer is tested against.  Sorted. *)

val pp : Format.formatter -> t -> unit
(** Concrete syntax, e.g. [R(x,y) & ~(E x. S{...})]. *)
