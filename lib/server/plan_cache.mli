(** The shared prepared-plan cache behind [strdb serve].

    Planning a query — shape analysis, limitation certification,
    necessary-factor extraction, index probes — costs more than
    executing it on typical stores; a server answering a repeated query
    mix should pay it once.  This is a {!Strdb_util.Memo} (a
    mutex-guarded LRU) from {e (alphabet, formula, free list, store
    identity)} to prepared {!Strdb_algebra.Plan.t} values, shared by
    every session worker.

    The store component is {!Strdb_store.Store.id}, a process-unique
    stamp: a plan prepared against a store embeds that store's pruned
    survivor tuples, so two stores — even built from equal databases —
    must never share a cache line.  Keys are otherwise structural, so
    two textually different requests parsing to the same formula share
    a plan. *)

type t

type key

val key :
  sigma:Strdb_util.Alphabet.t ->
  ?store:Strdb_store.Store.t ->
  free:string list ->
  Strdb_calculus.Formula.t ->
  key

val create : ?bound:int -> unit -> t
(** An empty cache holding at most [bound] plans.  The default is
    [STRDB_PLAN_CACHE] from the environment when it parses as a
    non-negative int, 0 for an off spelling ({!Strdb_util.Knob}), else
    128.  Bound 0 never retains anything — every lookup is a miss, so
    the server's cold path is the only path. *)

val find : t -> key -> Strdb_algebra.Plan.t option
(** Counts a hit or a miss. *)

val add : t -> key -> Strdb_algebra.Plan.t -> unit
(** Retain a plan unless one is already cached under the key. *)

val prepare :
  t ->
  ?store:Strdb_store.Store.t ->
  Strdb_util.Alphabet.t ->
  Strdb_calculus.Database.t ->
  free:string list ->
  Strdb_calculus.Formula.t ->
  (Strdb_algebra.Plan.t, string) result
(** [Eval.prepare] through the cache: return the cached plan on a hit,
    otherwise prepare and (on success) retain.  A hit whose plan was
    prepared against a different database value is refused and
    re-prepared — the key omits the database because a server serves
    exactly one, and this guard keeps the helper honest when a caller
    does not. *)

type stats = Strdb_util.Memo.stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  bound : int;
}

val stats : t -> stats
