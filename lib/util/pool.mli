(** A reusable fixed-size domain pool with chunked work-stealing
    parallel iteration.

    The engine's batch loops — σ_A acceptance filters over the rows of a
    working table, per-bound-tuple generator expansion — are
    embarrassingly parallel: every element is independent and all shared
    state they touch ({!Strdb_fsa.Runtime}'s index cache, the compile
    memo) is domain-safe.  A pool of size [n] runs such loops on [n]
    domains ([n - 1] parked workers plus the calling domain), dealing
    the index space out in chunks through an atomic cursor so uneven
    per-element cost still balances.

    Pools are long-lived: workers park on a condition variable between
    regions, so a region costs two lock round-trips plus wakeups, not
    domain spawns.  A pool of size 1 degenerates to the plain sequential
    loop with no synchronization at all. *)

type t
(** A pool of domains.  Values of this type are domain-safe; concurrent
    regions on the same pool are serialized. *)

val create : int -> t
(** [create n] spawns a pool of [n] domains total (clamped to
    [1 ≤ n ≤ 128]).  [create 1] spawns nothing. *)

val size : t -> int
(** Total domains, caller included. *)

val shutdown : t -> unit
(** Join the workers.  The pool remains usable afterwards but runs
    everything on the caller.  Idempotent. *)

val sequential : t
(** The size-1 pool: runs everything inline on the caller. *)

val get : int -> t
(** [get n] is a shared, long-lived pool of [min n cores] domains, where
    [cores] is {!Domain.recommended_domain_count}[ ()], created on first
    use and reused for the process lifetime (an [at_exit] hook joins the
    workers).  The clamp matters: OCaml 5 minor collections are barriers
    across every running domain, so a pool wider than the machine
    timeshares one core per several allocating domains and runs slower
    than sequential.  [get] therefore never oversubscribes — on a
    single-core host every [get n] is the sequential pool, and query
    answers are identical either way.  Use this, not {!create}, for
    per-query parallelism; use {!create} when an exact worker count is
    the point (tests of the pool machinery itself). *)

val default_domains : unit -> int
(** The engine-wide default domain count: [STRDB_DOMAINS] from the
    environment when it parses as a positive int (read by
    {!Knob.int}, so an off spelling is 1), else 1.  CI sets it to force
    the parallel path through the whole test suite. *)

val small_batch_limit : int
(** Batches of at most this many items run sequentially on the caller no
    matter how wide the pool is: below it the region broadcast and the
    cross-domain GC barriers cost more than the work distributes
    (observed in the P1 scaling bench).  Results are identical either
    way. *)

val parallel_for : t -> lo:int -> n:int -> (int -> unit) -> unit
(** [parallel_for pool ~lo ~n f] runs [f i] for [lo ≤ i < n] across the
    pool (sequentially when [n - lo] is at most {!small_batch_limit} or
    a per-domain minimum).  [f] must tolerate concurrent invocation on
    distinct indices.  If some [f i] raises, one such exception is
    re-raised on the caller after the region drains. *)

val map_array : t -> ('a -> 'b) -> 'a array -> 'b array
(** Parallel [Array.map].  Evaluation order across elements is
    unspecified; [f] runs exactly once per element. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** Parallel [List.map] (order of results preserved). *)

val filter_list : t -> ('a -> bool) -> 'a list -> 'a list
(** Parallel [List.filter]: predicates run across the pool, the kept
    elements come back in their original order. *)

val concat_map_list : t -> ('a -> 'b list) -> 'a list -> 'b list
(** Parallel [List.concat_map] (order of groups preserved). *)

(** Long-lived worker domains draining a bounded task queue — the
    complementary primitive to the pool above.  Pool regions are
    serialized and the caller participates; service tasks are
    independent, may run for a long time (a server session holds its
    worker for the connection's lifetime), and {!Service.submit} never
    blocks: it enqueues within the bound or fails immediately, which is
    how the query server turns overload into a fast [BUSY] reject
    instead of an unbounded backlog. *)
module Service : sig
  type t

  val create : ?workers:int -> queue:int -> unit -> t
  (** [create ~workers ~queue ()] spawns [workers] (default 2, clamped
      to [1 ≤ w ≤ 128]) domains and admits at most [queue ≥ 0] tasks
      beyond one per worker. *)

  val workers : t -> int

  val submit : t -> (unit -> unit) -> bool
  (** Admit a task: [true] when fewer than [workers + queue] admitted
      tasks have not yet returned, [false] (without side effects) when
      saturated or shut down.  An admitted task holds its slot from
      this call until it returns, so admission never counts a worker
      that has been handed a task but has not woken yet as free.
      Tasks run at most once, in submission order; a task's exceptions
      are swallowed (trap them yourself for reporting). *)

  val load : t -> int
  (** Admitted tasks that have not returned yet (queued or running). *)

  val shutdown : t -> unit
  (** Stop accepting, let the workers drain the queue, join them.
      Blocks until running tasks finish; idempotent. *)
end
