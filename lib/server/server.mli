(** The [strdb serve] query server.

    One Unix-domain socket, a line-delimited protocol, per-connection
    sessions on a bounded {!Strdb_util.Pool.Service} of worker domains,
    and one shared {!Plan_cache} — the prepared-plan split of
    {!Strdb_algebra.Eval} is what makes a repeated query mix cheap: a
    session that hits the cache skips planning entirely and goes
    straight to [Eval.execute] on the shared evaluation pool.

    {2 Wire protocol}

    Requests, one per line:
    - [QUERY <formula>] — evaluate; answer columns are the formula's
      free variables in sorted order;
    - [QUERY\[v1,...,vn\] <formula>] — evaluate with the given column
      order (must list exactly the free variables);
    - [EXPLAIN <formula>] — the plan, one step per line;
    - [STATS] — ["key value"] telemetry lines (plan-cache hit/miss/
      eviction/entry counts, connection/query/error counters, then
      [memo_<name>_hits], [_misses], [_evictions] and [_entries] for
      every memo in {!Strdb_util.Memo.registered}, then the product
      counters [product_deferred], [product_built] and
      [product_budget_fallbacks] of {!Strdb_fsa.Product.stats});
    - [PING] — liveness probe;
    - [QUIT] — close the session.

    Formulae use the {!Strdb_calculus.Sparser} concrete syntax, e.g.
    [seq(x) & S{<{a.c.g}>x}].

    Replies: [OK <n>] followed by [n] payload lines (tab-separated row
    components for [QUERY]), or [ERR <message>].  A connection the
    bounded service cannot admit receives a single [BUSY] line and is
    closed — overload is visible to the client at connect time, not as
    an ever-growing queue.  The reject is immediate while a session
    waits in the queue.  With none queued (a zero [backlog]), a
    connection that finds every worker taken while some session is
    winding down (its client hung up, or it has ended but its worker is
    not back yet) waits up to half a second for that worker, so a
    client that closes and reconnects is served. *)

type config = {
  socket : string;  (** Unix-domain socket path; unlinked on shutdown. *)
  sigma : Strdb_util.Alphabet.t;
  db : Strdb_calculus.Database.t;
  store : Strdb_store.Store.t option;
      (** when present, plans prune through its q-gram indexes. *)
  workers : int;  (** session worker domains. *)
  backlog : int;  (** admitted-but-unserved connection bound. *)
  domains : int;  (** evaluation pool width for [Eval.execute]. *)
  cache_bound : int option;
      (** plan-cache bound; [None] reads [STRDB_PLAN_CACHE] (default
          128, 0 disables). *)
}

val config :
  ?workers:int ->
  ?backlog:int ->
  ?domains:int ->
  ?cache_bound:int ->
  ?store:Strdb_store.Store.t ->
  socket:string ->
  Strdb_util.Alphabet.t ->
  Strdb_calculus.Database.t ->
  config
(** Defaults: 4 workers, backlog 16, [domains] from [STRDB_DOMAINS]. *)

type t

val start : config -> t
(** Bind the socket and serve on a background acceptor domain.  Raises
    [Unix.Unix_error] when the socket cannot be bound. *)

val stop : t -> unit
(** Stop accepting, nudge blocked sessions (their next read sees EOF;
    in-flight replies still flush), drain and join the workers, unlink
    the socket.  Blocks until done; idempotent. *)

val run_blocking : ?on_signal:(unit -> unit) -> config -> unit
(** [start]-like, but the acceptor runs on the calling domain and a
    SIGINT handler is installed for the duration: the first Ctrl-C
    (after [on_signal ()], e.g. a log line) stops the loop and shuts
    down cleanly.  Returns once the last session has drained. *)

val cache : t -> Plan_cache.t
val socket : t -> string

val counters : t -> int * int * int * int
(** [(accepted, busy_rejected, queries_answered, errors_replied)]. *)
