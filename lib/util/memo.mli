(** Bounded, hashed, domain-safe memo tables: the one cache behind every
    artefact the engine re-derives per query — compiled, optimized and
    fused automata, dispatch indexes, limitation certificates, Lemma 3.1
    specialisations and prepared plans.

    A memo is a least-recently-used table of at most [bound] entries,
    hashed by a caller-supplied [hash] and compared by [equal] — [( == )]
    for keys that are an automaton's identity, [compare]-equality for
    structural ones — behind one mutex.  A lookup takes that lock, so
    per-row loops resolve what they need once per batch instead.

    Memos created with a [name] join a process-wide registry, from which
    the server's [STATS] and the benches read every cache's counters. *)

type ('k, 'v) t

type stats = {
  hits : int;  (** lookups answered from the table. *)
  misses : int;  (** lookups that found nothing. *)
  evictions : int;  (** entries dropped to make room for a new one. *)
  entries : int;  (** live entries right now. *)
  bound : int;  (** the most entries the table retains. *)
}

val create :
  ?name:string ->
  bound:int ->
  hash:('k -> int) ->
  equal:('k -> 'k -> bool) ->
  unit ->
  ('k, 'v) t
(** An empty memo retaining at most [max 0 bound] entries; bound 0
    retains nothing and counts every lookup as a miss.  [hash] must
    agree with [equal].  With [name], the memo is registered for the
    lifetime of the process. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** The resident value of a key, marked most recently used; counts a
    hit or a miss. *)

val add : ('k, 'v) t -> 'k -> 'v -> 'v
(** Insert a value unless the key is resident, evicting the least
    recently used entry when the table is full, and return the value
    now held for the key: the resident one if another insert got there
    first (first insert wins), else the argument.  Counts neither a hit
    nor a miss. *)

val find_or_add : ('k, 'v) t -> 'k -> ('k -> 'v) -> 'v
(** {!find}, and on a miss compute the value outside the lock and
    {!add} it, so domains racing on one key all get the value inserted
    first.  If the computation raises, nothing is cached. *)

val clear : ('k, 'v) t -> unit
(** Drop every entry and zero the counters. *)

val stats : ('k, 'v) t -> stats

val registered : unit -> (string * stats) list
(** Every named memo's counters, in registration order. *)
