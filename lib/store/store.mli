(** The factor-indexed string-relation store.

    [Eval]'s σ_A selections traditionally run the compiled automaton over
    {e every} row — the wall at millions of strings.  This module keeps,
    per relation column, a {b q-gram inverted index}: for each of the
    [|Σ|^q] grams, the ascending list of row ids whose string contains
    it.  Each gram's postings sit in one container chosen by density, as
    in the Roaring layout: a gram occurring in at least 1/32 of the
    column's rows keeps a row bitmap (never larger than the [int32] id
    list it replaces), every other gram a sorted [int32] id list; all
    containers share one flat buffer per column, addressed by a dense
    [offsets] table.  A probe intersects the containers smallest first
    by word AND, bit test or merge — array reads and word operations,
    no hashing.

    Two probe primitives cover the two query families of the
    similarity-retrieval literature:

    - {!candidates}: rows containing {e all} the given factors — the
      companion of {!Strdb_fsa.Factors.necessary} (occurs-in /
      regex-shaped selections: every accepted string contains every
      necessary factor, so the intersection is a candidate superset);
    - {!candidates_atleast}: rows containing at least [min_hits] of the
      given factors — the q-gram lemma shape (Ukkonen): strings within
      edit distance [k] of a pattern [u] share at least
      [D − k·q] of [u]'s [D] distinct grams, because one edit destroys
      at most [q] gram occurrences.

    Both prune only; the caller re-runs the automaton on the candidates,
    so exactness never depends on index contents.  The [STRDB_INDEX]
    toggle (default on) reverts the planner to full scans. *)

type t
(** An immutable store: a database plus its per-column gram indexes. *)

val create : ?q:int -> Strdb_util.Alphabet.t -> Strdb_calculus.Database.t -> t
(** [create ?q sigma db] indexes every relation of [db] on load.  [q]
    defaults to 3 and is clamped so the dense gram space
    [|Σ|^q] stays within budget (and to [≥ 1]).  Row ids are positions
    in [Database.find db r]'s canonical order.
    @raise Strdb_util.Alphabet.Invalid_alphabet if a stored string
    leaves [sigma]. *)

val database : t -> Strdb_calculus.Database.t
val sigma : t -> Strdb_util.Alphabet.t

val id : t -> int
(** A process-unique stamp assigned at {!create}.  Stores are immutable,
    so the stamp stands in for physical identity inside structural keys
    — the server's plan cache keys on it because a plan prepared with a
    store embeds that store's pruned survivor tuples. *)

val q : t -> int
(** The gram length actually indexed. *)

val indexed : t -> string -> bool
(** Does the store index this relation? *)

val row_count : t -> string -> int
(** Rows of an indexed relation (0 when unknown). *)

val posting_entries : t -> int
(** The number of (row, gram) pairs indexed, across all columns: what
    the postings would hold as id lists (memory telemetry; bitmap
    containers store the same pairs in fewer bytes). *)

val candidates :
  t -> rel:string -> col:int -> factors:string list -> int array option
(** [candidates t ~rel ~col ~factors] is the ascending row ids whose
    [col]-th component contains {e every} factor, or [None] when the
    probe does not apply (unknown relation, column out of range, empty
    factor list, or no factor of length [≥ q] — ⊤, scan instead).
    Factors longer than [q] are decomposed into their [q]-grams; a
    factor with a character outside the alphabet yields [Some [||]]
    (nothing stored can contain it). *)

val candidates_atleast :
  t ->
  rel:string ->
  col:int ->
  factors:string list ->
  min_hits:int ->
  int array option
(** [candidates_atleast t ~rel ~col ~factors ~min_hits] is the ascending
    row ids whose [col]-th component contains at least [min_hits]
    {e distinct} factors of the list (each factor of length exactly
    [q]; others are dropped).  [None] when the probe does not apply or
    [min_hits <= 0] (⊤); [Some [||]] when [min_hits] exceeds the number
    of usable factors. *)

val select :
  t -> rel:string -> ids:int array -> Strdb_calculus.Database.tuple list
(** The tuples with the given row ids, in id order.
    @raise Strdb_calculus.Database.Schema_error on an unknown relation;
    @raise Invalid_argument on an out-of-range id. *)

val grams : t -> string -> string list
(** The distinct [q]-grams of a string, ascending — the pattern side of
    the q-gram lemma ([candidates_atleast] probes). *)

(** {1 Probe telemetry}

    Cheap per-store counters (atomic; probes run on the planning path
    but pools may share a store), so benches can report candidate-set
    sizes and verification ratios per query, not just wall time. *)

type probe_stats = {
  probes : int;  (** probe calls that produced a candidate set. *)
  candidate_rows : int;  (** candidate rows returned, summed. *)
  scanned_rows : int;  (** relation rows the scans would have visited. *)
}

val probe_stats : t -> probe_stats
val reset_probe_stats : t -> unit

(** {1 Toggle} *)

val enabled : unit -> bool
(** Is index pruning switched on?  Defaults to true; the [STRDB_INDEX]
    environment variable set to an off spelling ({!Strdb_util.Knob})
    disables it at startup (the planner then scans, exactly the
    pre-index engine). *)

val set_enabled : bool -> unit
(** Flip at runtime (benches measure scan vs probe this way). *)

(** {1 Sorted-id plumbing} *)

val intersect_ids : int array -> int array -> int array
(** Intersection of two ascending, duplicate-free id arrays. *)
