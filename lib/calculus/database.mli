(** String databases (Section 2).

    A database maps relation symbols to finite relations over [Σ*]: each
    position of a tuple holds a finite string of arbitrary length.  This
    module is deliberately tiny — relations are sorted tuple lists — because
    it is the {e model}; the algebra layer supplies the operators. *)

type tuple = string list
(** A database tuple; all tuples of a relation share one arity. *)

type t
(** A database instance: finitely many named finite relations. *)

exception Schema_error of string
(** Raised on arity mismatches or unknown relation symbols. *)

val empty : t
(** The database with no relations. *)

val add : t -> string -> arity:int -> tuple list -> t
(** [add db r ~arity tuples] (re)binds relation symbol [r].  Tuples are
    deduplicated and sorted.  @raise Schema_error if a tuple's length
    differs from [arity]. *)

val of_list : (string * tuple list) list -> t
(** Build a database, inferring each arity from the first tuple (empty
    relations get arity 0).  @raise Schema_error on ragged relations. *)

val find : t -> string -> tuple list
(** The tuples of a relation.  @raise Schema_error when unbound. *)

val arity : t -> string -> int
(** The arity of a relation.  @raise Schema_error when unbound. *)

val mem : t -> string -> tuple -> bool
(** Membership test: a binary search of the sorted relation, O(log |R|)
    tuple comparisons. *)

val relations : t -> (string * int) list
(** The bound relation symbols with their arities, sorted by name. *)

val max_string_length : t -> int
(** The paper's [max(R, db)] aggregated over all relations: the length of
    the longest string anywhere in the database (0 when empty).  Limit
    functions are built from this quantity. *)

val check_alphabet : Strdb_util.Alphabet.t -> t -> unit
(** Verify every stored string is over the alphabet.
    @raise Strdb_util.Alphabet.Invalid_alphabet otherwise. *)

val pp : Format.formatter -> t -> unit
(** Listing of all relations and tuples. *)
