(** The engine's environment switches, read with one spelling rule.

    A value is trimmed and lowercased; [0], [false], [off] and [no] mean
    off.  An unset or blank variable takes the default.  Only the
    switches that select a real alternative the planner needs anyway
    read the environment: [STRDB_DOMAINS], [STRDB_FUSE], [STRDB_INDEX]
    and [STRDB_PLAN_CACHE]. *)

val flag : string -> default:bool -> bool
(** [flag name ~default]: false for an off spelling, true for any other
    value, [default] when unset or blank. *)

val int : string -> default:int -> off:int -> int
(** [int name ~default ~off]: [off] for an off spelling, the value
    itself when it is an integer of at least [off], else [default]. *)
