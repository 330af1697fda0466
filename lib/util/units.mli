(** Unit conversions and human-readable formatting.

    The simulator keeps virtual time in integer nanoseconds and data sizes
    in bytes; the paper reports microseconds, milliseconds, seconds, KB and
    MB. These helpers centralize the conversions so the report code cannot
    drift. *)

val us_of_ns : int -> float
val ms_of_ns : int -> float
val s_of_ns : int -> float

val kb_of_bytes : int -> float
val mb_of_bytes : int -> float

val pp_time : int -> string
(** Nanoseconds rendered with an adaptive unit, e.g. ["360 ns"],
    ["1.20 ms"], ["104.2 s"]. *)

val pp_bytes : int -> string
(** Bytes rendered with an adaptive unit, e.g. ["784 KB"], ["9.1 MB"]. *)
