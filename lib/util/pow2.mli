(** Powers of two, for sizes that turn divisions into shifts. *)

val is_power_of_two : int -> bool

val log2 : int -> int
(** [log2 n] for a power of two [n]: the shift that multiplies or
    divides by [n].  Raises [Invalid_argument] for any other [n]. *)
