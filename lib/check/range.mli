(** Address ranges: the unit of entry-consistency data binding, and the
    one interval algebra of the tree.

    The programmer associates a lock or barrier with the ranges of shared
    memory it protects; collection scans exactly these ranges.  Ranges are
    half-open byte intervals [\[addr, addr+len)].

    The module lives in [midway_check] — the dependency-free layer below
    the simulator — so the runtime (which re-exports it as
    [Midway.Range]), the ECSan binding index and the static analyzer all
    share a single implementation of normalize/merge/overlap instead of
    carrying private copies. *)

type t = { addr : int; len : int }

val v : int -> int -> t
(** [v addr len]; raises [Invalid_argument] on negative values. *)

val limit : t -> int
(** One past the last byte. *)

val is_empty : t -> bool

val normalize : t list -> t list
(** Sort by address, drop empty ranges and merge overlapping or adjacent
    ones.  A list that is already normalized comes back as it is,
    without a copy. *)

val total_bytes : t list -> int
(** Sum of lengths (after normalization overlaps are not double counted;
    this function assumes a normalized list). *)

val overlaps : t -> t -> bool
(** Non-empty intersection.  Adjacent ranges do not overlap, and an
    empty range overlaps nothing (not even a range containing its
    address). *)

val intersect : t -> t -> t option

val clip : t -> within:t list -> t list
(** Pieces of [t] that fall inside the (normalized) range list. *)

val subtract : t -> minus:t list -> t list
(** Pieces of [t] not covered by the (normalized) range list. *)

val contains : t list -> addr:int -> len:int -> bool
(** Whether the (normalized) list fully covers [addr, addr+len). *)

val iter_lines : t -> line_size:int -> f:(addr:int -> len:int -> unit) -> unit
(** Visit the cache lines overlapping the range: calls [f] once per line
    with the line's full extent (aligned start, [line_size] bytes), i.e.
    partially covered lines are widened to line granularity, because a
    dirtybit describes the whole line. *)

(** {1 List algebra}

    Set operations over range lists, used by the sanitizer's binding
    index and the static analyzer.  All results are normalized. *)

val mem : t list -> int -> bool
(** Membership of a point. *)

val union : t list -> t list -> t list

val inter : t list -> t list -> t list

val subtract_list : t list -> minus:t list -> t list
(** Pieces of the first list not covered by the second. *)

val covers : t list -> t list -> bool
(** [covers ranges sub]: every byte of [sub] lies inside [ranges]. *)

val iter_points : t list -> f:(int -> unit) -> unit
(** Visit every integer point of a normalized list. *)
