(** A map from page number to one value per page, held in arrays.

    A directory has one slot per 4,096 consecutive page numbers (16 MiB
    of 4 KiB pages), and each slot's array is as long as the highest
    page touched in it, grown geometrically.  A region's pages are
    numbered contiguously from its base, so the arrays grow with the
    pages in use, as a processor's copy of a region does, and a lookup
    is two array loads: no hashing and no comparison of boxed keys. *)

type 'a t

val create : absent:'a -> 'a t
(** An empty map.  [absent] stands for "no value": {!get} returns it for
    a page never set, and setting it removes the page. *)

val get : 'a t -> int -> 'a
(** The value of a page number, or [absent] (also for a negative
    number). *)

val set : 'a t -> int -> 'a -> unit
(** Raises [Invalid_argument] on a negative page number. *)

val iter : ('a -> unit) -> 'a t -> unit
(** Every present value, in ascending page order. *)

val count : 'a t -> int
(** The number of present values. *)
