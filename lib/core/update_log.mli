(** A lock's VM incarnation log (paper, section 3.4).

    Every incarnation-log collection of a lock closes one incarnation
    and logs what it collected: the diffed pieces, or a full marker when
    the collection shipped the whole bound data after a rebinding.  A
    requester whose cursor is [seen] missed incarnations [seen+1 ..]: it
    can be sent their pieces, oldest first, as long as the log still
    holds all of them.  The log keeps a lock's last [window] entries
    ([Config.update_log_window]), in a ring indexed by
    [incarnation mod window], each with its piece-byte total; a
    rebinding closes the current incarnation as a full marker and drops
    every earlier entry.  Two incarnations make each question a few
    integer compares: the oldest one logged since the last rebinding,
    and the newest full marker.  The ring is allocated at the first
    logged collection, so a lock that never has one (an RT lock) pays
    two ints for its rebindings and nothing else. *)

type t

val create : window:int -> t
(** An empty log at incarnation 0.  [window] must be at least 1
    ([Runtime.validate] refuses a smaller one). *)

val incarnation : t -> int
(** The current (open) incarnation: bumped by every logged collection
    and every rebinding. *)

val record : t -> Payload.vm_piece list -> bytes:int -> unit
(** Log a collection's pieces, whose data totals [bytes], as the current
    incarnation's, and open the next. *)

val record_full : t -> unit
(** Log a full transfer as the current incarnation's, and open the
    next. *)

val rebind : t -> unit
(** The lock was rebound: close the current incarnation as a full
    marker, forget every entry before it, and open the next. *)

val rebound_since : t -> seen:int -> bool
(** Whether a full marker newer than [seen] is still in the window:
    then the next transfer to that requester ships the bound data in
    full without diffing.  Asked before a collection. *)

val covers : t -> seen:int -> bool
(** Whether the log still holds every incarnation from [seen+1] to the
    newest logged one.  Asked after a collection was logged. *)

val update_bytes : t -> seen:int -> int
(** The summed piece bytes of incarnations [seen+1 ..].  Meaningful when
    {!covers} holds. *)

val updates : t -> seen:int -> Payload.vm_piece list list
(** The pieces of incarnations [seen+1 ..], oldest first: the order
    they apply in (a full marker contributes no pieces).  Meaningful
    when {!covers} holds. *)
