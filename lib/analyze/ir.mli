(** The EC-IR: an entry-consistency program as data.

    A program is a grid of per-processor operation sequences grouped
    into barrier-separated {e rounds}: every processor finishes its
    round-[r] sequence and crosses the round barrier before any
    processor starts round [r+1].  Within a round the per-processor
    sequences interleave arbitrarily; across rounds they are strictly
    ordered.  That is the happens-before structure the static analyzer
    exploits.

    The IR mirrors the observable surface of the runtime (acquire /
    release / rebind / typed loads and stores / private stores), so the
    same program can be run dynamically under ECSan and analyzed
    statically, and the two verdicts compared. *)

module Range = Midway_check.Range

type mode = Shared | Exclusive

type op =
  | Acquire of { lock : int; mode : mode }
  | Release of int
  | Read of Range.t  (** a load from shared memory, byte-granular *)
  | Write of Range.t  (** a store to shared memory *)
  | Write_private of Range.t  (** a store through the uninstrumented path *)
  | Rebind of { lock : int; ranges : Range.t list }
  | Work of int  (** local compute; no shared-memory effect *)

type program = {
  name : string;
  nprocs : int;
  locks : (int * Range.t list) list;  (** id, initial binding *)
  barriers : (int * Range.t list) list;  (** id, binding (fixed for life) *)
  rounds : op list array array;  (** [rounds.(r).(p)] = proc [p]'s ops in round [r] *)
}

val validate : program -> string list
(** Structural sanity: undeclared sync ids, ragged round grids,
    non-positive [nprocs].  Empty list means well-formed.  The analyzer
    tolerates unbalanced acquire/release — that is a program property it
    reasons about, not a structural error. *)

val pp_ranges : Range.t list -> string

val pp : program -> string
(** Multi-line rendering for diagnostics and tests. *)
