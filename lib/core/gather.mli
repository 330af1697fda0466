(** A reusable accumulator of write-collection runs.

    A run is [descs] contiguous, equally sized cache lines at [addr],
    [len] bytes in all, sharing the timestamp [ts]; [descs] is the
    number of line descriptors it stands for on the wire, and per-line
    values (history, install costs) divide [len] by [descs].  A run
    never spans regions.  The RT collectors push the runs they select
    here, and an RT payload ({!Payload.rt_runs}) names them as they
    are: the arrays are kept across collections, so a collection of a
    steady size allocates nothing. *)

type t

val create : unit -> t

val clear : t -> unit
(** Forget every run; the arrays are kept. *)

val seal : t -> unit
(** Close the last run: the next {!push_line} starts a new one even if
    contiguous.  Callers seal at region boundaries so a run never mixes
    line sizes. *)

val length : t -> int
(** Runs held. *)

val addr : t -> int -> int
val len : t -> int -> int
val ts : t -> int -> Timestamp.t
val descs : t -> int -> int
(** The fields of run [i], [0 <= i < length t] (unchecked). *)

val push_run : t -> addr:int -> len:int -> ts:Timestamp.t -> descs:int -> unit
(** Append a run; it is closed. *)

val push_line : t -> addr:int -> len:int -> ts:Timestamp.t -> unit
(** Append one line, extending the last run when it is open, contiguous
    and carries the same timestamp (for collectors that visit lines
    individually, e.g. from page-diff pieces). *)

val total_bytes : t -> int
(** Bytes of every run. *)

val descriptors : t -> int
(** Line descriptors of every run. *)

val copy : t -> t
(** The runs, in arrays of their own sized to them: what a barrier
    arrival keeps while its processor's accumulator is cleared and
    refilled by later collections. *)
