(** Word-granularity page diffing.

    VM-DSM compares a dirty page against its twin to produce a *diff*: a
    succinct description of the modified words (paper, section 3.4).  A
    diff is a list of runs of contiguous modified 32-bit words.  The cost
    model needs the number of modified/unmodified *transitions* across the
    scan, since the measured diff cost ranges from 260 us (uniform page)
    to 1,870 us (every other word changed). *)

type run = { off : int; len : int }
(** A run of modified bytes at byte offset [off] (word aligned, length a
    multiple of the word size except possibly at a range tail). *)

val word_size : int
(** 4 bytes, as on the MIPS R3000. *)

val scan_between :
  old_:Bytes.t ->
  old_off:int ->
  new_:Bytes.t ->
  new_off:int ->
  len:int ->
  ('a -> int -> int -> unit) ->
  'a ->
  int
(** [scan_between ~old_ ~old_off ~new_ ~new_off ~len run ctx] compares
    the windows [old_off, old_off+len) of [old_] and [new_off,
    new_off+len) of [new_] and calls [run ctx off len] for each run of
    modified bytes as the scan finds it, in increasing order, [off]
    relative to the start of the window; it returns the number of
    transitions.  Building nothing itself, it lets a caller ship or
    save each run without a run list: give it a [run] that captures
    nothing, with its state in [ctx].  [run] may overwrite the [old_]
    window up to the end of the run it is given, which the scan has
    passed.  Raises [Invalid_argument] when a window leaves its
    buffer. *)

val diff_between :
  old_:Bytes.t -> old_off:int -> new_:Bytes.t -> new_off:int -> len:int -> run list * int
(** {!scan_between} collecting the runs, in increasing order, with the
    transitions. *)
