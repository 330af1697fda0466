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
    nothing, with its state in [ctx].  {!diff} and {!diff_between} are
    this scan with a list-building [run].  Raises [Invalid_argument]
    when a window leaves its buffer. *)

val diff : old_:Bytes.t -> new_:Bytes.t -> off:int -> len:int -> run list * int
(** [diff ~old_ ~new_ ~off ~len] scans the byte range [off, off+len) of
    both buffers and returns the modified runs (offsets relative to the
    buffer) in increasing order, plus the number of transitions between
    modified and unmodified words.  Both buffers must be at least
    [off+len] long. *)

val diff_between :
  old_:Bytes.t -> old_off:int -> new_:Bytes.t -> new_off:int -> len:int -> run list * int
(** Like {!diff} but the compared windows start at independent offsets in
    the two buffers, and run offsets are reported relative to the start
    of the window (0-based).  Lets the caller diff a page twin against a
    zero-copy view of live memory without first copying the page. *)

val runs_bytes : run list -> int
(** Total modified bytes described by a diff. *)

val apply : src:Bytes.t -> dst:Bytes.t -> run list -> unit
(** Copy each run from [src] into [dst] (same offsets). *)

val apply_to : src:Bytes.t -> dst:Bytes.t -> src_off:int -> dst_off:int -> run list -> unit
(** Like {!apply} with a relocation: each run offset is interpreted
    relative to [src_off] in [src] and [dst_off] in [dst]. *)
