(** Per-processor dirtybit tables for RT-DSM.

    Every shared cache line cached on a processor has a dirtybit elsewhere
    in that processor's memory (paper, section 3.1).  A dirtybit is a
    timestamp word ({!Timestamp}): the store template writes the
    {!Timestamp.locally_dirty} sentinel, and the sentinel is lazily
    replaced by the processor's Lamport time when the guarding
    synchronization object is transferred (write collection, section 3.2).

    Three trapping organizations are provided (section 3.5 discusses the
    two alternatives):

    - [Plain]: one timestamp per line; collection scans every bound line.
    - [Two_level]: a first-level dirty bit covers a group of lines, and a
      per-group maximum timestamp lets collection skip whole groups that
      are clean and older than the requester's cursor, at the price of one
      extra store per write.
    - [Update_queue]: writes append to a coalescing queue; collection
      consumes queue entries instead of scanning, at roughly triple the
      trapping cost.  (The timestamp table is still maintained as the
      update history.)

    A region's table covers the lines in use, not the whole region, the
    same way a processor's copy of the region does
    ({!Midway_memory.Region.extent}): it is created at the first write,
    stamp or scan over the region's allocated lines, rounded to whole
    [Two_level] groups, and grows geometrically (keeping every
    timestamp, first-level bit and group maximum) when one of those
    reaches further.  A line the table does not cover holds
    {!Timestamp.initial}.

    This module only mutates data structures and reports what it did; cost
    charging and counter accounting belong to {!Detector}. *)

type t

val create : mode:Config.rt_mode -> group:int -> t
(** [group] is the number of lines covered by a first-level bit in
    [Two_level] mode; it must be a power of two, so that finding a
    line's group is a shift.  Raises [Invalid_argument] otherwise. *)

val mode : t -> Config.rt_mode

val note_write : t -> region:Midway_memory.Region.t -> addr:int -> len:int -> unit
(** Record a store to [addr, addr+len): mark the overlapping lines locally
    dirty (and, per mode, set the first-level bit or append to the
    queue). *)

val line_ts : t -> region:Midway_memory.Region.t -> addr:int -> Timestamp.t
(** Current dirtybit value of the line containing [addr]; a read only,
    so it never creates or grows a table. *)

val set_ts : t -> region:Midway_memory.Region.t -> addr:int -> ts:Timestamp.t -> unit
(** Install an incoming update's timestamp at this processor. *)

val set_ts_run :
  t -> region:Midway_memory.Region.t -> addr:int -> lines:int -> ts:Timestamp.t -> unit
(** Install one timestamp across [lines] consecutive lines starting at
    [addr] — the apply side of a coalesced run, and a stamp install: one
    fill, and in [Two_level] mode each group's maximum updated once.
    The run must lie within one region. *)

type scan_counts = {
  mutable clean_reads : int;  (** lines read and found stamped *)
  mutable dirty_reads : int;  (** lines read and found locally dirty (stamped during the scan) *)
  mutable group_checks : int;  (** [Two_level]: first-level bits examined *)
  mutable queue_entries : int;  (** [Update_queue]: queue entries consumed *)
}

type selection =
  | Transfer of Timestamp.t
      (** Lock transfer: emit every line whose timestamp exceeds the
          requester's cursor — the minimal update set. *)
  | Fresh_only
      (** Barrier arrival: emit only lines stamped during this scan (the
          processor's own modifications); every participant already holds
          the older history. *)

val scan :
  t ->
  region_of:(int -> Midway_memory.Region.t) ->
  ranges:Range.t list ->
  stamp:Timestamp.t ->
  select:selection ->
  emit:(addr:int -> len:int -> ts:Timestamp.t -> fresh:bool -> lines:int -> unit) ->
  scan_counts
(** Write collection for one synchronization point.  Visits the bound
    lines, stamps locally dirty lines with [stamp], and calls [emit] once
    per contiguous *run* of selected lines sharing a timestamp and
    freshness ([fresh] marks lines stamped by this scan; [lines] is the
    number of lines coalesced into the run, [len] their total bytes).
    The scan works a maximal stretch of equal timestamps at a time: one
    compare per line finds it, one fill stamps it when it is locally
    dirty, and it joins the pending run in one step.  The covered
    addresses, timestamps and counts are exactly those of a per-line
    visit and emission.  [region_of] maps an address to its
    region (runs never span regions).  In [Update_queue] mode only queued
    entries are visited: the caller is responsible for lines it received
    from third parties (see {!Detector}'s per-lock update-queue
    history). *)

val queue_length : t -> int
(** [Update_queue] mode: entries currently queued, counted by walking
    the queue (0 in other modes). *)

val reset_region : t -> Midway_memory.Region.t -> unit
(** Forget all detection state for one region: timestamps back to
    {!Timestamp.initial}, first-level bits and group maxima cleared over
    the table as far as it reaches (the table keeps its size), queued
    writes inside the region dropped.  Used when a region's
    detection backend is switched; the accompanying per-lock epoch bump
    makes the next transfer ship the bound data in full, so nothing
    forgotten is lost. *)
