(** Per-processor VM-DSM detection state: page table, twins, and the
    saved-diff store.

    Write trapping (paper, section 3.3): shared pages start write
    protected; the first store faults, twins the page, marks it dirty and
    grants write access.

    Write collection (section 3.4): at a transfer, dirty pages overlapping
    the bound data are diffed against their twins.  Modified words inside
    the bound ranges ship with the lock; modified words *outside* them
    (data on the same page bound to other synchronization objects — false
    sharing at page granularity) are saved so a later transfer of the
    other object can ship them without re-diffing, exactly as the paper's
    "the diff created for each page is saved and may be reused".  A
    page's saved diff is a page-sized shadow of the saved bytes plus a
    bitmap with one bit per byte of the page: saving sets bits, an
    applied piece clears them, and a transfer takes the maximal runs of
    set bits inside its bound ranges.  Twins and shadows are page
    buffers from one pool per processor, of at most 16: a cleaned page
    gives its twin back and an emptied saved diff its shadow.

    Every [ranges] argument below must be normalized ({!Range.normalize}),
    as every binding's ranges are. *)

type t

val create : page_size:int -> t

val page_table : t -> Midway_vmem.Page_table.t

val on_write :
  t ->
  space:Midway_memory.Space.t ->
  proc:int ->
  counters:Midway_stats.Counters.t ->
  cost:Midway_stats.Cost_model.t ->
  addr:int ->
  int
(** Trap one store: if the page containing [addr] is write protected,
    simulate the write fault (twin the page from the processor's current
    memory, count it, and return the fault service time to charge);
    returns 0 when the page was already writable. *)

val on_store :
  t ->
  space:Midway_memory.Space.t ->
  proc:int ->
  counters:Midway_stats.Counters.t ->
  cost:Midway_stats.Cost_model.t ->
  addr:int ->
  len:int ->
  int
(** Trap a store of [len] bytes at [addr]: {!on_write} on every page it
    touches (a store of at most 8 aligned bytes touches one), returning
    the summed fault service time. *)

val collect :
  t ->
  space:Midway_memory.Space.t ->
  proc:int ->
  counters:Midway_stats.Counters.t ->
  cost:Midway_stats.Cost_model.t ->
  ranges:Range.t list ->
  Payload.vm_piece list * int
(** Collect the processor's modifications to the bound ranges: diff dirty
    pages (cleaning and re-protecting them), consume applicable saved
    diffs, and return the modified pieces inside [ranges] together with
    the collection cost in nanoseconds.  The pieces are the saved ones
    first, by descending address, then the fresh ones, by ascending
    address. *)

val apply_pieces :
  t ->
  space:Midway_memory.Space.t ->
  proc:int ->
  counters:Midway_stats.Counters.t ->
  cost:Midway_stats.Cost_model.t ->
  Payload.vm_piece list ->
  int
(** Apply incoming update pieces at the requesting processor: write the
    data, and for pages currently dirty also patch the twin so the update
    is not later mistaken for a local modification (section 3.4).  Saved
    diffs overlapping an applied piece are dropped — the incoming data is
    the protocol's current state for those words, so shipping the stashed
    shadow later would regress them.  Returns the apply cost in
    nanoseconds. *)

val applied :
  t ->
  space:Midway_memory.Space.t ->
  proc:int ->
  counters:Midway_stats.Counters.t ->
  cost:Midway_stats.Cost_model.t ->
  addr:int ->
  len:int ->
  int
(** An incoming update's [len] bytes at [addr], already written into the
    processor's memory, as {!apply_pieces} applies one piece: patch the
    twins of dirty pages from memory and drop the saved diffs it
    overlaps.  Returns the piece's apply cost in nanoseconds. *)

val absorb :
  t -> space:Midway_memory.Space.t -> proc:int -> ranges:Range.t list -> unit
(** Declare the current contents of [ranges] consistent without a
    collection: patch the twins of dirty pages so those words no longer
    read as local modifications.  Used by the diff-free full transfer
    after a rebinding — the shipped data is the protocol's current state,
    so a later diff (possibly for another object sharing the page) must
    not resurrect it.  Pages stay dirty and writable; words outside
    [ranges] are untouched.  Free of simulated cost: the transfer it
    rides on already shipped the data. *)

val discard_pending : t -> ranges:Range.t list -> unit
(** Drop saved diffs that fall inside [ranges] (normalized), visiting
    only the pages under them.  Used by a diff-free full
    transfer: the full data supersedes any stashed modifications, and
    leaving them behind would later regress the receiver to stale
    values. *)

val pending_pages : t -> int
(** Number of pages with saved (unshipped) diff data — test hook. *)

val forget : t -> ranges:Range.t list -> unit
(** Forget all detection state covering [ranges]: untwin, clean and
    re-protect the overlapping pages and drop their saved diffs, as if
    no store had ever faulted there.  Used when a region's detection
    backend is switched away from VM — correctness is preserved because
    the switch also epoch-bumps every lock bound in the region, so the
    next transfer ships the bound data in full regardless of what
    detection forgot. *)
