(** The "twinning and differencing without write detection" alternative
    (paper, section 3.5).

    This strategy needs neither software dirtybits nor page faults: every
    shared data item bound to a synchronization object is *twinned* on any
    processor that synchronizes on it, and at each synchronization point
    all bound data is compared word-by-word against its twin to find the
    modifications.  The paper predicts its weakness — the comparison cost
    is proportional to the amount of *bound* data rather than the amount
    of dirty data, and the twins double the storage — and the ablation
    bench measures exactly that.

    Twins are kept per (processor, synchronization object).  A twin's
    baseline is the processor's last consistency point on the object; for
    data never synchronized the baseline is the initial zeroed memory, so
    a missing (or rebinding-invalidated) twin materializes as zeros.
    Incarnation history reuses the VM-DSM update log ({!Detector}), as
    the paper notes it must ("this approach would still require
    management of the update incarnations"). *)

type t

val create : unit -> t

val collect :
  t ->
  space:Midway_memory.Space.t ->
  proc:int ->
  counters:Midway_stats.Counters.t ->
  cost:Midway_stats.Cost_model.t ->
  id:int ->
  ranges:Range.t list ->
  Payload.vm_piece list * int
(** Compare the bound ranges against this processor's twin for object
    [id], refresh the twin, and return the modified pieces plus the
    comparison cost (charged for every bound byte — the point of the
    ablation). *)

val refresh : t -> space:Midway_memory.Space.t -> proc:int -> id:int -> ranges:Range.t list -> unit
(** Re-snapshot the twin from current memory (after a diff-free full
    transfer). *)

val apply_pieces :
  t ->
  space:Midway_memory.Space.t ->
  proc:int ->
  counters:Midway_stats.Counters.t ->
  cost:Midway_stats.Cost_model.t ->
  id:int ->
  ranges:Range.t list ->
  Payload.vm_piece list ->
  int
(** Apply incoming pieces at the requester, patching its twin for object
    [id] so the update is not re-collected as a local modification.
    Returns the apply cost. *)

val twin_bytes : t -> int
(** Total twin storage held — the section 3.5 storage-cost argument. *)
