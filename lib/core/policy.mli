(** Online per-region backend election for adaptive hybrid write
    detection.

    One controller per machine (armed by [Config.adaptive]); the runtime
    feeds it one observation per transfer and asks for a decision at
    safe points.  The controller keeps, per region, a window of two
    running cost estimates priced from the cost model — what the
    window's transfers would have cost under RT (dirtybit) detection and
    under VM (page-fault) detection — and recommends the cheaper backend
    once it undercuts the current one by more than the hysteresis
    margin.  Purely deterministic: same observations, same decisions. *)

type t

val create : cost:Midway_stats.Cost_model.t -> unit -> t
(** A region's window needs 8 transfers before {!decide} speaks.  The
    challenger must beat the incumbent's estimated cost by 25%, and by
    more than the cost model's page-fault time: a switch epoch-bumps
    every intersecting binding, so saving a few hundred nanoseconds is
    never worth one.  Two decision windows are sat out after each
    switch, so a workload at the break-even point cannot thrash (each
    switch forces a round of full transfers). *)

val note_collect :
  t ->
  region:int ->
  line_size:int ->
  bound_bytes:int ->
  payload_bytes:int ->
  payload_pages:int ->
  payload_runs:int ->
  rebound:bool ->
  unit
(** Fold one transfer into the region's window.  [payload_pages] and
    [payload_runs] are the distinct pages and contiguous runs the
    shipped payload covers; [rebound] marks a rebinding-forced full
    transfer (diff-free under VM — see the paper's quicksort
    discussion). *)

val manages : Config.backend -> bool
(** Whether the controller elects for regions running this backend:
    [Rt] and [Vm] only. *)

val decide : t -> region:int -> current:Config.backend -> Config.backend option
(** Close the region's window and recommend a switch, or [None] to stay.
    Only meaningful for regions currently running [Rt] or [Vm]
    (raises [Invalid_argument] otherwise).  Returns [None] without
    closing the window while fewer than 8 transfers have accumulated. *)

val note_switch : t -> region:int -> unit
(** The runtime committed a switch for this region: start the cooldown. *)

val window : t -> region:int -> int * int * int
(** [(collects, est_rt_ns, est_vm_ns)] of the region's open window —
    test hook. *)
