(** The Midway runtime: a simulated DSM multicomputer.

    A [Runtime.t] assembles the whole machine — the discrete-event engine,
    the shared address space, the network, the per-processor write
    detection state and operation counters — and implements the entry
    consistency protocol over them.

    Typical use:
    {[
      let rt = Runtime.create (Config.make Rt ~nprocs:8) in
      let data = Runtime.alloc rt ~line_size:64 (n * 8) in
      let lock = Runtime.new_lock rt [ Range.v data (n * 8) ] in
      Runtime.run rt (fun c ->
          Runtime.acquire c lock;
          Runtime.write_f64 c data 1.0;
          Runtime.release c lock);
      Printf.printf "took %s\n" (Midway_util.Units.pp_time (Runtime.elapsed_ns rt))
    ]}
 *)

type t

type ctx
(** A processor's view of the machine, passed to its program. *)

(** {1 Machine construction} *)

val validate : Config.t -> (unit, string) result
(** Whether the configuration may run, with the first rule it breaks:
    the standalone backend is uniprocessor; the untargetted model needs
    rt; adaptive detection needs rt or vm and targetted bindings; ECSan
    needs targetted bindings; [trace_capacity] is not negative;
    [update_log_window] is at least 1; a crash plan names only the
    machine's processors and needs a distributed backend. *)

val create : Config.t -> t
(** Raises [Invalid_argument ("Runtime.create: " ^ msg)] when
    {!validate} returns [Error msg]. *)

val config : t -> Config.t

val space : t -> Midway_memory.Space.t

val net : t -> Midway_simnet.Net.t

val counters : t -> int -> Midway_stats.Counters.t
(** Processor [i]'s operation counters. *)

val all_counters : t -> Midway_stats.Counters.t array

val log : t -> Midway_obs.Obs.t option
(** The protocol event log ({!Midway_obs.Event}): [Some] iff
    {!Config.t.obs} (every event) or {!Config.t.trace_capacity} > 0 (the
    most recent [trace_capacity] events).  The runtime records one event
    per protocol fact where it counts the fact, so each counter an event
    accounts for equals a fold over the log; it builds none when neither
    the log nor ECSan, the stream's other subscriber, is armed.  A failed
    operation (a release of a lock the caller does not hold) records
    nothing.  Its tail is the text that [midway-run --trace N] prints and
    the context of ECSan findings. *)

val obs : t -> Midway_obs.Obs.t option
(** The complete event log — [Some] iff {!Config.t.obs}, so the spans
    ({!Midway_obs.Obs.spans}) and the metrics registry
    ({!Midway_obs.Obs.metrics}) computed from it cover the whole run.
    Export with {!Midway_obs.Trace_export} /
    {!Midway_obs.Metrics.to_json}; see doc/OBSERVABILITY.md. *)

val alloc : t -> ?line_size:int -> ?private_:bool -> int -> int
(** Allocate shared (default) or private memory; returns the base
    address.  [line_size] sets the software cache-line size of the
    containing region (default 64 bytes). *)

val new_lock : t -> ?owner:int -> Range.t list -> Sync.lock
(** A lock binding the given data ranges, initially owned (not held) by
    [owner] (default processor 0). *)

val new_barrier : t -> ?participants:int -> ?manager:int -> Range.t list -> Sync.barrier
(** A barrier over [participants] processors (default: all) binding the
    given ranges; bound data is made consistent at every crossing.
    [manager] (default 0) is the processor that merges and redistributes
    arrivals — for a neighbour-pair barrier pick one of the members so
    traffic does not detour through processor 0. *)

exception Crash_unavailable of string
(** With crash faults armed: a live requester suspected a dead lock
    owner but could not assemble a majority quorum for the failover, so
    the run cannot make progress without risking a split brain.  Only
    raised when the crash plan downs at least half the membership. *)

val run : t -> (ctx -> unit) -> unit
(** Run the same program on every processor, to completion.  May be
    called once.  Raises {!Midway_sched.Engine.Deadlock} on a
    synchronization bug.

    With {!Config.t.crash} armed, processors crash-stop at their
    scheduled times (taking effect at synchronization points): a crashed
    fiber unwinds with {!Midway_sched.Engine.Killed}, and as it leaves
    its program, at its clock, [run] fails its held locks over to live
    processors by majority quorum and repairs the barriers it manages
    or was missing from; the engine then ends the fiber, and the run
    completes with the survivors.  May then raise {!Crash_unavailable}
    (see above). *)

val run_each : t -> (ctx -> unit) array -> unit
(** Run a distinct program per processor (length must equal [nprocs]). *)

val check_invariants : t -> string list
(** After [run]: verify structural protocol invariants — no lock or
    barrier left held/parked, no pending requests, every processor's
    detectors' own checks ({!Detector.invariants}: no locally-dirty
    timestamp-history lines on non-owners of a lock's data — a write
    without ownership — and no dirty page without a twin under vm and
    vm-fine alike), every binding inside mapped allocated
    memory, (with ECSan on) the sanitizer's binding index in sync with
    the protocol's own records, and (under fault injection) no message
    left unacked in the reliable channel.  Returns human-readable
    violations (empty = clean).  Useful in tests and when debugging
    simulated programs. *)

val check_report : t -> Midway_check.Check.report
(** The ECSan sanitizer's findings (see {!Midway_check.Check} and
    doc/ECSAN.md).  With {!Config.t.ecsan} off this is
    {!Midway_check.Report.disabled}; with it on, call after [run] for
    the full report.  Render with {!Midway_check.Report.render}; gate
    exit codes on {!Midway_check.Report.has_violations}. *)

val elapsed_ns : t -> int
(** After [run]: simulated execution time (max over processors). *)

val schedule_choices : t -> int list
(** The engine's recorded tie-break choices (oldest first; empty under
    the default FIFO policy).  Replaying them via
    {!Config.with_replay} reproduces the schedule exactly — the raw
    material of the schedule explorer's counterexamples.  Valid during
    and after [run], including when [run] raised. *)

(** {1 Crash-fault introspection}

    All three are trivial when {!Config.t.crash} is unset: no killed
    processors, zero failovers, availability 1. *)

val killed_procs : t -> int list
(** Processors whose fiber crash-stopped during the run, ascending. *)

val failover_count : t -> int
(** Total quorum ownership transfers across all locks. *)

val availability : t -> float
(** Fraction of processors still live at the end of the run. *)

(** {1 Per-region hybrid write detection}

    Write detection is a per-region choice.  The machine keeps an
    election table from region to scheme: every region runs the
    machine-wide default backend until it is re-elected, either manually
    ({!set_region_backend}) or online by the adaptive controller
    ({!Config.t.adaptive}, see {!Policy} and doc/ADAPTIVE.md).  Each
    processor keeps one {!Detector.t} per scheme it uses — the default
    built at {!create}, the others on first use — so a fixed-backend
    machine is the one-detector case.  A transfer runs under the scheme
    its binding's regions elected, or under {!Detector.lock_fallback} /
    {!Detector.barrier_fallback} when they differ.  A switch is only
    legal at a safe point — no intersecting lock held or read-held, no
    intersecting barrier mid-episode — and epoch-bumps every
    intersecting binding ({!Detector.rebind}), so the next transfer
    after a switch is a diff-free full and no stale detection state can
    leak across the boundary. *)

val region_backend_at : t -> addr:int -> Config.backend
(** The backend currently electing write detection for the region
    containing [addr]. *)

val set_region_backend : t -> addr:int -> Config.backend -> unit
(** Manually re-elect the backend of the region containing [addr].
    Raises [Invalid_argument] if either side of the switch is not
    electable ([Vm_fine] and [Standalone] are machine-wide only), if
    the configuration is untargetted, or if the region is not at a safe
    point.  A no-op when the region already runs the requested
    backend. *)

val region_assignments : t -> (int * Config.backend) list
(** Regions whose backend differs from the machine default, as
    [(region_index, backend)] pairs in index order. *)

val backend_switches : t -> int
(** Total committed region backend switches (manual + adaptive). *)

(** {1 Processor operations} *)

val id : ctx -> int

val nprocs : ctx -> int

val now_ns : ctx -> int

val work_ns : ctx -> int -> unit
(** Model local computation: advance this processor's clock. *)

val work_cycles : ctx -> int -> unit
(** Computation expressed in processor cycles (40 ns each by default). *)

val log_request : ctx -> lock:Sync.lock -> op:string -> since:int -> unit
(** Record an application request ([op], served under [lock]) that
    arrived at [since] and completes now, when a log is armed — the KV
    store's [kv_request] span. *)

(** {2 Shared memory access}

    Reads are local-memory reads (Midway's update protocol has no read
    misses) and charge nothing.  Writes perform the store and then run
    write trapping for the configured backend: RT sets the line's
    dirtybit via the region's template (charging the instrumented-store
    cost), VM checks page protection and may take a simulated write
    fault.  Writes to private regions through this interface model
    compiler misclassification and charge the null-template penalty.
    An access that crosses a region's end raises
    [Midway_memory.Space.Crosses_region], and one that leaves mapped
    memory [Midway_memory.Space.Unmapped], as [Space]'s typed accesses
    do. *)

val read_f64 : ctx -> int -> float
val write_f64 : ctx -> int -> float -> unit
val read_int : ctx -> int -> int
val write_int : ctx -> int -> int -> unit
val read_i32 : ctx -> int -> int32
val write_i32 : ctx -> int -> int32 -> unit
val read_u8 : ctx -> int -> int
val write_u8 : ctx -> int -> int -> unit
val read_bytes : ctx -> int -> len:int -> Bytes.t
val write_bytes : ctx -> int -> Bytes.t -> unit
(** Area store ([bcopy]-style): traps once per cache line touched. *)

val write_f64_private : ctx -> int -> float -> unit
val write_int_private : ctx -> int -> int -> unit
(** Stores the compiler classified as private: no instrumentation is
    emitted and no trapping cost is charged (paper, section 3.1 — "there
    is no need to instrument writes to memory that will not be referenced
    by other processors").  Use the ordinary [write_*] on a private
    region to model a *misclassified* store instead. *)

(** {2 Synchronization} *)

val acquire : ctx -> Sync.lock -> unit
(** Acquire in exclusive (write) mode.  A lock owned by this processor
    and not held is granted locally; otherwise a request goes to the
    current owner and the reply carries the updates this processor is
    missing.  Raises [Failure] on re-acquisition (locks are not
    reentrant). *)

val acquire_read : ctx -> Sync.lock -> unit
(** Acquire in non-exclusive (read) mode: any number of readers may hold
    the lock concurrently, each receiving the updates it is missing;
    ownership stays with the last writer.  An exclusive request waits
    until all readers release.  Requests are served in arrival order, so
    writers are not starved. *)

val release : ctx -> Sync.lock -> unit
(** Release either mode; pending requests are served in arrival order. *)

val rebind : ctx -> Sync.lock -> Range.t list -> unit
(** Change the lock's data binding (must hold the lock).  See
    {!Detector.rebind} for the backend-specific consequences. *)

val barrier : ctx -> Sync.barrier -> unit
(** Cross the barrier: ship this processor's modifications of the bound
    data to the manager, wait for all participants, and receive the other
    processors' modifications. *)
