(** Run configuration: which write-detection backend, which machine model.

    A single Midway build can be configured as an RT-DSM or a VM-DSM
    (paper, section 3); this record selects the backend and holds every
    machine parameter some caller varies, so a run is reproduced by its
    [t].  The parameters no caller varies are constants where they are
    used: the network's latency, bandwidth and header
    ({!Midway_simnet.Net.transfer_ns}), the wire descriptor
    ({!Payload.descriptor_bytes}), the default line size
    ({!Runtime.alloc}), the two-level group and the synchronization
    costs the paper does not measure
    ({!Midway_stats.Cost_model.local_lock_ns} and its neighbours).
    {!Runtime.validate} decides which configurations may run. *)

type backend =
  | Rt  (** compiler/runtime write detection: per-line dirtybit timestamps *)
  | Vm  (** virtual-memory write detection: page faults, twins and diffs *)
  | Blast  (** no detection: ship all bound data on every transfer (section 3.5 straw man) *)
  | Twin  (** no detection: twin all bound data and compare it at every synchronization point (the second section 3.5 alternative) *)
  | Vm_fine  (** VM trapping with an RT-style per-line timestamp history, the finer-grained variant section 3.4 describes and rejects: "at least the same data collection overhead as the RT-DSM ... and the additional overhead of trapping and detection for VM-DSM" *)
  | Standalone  (** no detection and no consistency: the uniprocessor baseline *)

val backend_name : backend -> string

val backend_names : string list
(** The canonical spellings, in declaration order — what
    {!backend_of_string} errors list as valid. *)

val backend_of_string : string -> (backend, string) result
(** The one shared backend parser: names are matched exactly (no
    trimming, no case folding), so every binary rejects whitespace and
    case drift identically.  Errors list the valid names; a name that
    would parse after normalization gets a did-you-mean hint. *)

type rt_mode =
  | Plain  (** one dirtybit (timestamp word) per line — the paper's main scheme *)
  | Two_level  (** section 3.5: a first-level bit covers a group of lines; one extra store per write (~10%), collection skips clean groups *)
  | Update_queue  (** section 3.5: writes append to a coalescing queue; trapping roughly triples, collection is proportional to dirty data *)

val rt_mode_name : rt_mode -> string

type crash = {
  plan : Midway_simnet.Crash.plan;  (** the crash-stop / crash-recovery schedule *)
  broken_failover : bool;
      (** deliberately skip replication and the epoch bump — the
          seeded-bug demo the fuzzer must catch; never set it for real
          runs *)
}
(** Node-level fault configuration (see doc/FAULTS.md). *)

type t = {
  backend : backend;
  nprocs : int;
  cost : Midway_stats.Cost_model.t;
      (** the paper's Table 1; sweeps re-price it *)
  region_size : int;
  (* consistency model *)
  untargetted : bool;
      (** section 3.5 "other memory models": when true, every lock
          transfer makes the *entire* shared space consistent (as an
          untargetted model such as release consistency requires), so RT
          write collection must scan the dirtybit of every shared line —
          the case the two-level and update-queue organizations exist
          for.  RT backend only; barriers may carry no bound data. *)
  (* RT options *)
  rt_mode : rt_mode;
  (* VM options *)
  update_log_window : int;
      (** incarnations of saved updates kept per lock, at least 1
          ({!Runtime.validate}) *)
  trace_capacity : int;
      (** arm the protocol event log ({!Runtime.log}) keeping the most
          recent [trace_capacity] events, for the text tail and failure
          context; [0] (the default) arms none.  Negative values are
          rejected by {!Runtime.validate}. *)
  seed : int;
  (* scheduling *)
  sched_policy : Midway_sched.Engine.policy;
      (** Tie-break policy of the discrete-event engine
          ({!Midway_sched.Engine.policy}).  [Fifo] (the default) is the
          historical deterministic order and is bit-identical to builds
          without the schedule explorer; [Seeded] / [Replay] make the
          tie-break order among causally concurrent events an explored,
          replayable dimension (see doc/SIMULATION.md and
          [bin/midway_fuzz.ml]). *)
  (* sanitizer *)
  ecsan : bool;
      (** arm ECSan, the entry-consistency sanitizer
          ({!Midway_check.Check}): every instrumented access and
          synchronization event is checked against the binding table and
          violations are collected in {!Runtime.check_report}.  [false]
          (the default) compiles the hooks down to a single [match] per
          access, so simulated results are bit-identical to an
          unsanitized build. *)
  (* fault injection *)
  faults : Midway_simnet.Net.fault_policy option;
      (** [None] (the default) is the perfectly reliable fabric — the
          protocol takes exactly the pre-fault code path, so runs are
          bit-identical to a build without the fault layer.  [Some
          policy] arms {!Midway_simnet.Net} fault injection and routes
          every protocol message through the
          {!Midway_simnet.Reliable} ack/retransmission channel, which
          runs {!Midway_simnet.Reliable.default_config}. *)
  crash : crash option;
      (** [None] (the default) models perfectly reliable processors —
          the recovery state is inert (no scheduled stop, no
          replication, no watchdog), so runs are bit-identical to a
          build without the crash layer, the same contract as [faults]
          / [ecsan] / [obs].  [Some c] arms the {!Midway_simnet.Crash}
          schedule, routes every message through the reliable channel
          (even with [faults = None]), and enables the quorum failover
          / replication recovery protocol (lib/core/recovery.ml, whose
          constants doc/FAULTS.md lists). *)
  (* observability *)
  obs : bool;
      (** arm the observability layer: the event log keeps every event
          (overriding [trace_capacity]), readable through {!Runtime.obs},
          from which the Perfetto spans and the metrics registry are
          computed ({!Midway_obs.Obs}, {!Midway_obs.Trace_export}).
          [false] (the default) records nothing, and recording never
          charges simulated time, so results are bit-identical either
          way — the same contract as [ecsan]. *)
  (* per-region hybrid detection *)
  adaptive : bool;
      (** arm the online per-region backend controller ({!Policy}): at
          every release whose lock has no other holders, the policy may
          re-elect the detection backend of the regions the lock binds,
          using the same quantities the lib/obs metrics export (dirty
          bytes per collect, trap counts, fault counts, re-binding
          rate).  [false] (the default) never switches, so runs are
          bit-identical to a fixed-backend build — the same
          off-is-invisible contract as [ecsan] / [faults] / [obs]. *)
}

val make : ?cost:Midway_stats.Cost_model.t -> backend -> nprocs:int -> t
(** Defaults model the paper's testbed: the Table 1 costs (4 KB pages),
    16 MiB regions, [Plain] RT trapping, an update-log window of 16
    incarnations, no faults and no crashes. *)

val with_schedule_seed : int -> t -> t
(** Arm the seeded tie-break policy: the engine picks uniformly among
    runnable fibers whose virtual clocks are tied, recording every
    choice so the run is replayable from [(workload seed, schedule
    seed)] alone. *)

val with_replay : int list -> t -> t
(** Replay a recorded tie-break choice list (see
    {!Runtime.schedule_choices}); ties beyond the end of the list fall
    back to FIFO. *)

val with_faults : ?duplicate:float -> ?jitter_ns:int -> ?seed:int -> drop:float -> t -> t
(** Arm uniform fault injection: every link drops a copy with
    probability [drop], duplicates with [duplicate] (default 0), and
    jitters arrival by up to [jitter_ns] (default 0).  The injection
    seed defaults to the run seed, so a configuration is reproducible
    end to end. *)

val with_crash : ?broken:bool -> Midway_simnet.Crash.plan -> t -> t
(** Arm node-level faults with the given crash plan ([broken] defaults
    to [false]).  {!Runtime.validate} rejects a plan naming a processor
    the machine lacks, or armed on the standalone backend. *)
