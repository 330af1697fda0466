(** The schedule explorer: fuzz driver, counterexample shrinking,
    record/replay.

    Sweeps a grid of (workload x backend x schedule seed) — optionally
    composed with fault injection and node-crash schedules, so fault
    schedules, crash schedules and thread schedules all vary together —
    judging every run by the workload's sequential oracle,
    {!Midway.Runtime.check_invariants} and the ECSan report.  A
    failure's crash-event list is shrunk by pointwise deletion, then
    its recorded tie-break choices are shrunk to a minimal
    verified-failing replay list, and the result is rendered as a
    counterexample file that reproduces the run from its text alone.
    See doc/SIMULATION.md ("The determinism contract") and
    [bin/midway_fuzz.ml]. *)

(** {1 Judging one run} *)

type judged = {
  j_failed : bool;
  j_reason : string;  (** "" when the run is clean; one line per check otherwise *)
  j_digest : string;
  j_choices : int list option;  (** [None] when the machine was lost *)
  j_trace : string list;  (** tail of the protocol event log, oldest first *)
}

val execute : Workload.t -> Midway.Config.t -> judged
(** Run once and apply all three checks (oracle, invariants, ECSan —
    the latter only if the configuration arms it). *)

(** {1 The sweep} *)

type spec = {
  workloads : Workload.t list;
  backends : Midway.Config.backend list;
  schedules : int;  (** schedule seeds per (workload, backend) pair *)
  schedule_seed : int;  (** base seed; run [i] uses [base + i] *)
  nprocs : int;
  ecsan : bool;
  adaptive : bool;
      (** arm {!Midway.Config.t.adaptive} per-region detection on runs
          whose machine default is rt or vm (other backends run the
          fixed configuration) *)
  fault_drop : float option;
  fault_seed : int;
  crash_events : int;
      (** seeded node-crash episodes per run ({!Midway_simnet.Crash.seeded});
          [0] (the default) = no crash dimension *)
  crash_seed : int;
  crash_horizon_ns : int;  (** window the seeded episodes land in *)
  crash_plan : Midway_simnet.Crash.plan option;
      (** explicit plan applied to every run; overrides the seeded
          dimension *)
  trace_capacity : int;  (** events kept in each run's log, for the failure tail *)
  max_shrink_runs : int;  (** re-execution budget of one shrink *)
}

val default_spec : spec
(** rt+vm backends, 8 schedules from seed 1, 4 processors, ECSan on,
    adaptive off, no faults, no crashes (crash seed 0xC0DE, horizon
    2 ms when armed), trace capacity 64, shrink budget 48 runs.
    [workloads] is empty — fill it in. *)

val clean_workloads : unit -> Workload.t list
(** The synthetic always-should-pass workloads (counter,
    readers-writer, mix). *)

val crash_workloads : unit -> Workload.t list
(** The clean workloads whose oracles judge crash runs (crashy, kv,
    kv-migrate, kv-crashy): what a crash-armed sweep runs by default. *)

val buggy_workloads : unit -> Workload.t list
(** The deliberately broken prey (order-sensitive, racy, deadlocky,
    kv-broken-migration). *)

val workload_of_name : ?scale:float -> string -> (Workload.t, string) result
(** The registry: counter | readers-writer | mix | order-sensitive |
    racy | crashy | crashy-broken | kv | kv-migrate |
    kv-broken-migration | kv-crashy | kv:SEED | ecgen:SEED |
    ecgen-buggy:SEED | one of the five application names.  [scale]
    (default 0.05) applies to applications only. *)

type counterexample = {
  c_workload : string;
  c_config : Midway.Config.t;
      (** the configuration the failing run used, with the (possibly
          shrunk) crash plan the failure reproduces under.  Its
          [sched_policy] is [Replay l] with [l] the minimal
          verified-failing choice list when the shrink reproduced the
          failure, and the failing run's [Seeded] schedule otherwise. *)
  c_schedule_seed : int;
  c_choices : int list option;  (** as recorded by the failing run *)
  c_reason : string;
  c_shrink_runs : int;
  c_trace : string list;
}

val shrunk : counterexample -> int list option
(** The minimal verified-failing choice list [c_config] replays, if the
    shrink found one. *)

type report = {
  total_runs : int;
  grid_points : int;  (** (workload, backend) combinations swept *)
  failures : counterexample list;
}

val validate : spec -> (unit, string) result
(** [Error] naming the first workload whose oracle does not judge crash
    runs ({!Workload.t.judges_crashes}) when the spec arms crashes
    ([crash_events > 0] or a [crash_plan]). *)

val run_spec : ?progress:(string -> unit) -> spec -> report
(** Sweep the grid.  Per (workload, backend) pair the seed loop stops
    at the first failure, which is then shrunk; clean pairs run all
    [schedules] seeds.  Raises [Invalid_argument] with {!validate}'s
    message when the spec is refused. *)

(** {1 Shrinking} *)

val shrink :
  budget:int -> fails:(int list -> bool) -> int list -> int list option * int
(** [shrink ~budget ~fails choices] minimizes a failing tie-break
    choice list under the re-execution oracle [fails]: confirm, binary
    search for the smallest failing prefix (an exhausted replay list
    falls back to FIFO), pointwise-zero surviving entries, and strip
    trailing zeros.  Returns the minimal verified-failing list (or
    [None] if the failure did not reproduce) and the number of
    re-executions spent.  At most [budget] re-executions. *)

val shrink_crash :
  budget:int ->
  fails:(Midway_simnet.Crash.plan -> bool) ->
  Midway_simnet.Crash.plan ->
  Midway_simnet.Crash.plan * int
(** Minimize a failing crash plan by pointwise event deletion under the
    re-execution oracle [fails] (candidates breaking a processor's
    Stop/Recover alternation are skipped for free).  A changed plan
    shifts all downstream timing, so [fails] should re-run the seeded
    schedule, not replay recorded choices.  Returns the minimal
    verified-failing plan — the input itself when nothing could be
    removed — and the re-executions spent. *)

(** {1 Counterexample files} *)

val render_counterexample : counterexample -> string
(** A small key=value text (comments carry the reason and trace tail)
    that {!parse_counterexample} reads back.  The run fields are read
    off [c_config]; [choices] is the shrunk list when the policy
    replays one, else the recorded list. *)

val parse_counterexample : string -> (string * Midway.Config.t, string) result
(** The workload name and the configuration of the first counterexample
    in the text, built the way the sweep builds its runs: the choice
    list replays when present, else the schedule seed re-runs. *)

val replay :
  ?scale:float -> ?trace_out:string -> ?metrics_out:string -> string * Midway.Config.t ->
  (judged, string) result
(** Re-execute a parsed counterexample.  [Error] when the workload is
    unknown, does not support the backend or does not judge crash runs
    under a crash-armed configuration, or the configuration fails
    {!Midway.Runtime.validate}; [Ok] with [j_failed = true] means the
    failure reproduced.  [trace_out] / [metrics_out] arm the
    observability layer (which never perturbs the run) and write the
    replayed schedule's Chrome trace / metrics JSON — the span timeline
    of a shrunk counterexample is usually the fastest way to see the
    ordering that breaks. *)

(** {1 Static analysis x dynamic confirmation}

    The workloads that carry an EC-IR lift ({!Workload.t.ir}) can be
    analyzed statically ({!Midway_analyze.Analyze}) before any run, and
    each static warning then handed to the explorer as a hunt target:
    a may-race is {e confirmed} when some execution makes ECSan report
    the same diagnostic class (and sync object, when both name one), a
    lock cycle when some execution deadlocks. *)

type confirmation = {
  cf_finding : Midway_analyze.Analyze.finding;
  cf_confirmed : (Midway.Config.backend * int) option;
      (** the (backend, schedule seed) of the first realizing run *)
  cf_runs : int;  (** executions spent hunting this finding *)
}

val confirm_static :
  ?backends:Midway.Config.backend list ->
  ?schedules:int ->
  ?schedule_seed:int ->
  ?nprocs:int ->
  Workload.t ->
  (Midway_analyze.Analyze.report * confirmation list) option
(** Analyze, then hunt every static warning over (backend x schedule
    seed) with ECSan forced on — defaults rt+vm, 6 seeds from 1,
    4 processors.  [None] when the workload has no IR lift.  Warnings
    left unconfirmed after the sweep may be false positives (the
    analyzer is sound, not complete). *)

val render_confirmation : confirmation -> string
