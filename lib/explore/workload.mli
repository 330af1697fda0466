(** Workloads for the schedule explorer.

    A workload is a named, self-verifying simulated program.  Running
    one builds a machine for a given {!Midway.Config.t}, executes it and
    checks the result against a sequential oracle computed outside the
    machine.  All oracles are robust to legal schedule variation —
    commutative updates, monotonicity invariants, convergence after a
    final barrier-plus-read-sweep — so a reported failure is a real
    ordering bug, never schedule noise. *)

type outcome = {
  ok : bool;  (** the oracle's verdict *)
  detail : string;  (** human-readable mismatch / exception description *)
  digest : string;
      (** canonical rendering of the converged shared data (processor
          0's copy), for cross-backend and replay identity checks;
          [""] when the workload does not define one *)
  machine : Midway.Runtime.t option;
      (** the machine, for counters, invariants, the ECSan report, the
          trace and {!Midway.Runtime.schedule_choices}; [None] only
          when the machine was lost to an exception during
          construction (application workloads) *)
}

type t = {
  name : string;
  judges_crashes : bool;
      (** the oracle judges crash-armed runs: it knows which processors
          died and does not count their missing work as a wrong answer
          (crashy, crashy-broken and the kv family).  The explorer
          arms crashes on no other workload. *)
  supports : Midway.Config.backend -> bool;
  run : Midway.Config.t -> outcome;
  ir : (nprocs:int -> Midway_analyze.Ir.program) option;
      (** the workload lifted to the EC-IR for static analysis; [None]
          for workloads whose behavior the IR cannot express (crash
          plans, full applications).  The lift must mirror [run]'s
          synchronization structure, with sync ids numbered in creation
          order — exactly the runtime's id assignment — so static and
          dynamic findings name the same objects. *)
}

val lock_based : Midway.Config.backend -> bool
(** Supports-predicate of workloads that synchronize with locks and
    data-less barriers only: every backend except [Standalone]. *)

val run_guarded :
  Midway.Config.t ->
  (Midway.Runtime.t -> (Midway.Runtime.ctx -> unit) * (unit -> bool * string * string)) ->
  outcome
(** [run_guarded cfg prog] builds the machine, lets [prog] allocate and
    return (body, verify), runs the body on every processor and applies
    the verdict.  {!Midway_sched.Engine.Deadlock} and other exceptions
    become failing outcomes that still carry the machine, so recorded
    tie-break choices survive for shrinking. *)

val check_cells :
  Midway.Runtime.t -> int array -> int array -> bool * string * string
(** [check_cells m addrs expected] checks every processor's copy of
    every 8-byte cell against the oracle; returns (ok, detail, digest)
    where the digest renders processor 0's copy. *)

val converge : Midway.Runtime.ctx -> Midway.Sync.barrier -> Midway.Sync.lock array -> unit
(** Cross the (data-less) barrier, then pull every lock once in read
    mode so this processor's copies are current before the oracle
    looks. *)

(** {1 Clean synthetic workloads} *)

val counter : iters:int -> t
(** Every processor adds [id+1] to one lock-guarded cell [iters] times. *)

val readers_writer : iters:int -> t
(** Processor 0 counts up under the exclusive lock; the others pull in
    read mode and check the observed values never decrease. *)

val mix : groups:int -> iters:int -> t
(** [groups] locks, shifting contention: processor [p]'s k-th operation
    targets group [(p+k) mod groups]. *)

(** {1 Deliberately buggy workloads (fuzzer prey)} *)

val order_sensitive : t
(** Correct locking, wrong oracle: assumes processor 0's transaction
    commits before processor 1's.  Passes under FIFO, fails under seeds
    that let processor 1 win the first ties. *)

val racy : t
(** Processor 1 writes lock-bound data without acquiring the lock.
    Fails (oracle + ECSan) on every schedule; shrinks to the empty
    choice list. *)

val deadlocky : t
(** Processors 0 and 1 nest two locks in opposite orders with a work
    window between the acquisitions, so every schedule interleaves the
    outer acquisitions and deadlocks; shrinks to the empty choice list.
    Statically a lock-order cycle (the analyzer's deadlock prey). *)

(** {1 Crash-fault workloads} *)

val crashy : iters:int -> t
(** Lock-guarded counter plus a per-processor committed[] ledger, all
    bound to one lock and updated atomically per critical section, under
    node crashes.  Unless the configuration already arms
    {!Midway.Config.t.crash}, injects a scripted plan stopping
    processor 0 at 10 us — inside its first critical section while
    holding the lock — so every run exercises the quorum failover.  The
    oracle checks, over live processors only: convergence, the ledger
    invariant [cell = sum (p+1)*committed.(p)] (atomic sections revert
    whole), and that no survivor lost a committed section.  Needs
    [nprocs >= 3] (majority quorum with one processor down).  The digest
    includes the killed set and the failover count. *)

val crashy_broken : iters:int -> t
(** [crashy] with {!Midway.Config.t.crash}'s [broken_failover] forced
    on: the failover skips replication and the epoch reset, so a new
    owner can serve stale bound data.  Fuzzer prey for the crash
    dimension. *)

(** {1 Applications} *)

val app : scale:float -> Midway_report.Suite.app -> t
(** One of the five paper applications at problem size [scale].
    Self-verifying via its own sequential oracle; defines no digest. *)
