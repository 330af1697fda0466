(** The sharded KV store as a schedule-explorer workload.

    Simulated client processors drive one {!Midway_kv.Kvstore} with
    seeded {!Ycsb} streams — load phase, open-loop client loop with
    optional periodic bucket migrations, final converge — and the
    verdict is the refinement oracle: the run must linearize to the
    centralized dictionary ({!Midway_kv.Kvstore.check}).  Composes with
    every explorer dimension: seeded schedules, message faults, and
    crash plans (the oracle is crash-aware through the journal). *)

type cfg = {
  ycsb : Ycsb.cfg;
  buckets : int;
  service_ns : int;  (** simulated service time inside each critical section *)
  preload : int;  (** keys [0, preload) start present with value [1_000_000 + key] *)
  migrate_every : int;
      (** each client migrates a bucket to itself after every k-th
          request (round-robin over buckets); [0] = never *)
  broken_migration : bool;
      (** migrations drop the presence flags — deterministic,
          ECSan-clean refinement bug (fuzzer prey) *)
}

val default : cfg
(** 64 keys x 8 buckets, 40 requests/client of YCSB A at zipfian 0.99,
    Poisson arrivals, half the keyspace preloaded — small enough for
    schedule exploration. *)

val build : Midway.Runtime.t -> cfg -> Midway_kv.Kvstore.t * (Midway.Runtime.ctx -> unit)
(** Allocate the store on the machine and return it with the
    per-processor program (load / run / converge).  The caller runs the
    program and applies {!Midway_kv.Kvstore.check}. *)

val workload : name:string -> ?buggy:bool -> cfg -> Workload.t

val crashy_workload : name:string -> cfg -> Workload.t
(** Unless the configuration already arms crash faults, injects a
    scripted plan killing client 1 early in the run phase.  Needs
    [nprocs >= 3]. *)
