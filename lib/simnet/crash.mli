(** Node-level fault schedules: crash-stop and crash-recovery events.

    A {!plan} is a deterministic script of processor failures on the
    simulated clock.  It composes with the message-level hazards of
    {!Net} (drop / duplicate / jitter): a down
    processor neither sends nor receives, which the network models as
    deterministic drops, while the recovery protocol in [Midway.Runtime]
    handles ownership failover and rejoin.

    Plans are pure data — [is_down] is a function of the plan and the
    clock only — so a (workload seed, schedule seed, fault seed, crash
    plan) tuple reproduces a run bit-for-bit. *)

type action =
  | Stop  (** the processor halts: loses volatile state, drops off the wire *)
  | Recover
      (** the processor rejoins as a protocol participant (replica host,
          quorum voter) with amnesia; its program fiber does not resume *)

type event = { at_ns : int; proc : int; action : action }

type plan
(** An immutable, time-sorted crash script. *)

val scripted : event list -> plan
(** Build a plan from explicit events (sorted internally by time, then
    processor).  Raises [Invalid_argument] on a negative time or
    processor, or when a processor's events do not alternate
    Stop / Recover starting from up. *)

val seeded : seed:int -> nprocs:int -> events:int -> horizon_ns:int -> plan
(** Generate up to [events] crash episodes deterministically from
    [seed].  Victims are distinct processors; at most a strict minority
    of [nprocs] is ever down at once, so a majority quorum always
    exists and failover can make progress.  Roughly half the episodes
    recover within the horizon (crash-recovery), the rest are
    crash-stop. *)

val empty : plan

val events : plan -> event list
(** Events in schedule order. *)

val is_down : plan -> proc:int -> at:int -> bool
(** Has [proc] crashed (and not yet recovered) as of time [at]? *)

val down_count : plan -> nprocs:int -> at:int -> int
(** Number of processors down at [at]. *)

val stops_before : plan -> proc:int -> at:int -> int
(** Number of Stop events for [proc] at or before [at] — the
    processor's crash count, used to detect a rejoin since some earlier
    observation. *)

val first_stop : plan -> proc:int -> int option
(** Time of [proc]'s first Stop event, if any. *)

val render : plan -> string
(** Serialize as ["stop@NS:pK,recover@NS:pK,…"] — the inverse of
    {!parse_spec}, used by the fuzzer's counterexample files. *)

val parse_spec : nprocs:int -> string -> (plan, string) result
(** Parse a [--crash] specification.  Two forms:
    - scripted: ["stop@2ms:p1,recover@8ms:p1"] (times accept [ns], [us],
      [ms], [s] suffixes; bare integers are nanoseconds);
    - seeded: ["n=2,seed=7"] with optional [horizon=NS] (default 50ms). *)
