(** Deterministic discrete-event simulation of a multicomputer.

    Each simulated processor runs its program as an OCaml 5 effect-handler
    fiber with a private virtual clock in nanoseconds.  Computation
    advances a processor's clock via {!charge}; interaction between
    processors happens only at explicit scheduling points ({!yield},
    {!block}), where the engine always resumes the runnable fiber with the
    smallest clock.

    This discipline makes the simulation a conservative parallel DES:
    since a fiber can only affect another fiber at a virtual time no
    earlier than its own clock (messages add latency), executing
    scheduling points in global clock order yields a causally consistent
    and fully deterministic execution — the property the reproduction
    depends on for exact primitive-operation counts.

    The protocol layer (locks, barriers) is built on two primitives:

    - {!yield} reschedules the calling fiber at its current clock, so the
      next protocol action in global time order executes first;
    - {!block} suspends the fiber and hands the protocol a [wake] function
      which resumes the fiber at a given virtual time (e.g. when a lock
      reply is delivered).

    A suspended fiber's continuation waits in its processor's record;
    the run queue holds processor ids, each at most once, ordered by
    (virtual time, insertion order). *)

type t

type proc
(** A simulated processor, valid within its engine's [run]. *)

type policy =
  | Fifo
      (** Historical default: ties in virtual time resolve in insertion
          (FIFO) order: a bare pop of the run queue, no tie-break
          consulted. *)
  | Seeded of int
      (** Pick uniformly among fibers tied at the minimum clock, driven
          by a private {!Midway_util.Prng} stream.  Every choice made is
          recorded (see {!choices}) so the run can be replayed exactly. *)
  | Replay of int list
      (** Re-apply a recorded choice list.  Each entry is an index into
          the FIFO-ordered tied candidates, taken modulo the candidate
          count (so shrunk or edited lists stay legal); when the list
          runs dry, remaining ties fall back to FIFO.  Applied choices
          are re-recorded, so a replay is itself replayable. *)
(** Which runnable fiber goes first when several are ready at the same
    virtual time.  All policies explore only *legal* schedules: the
    engine still always resumes a fiber with the minimum clock, so
    causal consistency (see doc/SIMULATION.md) is preserved — only the
    order of causally concurrent events varies. *)

exception Deadlock of string
(** Raised by {!run} when unfinished fibers remain but nothing can wake
    them — a synchronization bug in the simulated program.  When a
    non-FIFO policy is active the message carries the schedule seed (or
    replay length), so a hang found by the schedule explorer is
    reproducible from the message alone. *)

exception Killed
(** Crash-stop, raised *inside* a fiber (by the runtime's crash layer
    at a synchronization point): the fiber ends there and stops
    counting toward deadlock detection.  Unlike other exceptions,
    [Killed] does not escape {!run}.  The engine does nothing else
    about the death: whoever raises it settles what the fiber held
    first, so a fiber that waits for a wake only the dead fiber would
    have sent ends the run in {!Deadlock}. *)

val create : ?policy:policy -> nprocs:int -> unit -> t
(** [policy] defaults to [Fifo]. *)

val choices : t -> int list
(** The tie-break choices applied so far, oldest first — empty under
    [Fifo].  Feeding this list to [Replay] reproduces the schedule
    exactly.  Valid during and after [run] (including after a
    {!Deadlock} escaped), which is what lets the schedule explorer
    shrink a failing schedule. *)

val proc : t -> int -> proc
(** Handle for processor [i]; raises [Invalid_argument] out of range. *)

val proc_id : proc -> int

val clock : proc -> int
(** Current virtual time of this processor, in nanoseconds. *)

val charge : proc -> int -> unit
(** Advance the processor's clock by the given number of nanoseconds
    (local computation or charged protocol cost).  Negative charges
    raise [Invalid_argument]. *)

val spawn : t -> int -> (proc -> unit) -> unit
(** [spawn t p body] installs [body] as processor [p]'s program.  Must be
    called before {!run}; each processor may be spawned once. *)

val yield : proc -> unit
(** Scheduling point: let any runnable fiber with an earlier clock run
    first.  Every protocol action (lock acquire/release, barrier) must
    yield before inspecting shared protocol state.

    A fiber due at a time no later than the caller's clock runs first
    (a tie goes to the fiber queued earlier under [Fifo], or to the
    policy's choice).  When every queued fiber is due strictly later,
    [yield] returns at once without switching: the switch would find
    the caller alone at the minimum and resume it, and no policy
    consults or records a choice for a lone candidate, so the schedule
    and {!choices} are the same either way. *)

val block : ?reason:(unit -> string) -> proc -> setup:(wake:(at:int -> unit) -> unit) -> unit
(** [block p ~setup] suspends the fiber. [setup] runs first, on the
    fiber's own stack before it parks, and must arrange for [wake ~at]
    to be called exactly once, then or later, from some fiber or from
    [setup] itself; the blocked fiber then resumes with its clock
    advanced to at least [at].  [wake] is the processor's one waker,
    the same function at every block: calling it when the processor is
    not blocked, a second wake included, raises [Invalid_argument] at
    the waker.

    [reason] describes what the fiber is waiting on (e.g. ["acquire lock
    3"]); the {!Deadlock} message includes it for every still-blocked
    processor, so fault-induced hangs are diagnosable at a glance.  It
    is a thunk, which the engine calls only for that message, so a
    block that ends in a wake builds no string. *)

val run : t -> unit
(** Execute all spawned fibers to completion.  Raises {!Deadlock} if the
    system wedges, and re-raises any exception escaping a fiber. *)

val elapsed : t -> int
(** After [run]: the maximum clock reached by any processor — the
    program's simulated execution time. *)

val clock_of : t -> int -> int
(** After [run]: the final clock of one processor. *)
