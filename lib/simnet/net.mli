(** The cluster interconnect model.

    The paper's testbed is eight DECstations on a 140 Mbit/s ForeRunner
    ASX-100 ATM switch, driven through a user-level AAL3/4 protocol that
    bypasses the Unix server.  For the simulation we model a message as a
    fixed per-message latency (send + switch + receive + protocol
    processing) plus a bandwidth term proportional to its size, and we
    account messages and bytes per processor pair.

    Only *application* payload counts toward the paper's "data
    transferred" figures; protocol headers contribute to transfer time but
    not to the payload accounting.

    The fabric is perfectly reliable by default.  A {!fault_policy} makes
    it lossy: drop and duplication probabilities and latency jitter, the
    same on every link, driven by a seeded {!Midway_util.Prng} so every
    faulty run is exactly reproducible.  Faulty delivery is reported
    through the {!outcome} of {!send}; the retransmission machinery that
    survives it lives one layer up, in {!Reliable}. *)

type kind =
  | Lock_request
  | Lock_reply
  | Barrier_arrive
  | Barrier_release
  | Ack  (** reliable-channel acknowledgement (see {!Reliable}) *)
  | Replicate  (** bound-data replica shipped to a backup at release (see {!Crash}) *)
  | Vote  (** failover ballot requesting an ownership-transfer vote *)
  | Vote_reply  (** a quorum member's answer to a ballot *)

val kind_name : kind -> string

(** {1 Fault injection} *)

type fault_link = {
  drop : float;  (** probability a copy vanishes in the fabric, [0, 1] *)
  duplicate : float;  (** probability the switch delivers a second copy *)
  jitter_ns : int;  (** uniform extra latency in [0, jitter_ns] per copy *)
}

type fault_policy = {
  link : fault_link;  (** the hazards, applied to every link *)
  fault_seed : int;  (** seed of the injection PRNG *)
}

val uniform_faults :
  ?duplicate:float -> ?jitter_ns:int -> ?seed:int -> drop:float -> unit -> fault_policy
(** A policy with these hazards.  Defaults: no duplication, no jitter,
    seed 42. *)

val validate_fault_policy : fault_policy -> fault_policy
(** Check the policy's link: [drop] and [duplicate] must lie in [0, 1]
    and [jitter_ns] must be non-negative, else [Invalid_argument] naming
    the offending field is raised.  Returns the policy unchanged.  Both
    {!uniform_faults} and {!set_fault_policy} validate, so a hand-built
    policy cannot silently misbehave through the raw PRNG compare. *)

type t

val create : nprocs:int -> unit -> t
(** A reliable fabric: no faults. *)

val set_fault_policy : t -> fault_policy -> unit
(** Arm fault injection.  Call once, before any traffic; calling again
    resets the injection PRNG to the new policy's seed. *)

val set_crash_plan : t -> Crash.plan -> unit
(** Arm node-level faults: while the plan has a processor down (see
    {!is_down}), any message it would send is never put on the wire,
    and any copy arriving at it is destroyed in the NIC — a
    deterministic drop, composing with the probabilistic hazards.  Call
    once, before any traffic. *)

val is_down : t -> proc:int -> at:int -> bool
(** [Crash.is_down] on the armed plan; [false] when none is armed.
    {!Reliable} asks it which end to blame when a retry budget runs
    out. *)

val crash_drops_injected : t -> int
(** Copies destroyed because an endpoint was down (0 without a crash
    plan). *)

val nprocs : t -> int

val transfer_ns : payload_bytes:int -> int
(** Wire time for one message carrying [payload_bytes] of application
    data: 150 us of latency plus 57 ns (140 Mbit/s ATM at AAL3/4
    framing efficiency) for each byte of the payload and of a 64-byte
    protocol header. *)

(** What the fabric did with one message. *)
type outcome =
  | Delivered of int  (** arrival time at the destination *)
  | Dropped  (** the copy vanished; nothing arrives *)
  | Duplicated of int * int
      (** two copies arrive, first and second arrival times (first <= second) *)

val delivery : outcome -> int
(** First arrival time of a delivered message.  Raises
    [Invalid_argument] on [Dropped] — callers on the fault-free path
    (no policy armed) can rely on [send] never dropping. *)

val send :
  ?overhead_bytes:int -> t -> kind:kind -> src:int -> dst:int -> payload_bytes:int ->
  at:int -> outcome
(** [send t ~kind ~src ~dst ~payload_bytes ~at] records the message and
    returns its delivery outcome.  Without a fault policy this is always
    [Delivered (at + transfer time)].  [overhead_bytes] (default 0)
    models per-line/per-run descriptors: it adds wire time but is
    excluded from the payload accounting, as in the paper.

    Self-sends ([src = dst]) are legal (local lock service), cost
    nothing, arrive instantly, update no counter, and are NEVER subject
    to fault injection: a message that does not cross the fabric cannot
    be dropped, duplicated or jittered.

    Accounting under faults: every copy put on the wire counts as sent
    ([messages_sent], [bytes_sent], the kind counter), but only messages
    that actually arrive count as received, and a duplicated payload is
    received once (the second copy is a protocol-level artifact the
    {!Reliable} layer suppresses). *)

val arrival :
  t -> kind:kind -> src:int -> dst:int -> payload_bytes:int -> overhead_bytes:int -> at:int ->
  int
(** [delivery (send ...)] without building the outcome: the first
    arrival time, with the same accounting.  Raises [Invalid_argument]
    when the message is dropped. *)

val messages_sent : t -> proc:int -> int

val bytes_sent : t -> proc:int -> int
(** Payload bytes this processor put on the wire. *)

val bytes_received : t -> proc:int -> int

val total_messages : t -> int

val total_payload_bytes : t -> int

val messages_of_kind : t -> kind -> int

val drops_injected : t -> int
(** Copies the fault layer destroyed (0 without a policy). *)

val duplicates_injected : t -> int
(** Second copies the fault layer manufactured (0 without a policy). *)
