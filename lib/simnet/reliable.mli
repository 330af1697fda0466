(** Reliable delivery over the (possibly faulty) interconnect.

    {!Net.send} models the raw fabric: with a fault policy armed, a copy
    may be dropped, duplicated or jittered.  This module implements the
    classic positive-acknowledgement / retransmission protocol on top of
    it, the way the entry-consistency runtime needs it:

    - every message carries a per-(src, dst) sequence number;
    - the receiver acknowledges each copy it sees ({!Net.Ack}, empty
      payload) and suppresses copies whose sequence number it has
      already delivered — exactly the role the paper assigns to the
      per-lock incarnation numbers, which let a processor discard stale
      or duplicate updates;
    - the sender retransmits on an acknowledgement timeout, doubling the
      timeout up to a cap, and gives up (raises) after a bounded number
      of transmissions.

    Because the simulation is a conservative discrete-event model, the
    whole exchange is resolved arithmetically at send time: the returned
    {!delivery} record tells the protocol layer when the payload first
    reached the destination (the instant a blocked requester can be
    woken, which the engine's block/wake mechanism then applies) and how
    much retransmission work the exchange cost.  The injection PRNG is
    seeded, so a given run is exactly reproducible. *)

type config = {
  timeout_ns : int;  (** initial acknowledgement timeout *)
  backoff_cap_ns : int;  (** the timeout doubles per retry, up to this cap *)
  max_attempts : int;  (** total transmissions of one message before giving up *)
}

val default_config : config
(** 1 ms initial timeout (a few uncongested round trips), 16 ms cap,
    20 attempts. *)

type t

exception Exhausted of string
(** Raised when a message burns its whole retry budget — under
    certain loss this is the expected diagnosis.  The message
    is structured, one [key=value] per episode field:
    ["Reliable.send: exhausted {kind=lock-request; src=p0; dst=p1;
    seq=4; attempts=20; elapsed_ns=…}"], where [elapsed_ns] is the
    virtual time between the first copy and giving up. *)

type suspicion = {
  s_kind : Net.kind;
  s_src : int;
  s_dst : int;
  s_seq : int;
  s_attempts : int;
  s_elapsed_ns : int;  (** virtual time burned before giving up *)
}
(** A failure-detector event: the retry budget ran out while the
    fabric's crash plan ({!Net.set_crash_plan}) had an end of the link
    down. *)

exception Suspected of suspicion
(** Raised instead of {!Exhausted} when the fabric's crash plan has
    either end of the link down at the give-up time ({!Net.is_down}),
    so the crash, not the wire, is to blame: a dead receiver never
    acks, and a sender that crashed mid-episode stops retransmitting.
    The recovery protocol ({!Midway.Runtime}) tells the cases apart
    from the same plan — a dead receiver triggers quorum ownership
    failover, a dead sender is the caller's own crash taking effect.
    With both ends up, or no plan armed, the give-up is
    {!Exhausted}. *)

val exhausted_message :
  kind:Net.kind -> src:int -> dst:int -> seq:int -> attempts:int -> elapsed_ns:int ->
  string
(** The exact message {!Exhausted} carries — exposed so tests can assert
    the format. *)

val create : ?config:config -> Net.t -> t

type delivery = {
  seq : int;
      (** the exchange's sequence number on its (src, dst) link: the
          {!next_seq} before the send; -1 for a self-send, which
          consumes none *)
  delivered_at : int;  (** first arrival of the payload at the destination *)
  acked_at : int;  (** when the sender learned the transfer succeeded *)
  transmissions : int;  (** data copies put on the wire (1 = clean first try) *)
  retransmits : int;  (** [transmissions - 1] *)
  drops_seen : int;  (** data or ack copies the fabric destroyed *)
  dups_suppressed : int;  (** redundant data copies discarded by sequence number *)
  backoff_ns : int;  (** total virtual time spent waiting on timeouts *)
}

val send :
  ?overhead_bytes:int -> t -> kind:Net.kind -> src:int -> dst:int -> payload_bytes:int ->
  at:int -> delivery
(** Run one message through the ack/retransmit protocol, resolving every
    retry and acknowledgement against the fabric's fault draws.  On a
    fault-free fabric this degenerates to exactly one data copy plus one
    ack.  Self-sends are delivered locally: no messages, no sequence
    number, all counters zero.  Raises {!Exhausted} (or {!Suspected},
    when the crash plan has either end down) when
    [config.max_attempts] transmissions all fail to produce an ack; the
    failed attempts still count toward {!total_retransmits} and
    {!total_backoff_ns}. *)

val unacked : t -> int
(** Messages currently in flight (sent, not yet acknowledged).  Because
    [send] resolves the full exchange, this is nonzero only while a
    [send] is executing — {!Midway.Runtime.check_invariants} asserts it
    returns to zero after a run. *)

val next_seq : t -> src:int -> dst:int -> int
(** The sequence number the next [send] on this link will carry
    (starts at 0). *)

val total_retransmits : t -> int

val total_backoff_ns : t -> int
