(** The protocol event log, and the span and metric views computed
    from it.

    The runtime records one {!Event.t} per protocol fact into a log.  A
    log keeps either every event (the observability layer,
    [Config.obs]) or the last [capacity] of them (the text tail of
    [Config.trace_capacity]).  Spans and metrics are functions of a
    complete log, so they agree with each other by construction.
    Recording never advances simulated time: events carry timestamps
    the runtime already computed, so an armed log cannot perturb the
    run it records. *)

type t

val create : ?capacity:int -> unit -> t
(** A log keeping every event, or with [capacity] only the most recent
    [capacity].  Raises [Invalid_argument] unless [capacity > 0]. *)

val record : t -> Event.t -> unit

val events : t -> Event.t list
(** Retained events, oldest first. *)

val tail : t -> int -> Event.t list
(** The last [n] retained events, oldest first. *)

val length : t -> int
(** Events currently held (at most the capacity). *)

val total : t -> int
(** Events ever recorded, including those a bounded log has dropped. *)

(** {1 Spans} *)

type kind =
  | Acquire_wait  (** lock requested until ownership granted *)
  | Barrier_wait  (** barrier arrival until release *)
  | Collect  (** write collection on the releaser *)
  | Diff  (** detection-scan / page-diff sub-phase of a collection *)
  | Apply  (** installing received updates on the requester *)
  | Retransmit  (** a reliable-channel episode needing retransmissions *)
  | Sched_block  (** generic scheduler block, tagged with the reason *)
  | Failover
      (** suspicion of a dead lock owner until quorum ownership transfer *)
  | Request
      (** an application-level request (the sharded KV store's
          get/put/delete/scan), from scheduled open-loop arrival to
          completion — [t1 - t0] is the request's sojourn latency
          including queueing behind its client's earlier requests *)

val kind_name : kind -> string
(** Stable wire name: ["lock_wait"], ["barrier_wait"], ["collect"],
    ["diff"], ["apply"], ["retransmit"], ["sched_block"], ["failover"],
    ["kv_request"]. *)

type span = {
  kind : kind;
  proc : int;
  sync : int;  (** sync-object id; [-1] = none *)
  bytes : int;  (** payload bytes attributed to the span; [0] = none *)
  t0 : int;  (** simulated ns *)
  t1 : int;
  note : string;
}

val spans : t -> span list
(** Every retained event's spans, in recording order. *)

val span_count : t -> int

(** {1 Metrics} *)

val metrics : t -> Metrics.t
(** A fresh registry computed by one fold over the retained events:
    histograms [collect_ns], [transfer_bytes], [diff_bytes_per_page],
    [apply_ns], [acquire_latency_ns], [barrier_wait_ns],
    [retransmits_per_send], and counters [reliable_sends],
    [replications], [failovers], [failover_no_quorum],
    [backend_switches], [crash_stops], [crash_recoveries].  Labels are
    ["p3/lock2"] / ["p0/barrier1"] (processor, sync object), ["p0->p2"]
    (channel), ["p3"], ["lock2"] and ["region4"]. *)
