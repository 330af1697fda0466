(** Protocol events: one typed record per fact the runtime observes.

    The runtime builds one event at the one site where its fact happens,
    and only when a subscriber is armed: an {!Obs} log, or ECSan's
    synchronization side.  Every view of a run is computed from these
    records: the text tail ([midway-run --trace N], the ECSan and fuzzer
    failure context) from {!to_string}, the Perfetto spans and the
    metrics registry from {!Obs.spans} and {!Obs.metrics}.  All times
    are simulated nanoseconds.

    Protocol steps are instants.  Interval events carry their start and
    end (or duration) and are recorded when they end. *)

type sync = Lock | Barrier  (** the kind of synchronization object a transfer serves *)

type t =
  | Lock_requested of { t : int; lock : int; proc : int; shared : bool }
      (** a remote acquisition left [proc] *)
  | Lock_granted of {
      t : int;  (** when the requester resumes *)
      lock : int;
      from_ : int;  (** the releaser that served the request *)
      to_ : int;
      shared : bool;
      payload_bytes : int;
    }
  | Lock_local of { t : int; lock : int; proc : int; shared : bool }
      (** acquisition satisfied locally, no messages *)
  | Lock_released of { t : int; lock : int; proc : int }  (** only by a release that succeeds *)
  | Lock_rebound of { t : int; lock : int; proc : int; bound_bytes : int; ranges : (int * int) list }
      (** [ranges]: the caller's [(addr, len)] list, before normalization *)
  | Barrier_arrived of { t : int; barrier : int; proc : int; payload_bytes : int }
  | Barrier_completed of { t : int; barrier : int; episode : int }
  | Proc_crashed of { t : int; proc : int }
      (** the processor's fiber crash-stopped at a synchronization point *)
  | Proc_recovered of { t : int; proc : int }
      (** the processor rejoined as a protocol participant with amnesia *)
  | Replicated of { t : int; lock : int; proc : int; backups : int; bytes : int }
      (** an exclusive release snapshotted the bound data to [backups]
          processors (crash faults armed) *)
  | No_quorum of { t : int; lock : int; proc : int; suspect : int; votes : int }
      (** a failover attempt by [proc] against [suspect] collected only
          [votes] ballots, short of a majority *)
  | Backend_switched of { t : int; region : int; from_ : string; to_ : string }
      (** a region's write-detection scheme was re-elected
          ([Config.backend_name] strings), manually or adaptively *)
  | Lock_failover of {
      t0 : int;  (** when the owner was suspected *)
      t : int;  (** when the transfer completed *)
      lock : int;
      from_ : int;
      to_ : int;
      epoch : int;  (** the lock's incarnation after the bump *)
      votes : int;  (** ballots collected, the initiator's own included *)
    }
  | Collect of {
      proc : int;
      sync : sync;
      id : int;  (** the lock or barrier *)
      t0 : int;
      ns : int;
      bytes : int;  (** application bytes shipped *)
      scan : string;  (** the detector's label for its scan *)
      pages : int;  (** pages diffed by this collection *)
      dirty_bytes : int;  (** dirty bytes those diffs found *)
    }
  | Apply of { proc : int; sync : sync; id : int; t0 : int; ns : int; bytes : int }
      (** installing received updates on the requester; [t0] is delivery *)
  | Acquire_wait of { proc : int; lock : int; t0 : int; t1 : int }
      (** a remote acquisition, from request to grant *)
  | Barrier_wait of { proc : int; barrier : int; t0 : int; t1 : int }
      (** a barrier crossing, from arrival to release *)
  | Sched_block of { proc : int; reason : string; t0 : int; t1 : int }
      (** any scheduler block, with the reason the fiber gave *)
  | Send_episode of {
      src : int;
      dst : int;
      msg : string;  (** the message kind's wire name *)
      seq : int;
      retransmits : int;
      bytes : int;
      t0 : int;  (** first copy sent *)
      t1 : int;  (** ack seen *)
    }  (** one completed reliable-channel exchange (faults or crashes armed) *)
  | Request of { proc : int; lock : int; op : string; t0 : int; t1 : int }
      (** an application request (the KV store's get/put/delete/scan)
          from its scheduled arrival to completion *)

(** The time {!to_string} shows: the instant of a step, the start of an
    interval, the completion of a failover. *)
let time = function
  | Lock_requested { t; _ }
  | Lock_granted { t; _ }
  | Lock_local { t; _ }
  | Lock_released { t; _ }
  | Lock_rebound { t; _ }
  | Barrier_arrived { t; _ }
  | Barrier_completed { t; _ }
  | Proc_crashed { t; _ }
  | Proc_recovered { t; _ }
  | Replicated { t; _ }
  | No_quorum { t; _ }
  | Backend_switched { t; _ }
  | Lock_failover { t; _ } -> t
  | Collect { t0; _ }
  | Apply { t0; _ }
  | Acquire_wait { t0; _ }
  | Barrier_wait { t0; _ }
  | Sched_block { t0; _ }
  | Send_episode { t0; _ }
  | Request { t0; _ } -> t0

(** ["lock"] or ["barrier"]. *)
let sync_name = function Lock -> "lock" | Barrier -> "barrier"

(** One line of the text tail, without a newline. *)
let to_string e =
  let pp_time = Midway_util.Units.pp_time and pp_bytes = Midway_util.Units.pp_bytes in
  let at = pp_time (time e) in
  let shared s = if s then " (read)" else "" in
  match e with
  | Lock_requested { lock; proc; shared = s; _ } ->
      Printf.sprintf "%-12s lock %d <- p%d%s" at lock proc (shared s)
  | Lock_granted { lock; from_; to_; shared = s; payload_bytes; _ } ->
      Printf.sprintf "%-12s lock %d: p%d -> p%d%s, %s" at lock from_ to_ (shared s)
        (pp_bytes payload_bytes)
  | Lock_local { lock; proc; _ } ->
      Printf.sprintf "%-12s lock %d: local acquire by p%d" at lock proc
  | Lock_released { lock; proc; _ } -> Printf.sprintf "%-12s lock %d: released by p%d" at lock proc
  | Lock_rebound { lock; proc; bound_bytes; _ } ->
      Printf.sprintf "%-12s lock %d: rebound by p%d to %s" at lock proc (pp_bytes bound_bytes)
  | Barrier_arrived { barrier; proc; payload_bytes; _ } ->
      Printf.sprintf "%-12s barrier %d: p%d arrived with %s" at barrier proc
        (pp_bytes payload_bytes)
  | Barrier_completed { barrier; episode; _ } ->
      Printf.sprintf "%-12s barrier %d: episode %d complete" at barrier episode
  | Proc_crashed { proc; _ } -> Printf.sprintf "%-12s p%d crash-stopped" at proc
  | Proc_recovered { proc; _ } ->
      Printf.sprintf "%-12s p%d recovered (rejoined with amnesia)" at proc
  | Replicated { lock; proc; backups; bytes; _ } ->
      Printf.sprintf "%-12s lock %d: p%d replicated %s to %d backup(s)" at lock proc
        (pp_bytes bytes) backups
  | No_quorum { lock; proc; suspect; votes; _ } ->
      Printf.sprintf "%-12s lock %d: p%d suspects p%d, no quorum (%d vote(s))" at lock proc
        suspect votes
  | Backend_switched { region; from_; to_; _ } ->
      Printf.sprintf "%-12s region %d: backend %s -> %s" at region from_ to_
  | Lock_failover { lock; from_; to_; epoch; votes; _ } ->
      Printf.sprintf "%-12s lock %d: failover p%d -> p%d (epoch %d, %d vote(s))" at lock from_
        to_ epoch votes
  | Collect { proc; sync; id; ns; bytes; scan; _ } ->
      Printf.sprintf "%-12s %s %d: p%d collected %s in %s (%s)" at (sync_name sync) id proc
        (pp_bytes bytes) (pp_time ns) scan
  | Apply { proc; sync; id; ns; bytes; _ } ->
      Printf.sprintf "%-12s %s %d: p%d applied %s in %s" at (sync_name sync) id proc
        (pp_bytes bytes) (pp_time ns)
  | Acquire_wait { proc; lock; t0; t1 } ->
      Printf.sprintf "%-12s lock %d: p%d waited %s for the grant" at lock proc (pp_time (t1 - t0))
  | Barrier_wait { proc; barrier; t0; t1 } ->
      Printf.sprintf "%-12s barrier %d: p%d waited %s for the release" at barrier proc
        (pp_time (t1 - t0))
  | Sched_block { proc; reason; t0; t1 } ->
      Printf.sprintf "%-12s p%d blocked %s on %s" at proc (pp_time (t1 - t0)) reason
  | Send_episode { src; dst; msg; seq; retransmits; t0; t1; _ } ->
      Printf.sprintf "%-12s p%d -> p%d: %s seq %d acked after %s (%d retransmit(s))" at src dst
        msg seq (pp_time (t1 - t0)) retransmits
  | Request { proc; lock; op; t0; t1 } ->
      Printf.sprintf "%-12s lock %d: p%d served %s in %s" at lock proc op (pp_time (t1 - t0))
