(** Synchronization objects: entry-consistency locks and barriers.

    Under entry consistency, every lock and barrier carries an explicit
    binding to the shared data it guards; crossing the synchronization
    point makes exactly that data consistent at the requester (paper,
    section 3).  These records hold the protocol state that travels
    conceptually with the object: ownership, the pending request queue,
    per-processor consistency cursors (RT timestamps, VM incarnations),
    and the VM update log.

    The state machines live in {!Runtime} (the protocol) and {!Detector}
    (the cursors and the log); this module owns the plain data. *)

type waker = at:int -> unit
(** Resume a blocked processor fiber at a virtual time. *)

type mode =
  | Exclusive  (** for writing: sole holder, ownership transfers *)
  | Shared  (** for reading: concurrent holders, each receives updates; ownership stays with the last writer *)

type vm_log_entry =
  | Pieces of Payload.vm_piece list
      (** modifications collected for one incarnation *)
  | Full_marker
      (** the whole bound data was shipped at this incarnation (after a
          rebinding, or because concatenated diffs exceeded the data);
          requesters that missed it must receive full data too *)

type lock = {
  lid : int;
  mutable ranges : Range.t list;  (** normalized bound ranges *)
  mutable owner : int;  (** processor holding the protocol state (last holder) *)
  mutable held_by : int option;
  mutable free_at : int;  (** virtual time the lock last became free *)
  mutable pending : request list;  (** sorted by arrival, ties by processor *)
  mutable readers : int list;  (** processors currently holding the lock in shared mode *)
  mutable acquires : int;
  (* RT-DSM *)
  rt_last_seen : Timestamp.t array;  (** per-processor consistency cursor *)
  rt_history : (int, Timestamp.t) Hashtbl.t;
      (** update-queue trapping mode only: line address -> newest stamp, the
          sparse update history that replaces full scans *)
  (* VM-DSM *)
  mutable incarnation : int;
  vm_inc_seen : int array;  (** per-processor last incarnation observed *)
  mutable vm_log : (int * vm_log_entry) list;  (** newest first, trimmed to a window *)
  mutable switch_inc : int;
      (** the incarnation as of the last per-region backend switch (0 if
          never switched).  Epoch bumps up to this watermark were forced
          by the switch itself; only [incarnation > switch_inc] means the
          application actually rebound the lock — the adaptive policy's
          rebinding signal, so its own switches do not read as
          rebinding-heavy workload behaviour *)
  (* crash recovery (armed by [Config.crash]; inert otherwise) *)
  mutable backups : int list;
      (** processors holding a replica of the bound data, freshest first *)
  mutable replica : (int * Payload.vm_piece list) option;
      (** (epoch, snapshot) shipped to the backups at the last release;
          the epoch is the lock's incarnation at replication time, so a
          failover can tell a current replica from a stale one *)
  mutable failovers : int;  (** quorum ownership transfers performed *)
}

(** A processor's request for a lock.  Each processor has one, built
    with {!request} and reused by every remote acquire: it blocks until
    its request is served, so it never has two queued. *)
and request = {
  r_proc : int;  (** the requester *)
  mutable r_lock : lock;
  mutable r_arrival : int;  (** when the request reaches the owner *)
  mutable r_mode : mode;
  mutable r_waker : waker;  (** resumes the requester *)
}

type arrival = {
  a_proc : int;
  a_deliver : int;  (** when the arrival message reaches the manager *)
  a_waker : waker;
  a_payload : Payload.t;  (** the processor's own fresh modifications *)
  a_stamp : Timestamp.t;  (** RT: stamp used for this episode (0 otherwise) *)
}

type barrier = {
  bid : int;
  mutable branges : Range.t list;
  participants : int;
  mutable manager : int;
      (** processor acting as barrier manager (0); reassigned to the
          lowest live processor when the manager crash-stops *)
  mutable episode : int;
  mutable arrived : arrival list;  (** current episode, arrival order *)
  mutable crossings : int;
}

val make_lock : lid:int -> nprocs:int -> owner:int -> ranges:Range.t list -> lock

val make_barrier :
  bid:int -> nprocs:int -> participants:int -> manager:int -> ranges:Range.t list -> barrier

val lock_bound_bytes : lock -> int

val is_reader : lock -> int -> bool
(** Whether the processor holds the lock in shared mode. *)

val request : proc:int -> request
(** A processor's request record, not yet aimed at a lock. *)

val enqueue_request : request -> unit
(** Insert into its lock's [pending] keeping arrival-time order (ties by
    processor id for determinism). *)

val rebind_lock : lock -> ranges:Range.t list -> unit
(** Change the data bound to the lock (quicksort's task pattern).  Under
    RT the per-processor cursors reset so the next transfer ships all
    bound lines; under VM the incarnation is bumped and a {!Full_marker}
    recorded so the next transfer ships all bound data without diffing —
    both as described in section 4. *)
