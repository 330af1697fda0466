(** Synchronization objects: entry-consistency locks and barriers.

    Under entry consistency, every lock and barrier carries an explicit
    binding to the shared data it guards; crossing the synchronization
    point makes exactly that data consistent at the requester (paper,
    section 3).  These records hold only the protocol state: the
    binding, ownership, the holders and the pending request queue.

    The state machine lives in {!Runtime}.  What a scheme remembers of a
    lock's transfers (RT timestamp cursors, the VM incarnation log) is
    {!Detector}'s, and so is a rebinding ({!Detector.rebind}); a lock's
    crash replica is [Recovery]'s. *)

type waker = at:int -> unit
(** Resume a blocked processor fiber at a virtual time. *)

type mode =
  | Exclusive  (** for writing: sole holder, ownership transfers *)
  | Shared  (** for reading: concurrent holders, each receives updates; ownership stays with the last writer *)

type lock = {
  lid : int;
  mutable ranges : Range.t list;  (** normalized bound ranges *)
  mutable owner : int;  (** processor holding the protocol state (last holder) *)
  mutable held_by : int option;
  mutable free_at : int;  (** virtual time the lock last became free *)
  mutable pending : request list;  (** sorted by arrival, ties by processor *)
  mutable readers : int list;  (** processors currently holding the lock in shared mode *)
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
  branges : Range.t list;
  participants : int;
  mutable manager : int;
      (** processor acting as barrier manager (0); reassigned to the
          lowest live processor when the manager crash-stops *)
  mutable episode : int;
  mutable arrived : arrival list;  (** current episode, arrival order *)
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
