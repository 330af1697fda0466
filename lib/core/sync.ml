type waker = at:int -> unit

type mode = Exclusive | Shared

type lock = {
  lid : int;
  mutable ranges : Range.t list;
  mutable owner : int;
  mutable held_by : int option;
  mutable free_at : int;
  mutable pending : request list;
  mutable readers : int list;
}

and request = {
  r_proc : int;
  mutable r_lock : lock;
  mutable r_arrival : int;
  mutable r_mode : mode;
  mutable r_waker : waker;
}

type arrival = {
  a_proc : int;
  a_deliver : int;
  a_waker : waker;
  a_payload : Payload.t;
  a_stamp : Timestamp.t;
}

type barrier = {
  bid : int;
  branges : Range.t list;
  participants : int;
  mutable manager : int;
  mutable episode : int;
  mutable arrived : arrival list;
}

let make_lock ~lid ~nprocs ~owner ~ranges =
  if owner < 0 || owner >= nprocs then invalid_arg "Sync.make_lock: owner out of range";
  {
    lid;
    ranges = Range.normalize ranges;
    owner;
    held_by = None;
    free_at = 0;
    pending = [];
    readers = [];
  }

let make_barrier ~bid ~nprocs ~participants ~manager ~ranges =
  if participants <= 0 || participants > nprocs then
    invalid_arg "Sync.make_barrier: participants out of range";
  if manager < 0 || manager >= nprocs then
    invalid_arg "Sync.make_barrier: manager out of range";
  {
    bid;
    branges = Range.normalize ranges;
    participants;
    manager;
    episode = 0;
    arrived = [];
  }

let lock_bound_bytes l = Range.total_bytes l.ranges

let rec mem_proc (p : int) = function [] -> false | q :: rest -> q = p || mem_proc p rest

let is_reader l p = mem_proc p l.readers

(* The lock a request is aimed at before its first acquire. *)
let no_lock = make_lock ~lid:(-1) ~nprocs:1 ~owner:0 ~ranges:[]

let request ~proc =
  {
    r_proc = proc;
    r_lock = no_lock;
    r_arrival = 0;
    r_mode = Exclusive;
    r_waker = (fun ~at:_ -> ());
  }

let rec insert r = function
  | [] -> [ r ]
  | hd :: rest as queue ->
      if r.r_arrival < hd.r_arrival || (r.r_arrival = hd.r_arrival && r.r_proc < hd.r_proc) then
        r :: queue
      else hd :: insert r rest

let enqueue_request r = r.r_lock.pending <- insert r r.r_lock.pending
