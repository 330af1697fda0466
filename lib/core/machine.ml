(* The machine record and what the protocol ([Runtime], which includes
   this module) and crash recovery ([Recovery]) share: construction, the
   scheme election, detector lookup and the event stream. *)

module Engine = Midway_sched.Engine
module Space = Midway_memory.Space
module Region = Midway_memory.Region
module Net = Midway_simnet.Net
module Reliable = Midway_simnet.Reliable
module Crash = Midway_simnet.Crash
module Counters = Midway_stats.Counters
module Cost_model = Midway_stats.Cost_model
module Obs = Midway_obs.Obs
module Event = Midway_obs.Event
module Check = Midway_check.Check
module Grow = Midway_util.Grow

type ctx = {
  cid : int;
  cursor : Space.cursor;  (* this processor's access cursor into the space *)
  machine : t;
  proc : Engine.proc;
  counters : Counters.t;
  mutable detectors : (Config.backend * Detector.t) list;
      (* one per scheme this processor has used: the machine default,
         built at [create], then the others in order of first use *)
  check : Check.t option;  (* ECSan's per-access hook, when cfg.ecsan *)
  request : Sync.request;  (* this processor's lock request, reused *)
  acquire_reason : (unit -> string) option;
  acquire_setup : wake:(at:int -> unit) -> unit;
      (* a remote acquire's block: its reason and its setup (queue
         [request] and drain the queue), built once *)
}

(* Crash-recovery state, built by [Recovery.state]: inert when crashes
   are unarmed (empty plan, no stop, no replication, no watchdog). *)
and recovery = {
  plan : Crash.plan;
  stop_at : int array;  (* each fiber's first scheduled stop; [max_int] = never *)
  channel : Reliable.config;  (* the reliable channel's parameters *)
  replicas : int;  (* backups per exclusive release; 0 = no replication *)
  broken : bool;  (* demo bug: skip replication and the epoch rules *)
  watchdog_ns : int;  (* virtual-time bound: survivors past it die too *)
  killed : bool array;  (* fibers actually crash-stopped so far *)
  mutable replicated : replica option array;
      (* by lock id, the replica of its last exclusive release; grown at
         the first replication, so empty when nothing replicates *)
}

(* The simulator's stand-in for the backups' replica stores. *)
and replica = {
  backups : int list;  (* processors holding the snapshot, freshest first *)
  snapshot : Payload.vm_piece list;  (* the bound data as released *)
}

and t = {
  cfg : Config.t;
  engine : Engine.t;
  space : Space.t;
  net : Net.t;
  reliable : Reliable.t option;
      (* Some iff cfg.faults or cfg.crash is armed: every protocol message
         then goes through the ack/retransmission channel *)
  recovery : recovery;
  mutable ctxs : ctx array;  (* filled right after construction *)
  detection : Detector.env;  (* what every processor's detectors share *)
  mutable locks : Sync.lock list;
  mutable barriers : Sync.barrier list;
  mutable next_sync_id : int;
  mutable ran : bool;
  mutable elected : Config.backend option array;
      (* the election table: by region index, the scheme a re-elected
         region runs; [None] means the machine default *)
  mutable switches : int;  (* backend switches committed so far *)
  policy : Policy.t option;  (* Some iff cfg.adaptive *)
  checker : Check.t option;
  log : Obs.t option;
      (* Some iff cfg.obs (every event) or cfg.trace_capacity > 0 (the
         last N): the protocol event log *)
  emit : (Event.t -> unit) option;
      (* Some iff the log or ECSan is armed: the protocol's event stream.
         Only [Account]'s fact functions emit, each building its event
         only when armed; recording never charges virtual time. *)
}

(* ECSan's synchronization side, read off the event stream.  Only sync
   creation, which records no event, calls the checker directly. *)
let ecsan_subscriber ch : Event.t -> unit = function
  | Lock_local { lock; proc; shared; _ } | Lock_granted { lock; to_ = proc; shared; _ } ->
      Check.on_acquire ch ~id:lock ~proc ~exclusive:(not shared)
  | Lock_released { lock; proc; _ } -> Check.on_release ch ~id:lock ~proc
  | Lock_rebound { lock; ranges; _ } -> Check.on_rebind ch ~id:lock ~raw:ranges
  | Barrier_wait { proc; barrier; _ } -> Check.on_barrier_cross ch ~id:barrier ~proc
  | Barrier_completed { barrier; _ } -> Check.on_barrier_complete ch ~id:barrier
  | _ -> ()

(* Every rule a configuration must meet to run, in one place: [create]
   refuses what fails, and the tools check before they build a machine.
   The first rule that fails wins. *)
let validate (cfg : Config.t) =
  let missing_proc =
    match cfg.crash with
    | None -> None
    | Some c ->
        List.find_opt (fun (e : Crash.event) -> e.Crash.proc >= cfg.nprocs) (Crash.events c.plan)
  in
  if cfg.backend = Config.Standalone && cfg.nprocs > 1 then
    Error "the standalone backend is uniprocessor only"
  else if cfg.untargetted && cfg.backend <> Config.Rt then
    Error "the untargetted model is implemented for the RT backend only"
  else if cfg.adaptive && cfg.untargetted then
    Error
      "per-region backends need targetted bindings (untargetted consistency is machine-wide by \
       construction)"
  else if cfg.adaptive && not (Policy.manages cfg.backend) then
    Error "adaptive elects between rt and vm; start from one of them"
  else if cfg.ecsan && cfg.untargetted then
    Error
      "ecsan assumes targetted entry consistency (any lock transfer makes everything \
       consistent under the untargetted model, so binding checks do not apply)"
  else if cfg.trace_capacity < 0 then Error "negative trace_capacity"
  else if cfg.update_log_window < 1 then
    Error
      (Printf.sprintf
         "update_log_window must be at least 1, got %d (the VM incarnation log keeps that many \
          incarnations of updates per lock)"
         cfg.update_log_window)
  else
    match missing_proc with
    | Some e ->
        Error
          (Printf.sprintf "the crash plan names p%d but the machine has %d processors"
             e.Crash.proc cfg.nprocs)
    | None ->
        if cfg.crash <> None && cfg.backend = Config.Standalone then
          Error "a crash plan needs a distributed backend (standalone has no peers to fail over to)"
        else Ok ()

(* [service_queue] drains a lock's request queue (the protocol's). *)
let create (cfg : Config.t) ~recovery ~service_queue =
  (match validate cfg with Ok () -> () | Error msg -> invalid_arg ("Runtime.create: " ^ msg));
  let engine = Engine.create ~policy:cfg.sched_policy ~nprocs:cfg.nprocs () in
  let space = Space.create ~region_size:cfg.region_size ~nprocs:cfg.nprocs () in
  let net = Net.create ~nprocs:cfg.nprocs () in
  (* The reliable channel is armed by message faults *or* by node-level
     crash faults: suspicion detection rides on ack-timeout exhaustion, so
     a crashed fabric needs the channel even on an otherwise-clean net. *)
  let reliable =
    match (cfg.faults, cfg.crash) with
    | None, None -> None
    | faults, crash ->
        Option.iter (Net.set_fault_policy net) faults;
        if crash <> None then Net.set_crash_plan net recovery.plan;
        Some (Reliable.create ~config:recovery.channel net)
  in
  let log =
    if cfg.obs then Some (Obs.create ())
    else if cfg.trace_capacity > 0 then Some (Obs.create ~capacity:cfg.trace_capacity ())
    else None
  in
  let check =
    if not cfg.ecsan then None
    else
      (* First-occurrence context: the tail of the event log (empty
         unless a log is armed). *)
      let context () =
        match log with None -> [] | Some log -> List.map Event.to_string (Obs.tail log 3)
      in
      Some (Check.create ~context ~nprocs:cfg.nprocs ())
  in
  let emit =
    match (log, check) with
    | None, None -> None
    | Some log, None -> Some (Obs.record log)
    | None, Some ch -> Some (ecsan_subscriber ch)
    | Some log, Some ch ->
        let ecsan = ecsan_subscriber ch in
        Some (fun e -> Obs.record log e; ecsan e)
  in
  let counters = Array.init cfg.nprocs (fun _ -> Counters.create ()) in
  let detection = Detector.env cfg space ~counters ~reliable:(reliable <> None) in
  let machine =
    {
      cfg;
      engine;
      space;
      net;
      reliable;
      recovery;
      ctxs = [||];
      detection;
      locks = [];
      barriers = [];
      next_sync_id = 0;
      ran = false;
      elected = Array.make 16 None;
      switches = 0;
      policy = (if cfg.adaptive then Some (Policy.create ~cost:cfg.cost ()) else None);
      checker = check;
      log;
      emit;
    }
  in
  machine.ctxs <-
    Array.init cfg.nprocs (fun cid ->
        let request = Sync.request ~proc:cid in
        {
          cid;
          cursor = Space.cursor space ~proc:cid;
          machine;
          proc = Engine.proc engine cid;
          counters = counters.(cid);
          detectors = [ (cfg.backend, Detector.create detection ~proc:cid cfg.backend) ];
          check;
          request;
          acquire_reason =
            Some
              (fun () ->
                Printf.sprintf "acquire of lock %d (%s mode)" request.Sync.r_lock.Sync.lid
                  (match request.Sync.r_mode with
                  | Sync.Exclusive -> "exclusive"
                  | Sync.Shared -> "shared"));
          acquire_setup =
            (fun ~wake ->
              request.Sync.r_waker <- wake;
              Sync.enqueue_request request;
              service_queue machine request.Sync.r_lock);
        });
  machine

let config t = t.cfg

let space t = t.space

let net t = t.net

let counters t i = t.ctxs.(i).counters

let log t = t.log

let obs t = if t.cfg.obs then t.log else None

let all_counters t = Array.map (fun c -> c.counters) t.ctxs

let now_ns c = Engine.clock c.proc

(* ------------------------------------------------------------------ *)
(* Per-region scheme election (hybrid write detection)                 *)
(*                                                                     *)
(* Each region carries its own detection scheme in the election table; *)
(* a region never re-elected runs the machine default.  Each processor *)
(* keeps one detector per scheme it uses, so a fixed-backend machine   *)
(* is the one-detector case.                                           *)
(* ------------------------------------------------------------------ *)

let region_index_of t addr = Space.index_of t.space addr

let[@inline] scheme_of_region t idx =
  if idx < 0 || idx >= Array.length t.elected then t.cfg.backend
  else match Array.unsafe_get t.elected idx with Some b -> b | None -> t.cfg.backend

(* [c]'s detector for [scheme], built on first use.  One detector per
   scheme serves every region elected to it: detectors are address-keyed
   internally, and a switch wipes the region's slice of each (see
   [switch_region_backend]). *)
let rec find_detector (c : ctx) scheme = function
  | (s, d) :: rest -> if s == scheme then d else find_detector c scheme rest
  | [] ->
      let d = Detector.create c.machine.detection ~proc:c.cid scheme in
      c.detectors <- c.detectors @ [ (scheme, d) ];
      d

(* Inlined for the trapped-store path, which nearly always asks for the
   head: the machine default. *)
let[@inline] detector (c : ctx) scheme =
  match c.detectors with
  | (s, d) :: _ -> if s == scheme then d else find_detector c scheme c.detectors
  | [] -> find_detector c scheme []

(* The scheme a binding runs under: the unanimous election over the
   regions its non-empty ranges live in, or [conflict] when they differ
   (see [Detector.lock_fallback] and [Detector.barrier_fallback]). *)
let rec unanimous t ~conflict ~first scheme = function
  | [] -> scheme
  | (r : Range.t) :: rest ->
      if Range.is_empty r then unanimous t ~conflict ~first scheme rest
      else
        let rs = scheme_of_region t (region_index_of t r.Range.addr) in
        if first || rs == scheme then unanimous t ~conflict ~first:false rs rest else conflict

let lock_scheme t ranges =
  unanimous t ~conflict:Detector.lock_fallback ~first:true t.cfg.backend ranges

let barrier_scheme t ranges =
  unanimous t ~conflict:Detector.barrier_fallback ~first:true t.cfg.backend ranges
