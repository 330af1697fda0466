(* Crash recovery over the machine record (doc/FAULTS.md): liveness,
   replication at release, quorum failover and the kill fallout.  The
   protocol calls it without asking whether crashes are armed: unarmed,
   the state is inert, and each call is a few array reads that allocate
   nothing. *)

open Machine

exception Crash_unavailable of string
(* A live requester could not assemble a majority quorum for a lock
   failover: the run cannot make progress without risking a split brain. *)

(* Backups each exclusive release replicates the lock's bound data to:
   a crash mid-critical-section reverts to the last released state even
   when one backup is down too. *)
let replicas = 2

(* Transmissions against a silent peer before the failure detector
   suspects it: below the channel's default budget (20), so a dead node
   is diagnosed faster than a lossy wire. *)
let suspect_attempts = 5

(* Virtual-time bound on a crash-armed run: far beyond any legitimate
   run, yet a livelocked poll loop is cut off in milliseconds of host
   time (see [crash_check]). *)
let watchdog_ns = 300_000_000_000

let state (cfg : Config.t) =
  let n = cfg.nprocs and killed = Array.make cfg.nprocs false in
  match cfg.crash with
  | None ->
      { plan = Crash.empty; stop_at = Array.make n max_int; channel = Reliable.default_config;
        replicas = 0; broken = false; watchdog_ns = max_int; killed; replicated = [||] }
  | Some { Config.plan; broken_failover = broken } ->
      let stop_at p = Option.value (Crash.first_stop plan ~proc:p) ~default:max_int in
      { plan; stop_at = Array.init n stop_at;
        channel = { Reliable.default_config with Reliable.max_attempts = suspect_attempts };
        replicas = (if broken then 0 else replicas); broken; watchdog_ns; killed;
        replicated = [||] }

(* A fiber's death is permanent from its first scheduled Stop event:
   recovery (crash-recovery faults) revives only the *protocol node* —
   network reachability, quorum voting, replica hosting — with amnesia.
   [Crash.is_down] (which honours Recover events) therefore governs the
   fabric and the vote count, while [fiber_dead_at] governs execution. *)
let fiber_dead_at t p ~at = t.recovery.stop_at.(p) <= at

let proto_down t p ~at = Crash.is_down t.recovery.plan ~proc:p ~at

(* Crashes take effect at synchronization points: every protocol
   operation calls this right after its scheduling yield, and again when
   a blocked fiber resumes (a grant can reach a processor that died while
   parked).  [Engine.Killed] unwinds the fiber to [Runtime.run_each],
   which runs [fallout] before the engine ends it.

   The second condition is an application-level livelock guard: the
   recovery protocol keeps the DSM itself making progress, but a program
   can poll shared state only a crashed processor would have advanced (a
   task queue whose worker died mid-task never drains).  Such survivors
   burn virtual time forever; past the watchdog they are declared lost
   and crash-stopped so the run terminates and reports honestly. *)
let crash_check c =
  let r = c.machine.recovery and now = now_ns c in
  if r.stop_at.(c.cid) <= now || now > r.watchdog_ns then raise Engine.Killed

let killed_procs t = List.filter (fun p -> t.recovery.killed.(p)) (List.init t.cfg.nprocs Fun.id)

(* Lowest processor whose fiber is still scheduled to be alive at [at]:
   the deterministic choice for a replacement barrier manager or lock
   owner when no waiter is in line. *)
let lowest_live_fiber t ~at =
  let rec go p =
    if p >= t.cfg.nprocs then None else if fiber_dead_at t p ~at then go (p + 1) else Some p
  in
  go 0

(* The lowest live processor takes over a barrier's manager role (a
   pure mailbox: no barrier data lives there). *)
let reassign_manager t (b : Sync.barrier) ~at =
  match lowest_live_fiber t ~at with Some m -> b.Sync.manager <- m | None -> ()

(* A barrier completes once every participant whose fiber can still
   arrive has arrived: crash-stopped processors that never reached the
   barrier are not waited for (their fibers are gone), while a crashed
   processor that *did* arrive keeps its contribution.  With nobody
   killed this is the exact all-arrived condition. *)
let barrier_ready t (b : Sync.barrier) =
  let killed = t.recovery.killed and dead_missing = ref 0 in
  for p = 0 to Array.length killed - 1 do
    if killed.(p) && not (List.exists (fun a -> a.Sync.a_proc = p) b.Sync.arrived) then
      incr dead_missing
  done;
  let n = List.length b.Sync.arrived in
  n > 0 && n >= b.Sync.participants - !dead_missing

(* Ship a snapshot of the lock's bound data to [replicas] backups when
   an exclusive holder releases.  The snapshot itself goes into the
   recovery state's table; the Replicate messages account for the wire
   traffic.  Replication is fire-and-forget — the releaser's clock does
   not wait for the acks. *)
let replicate c (l : Sync.lock) =
  let t = c.machine in
  let k = t.recovery.replicas in
  if k > 0 then begin
    let at = now_ns c in
    let snapshot = Payload.read_pieces t.space ~proc:c.cid l.Sync.ranges in
    let bytes = Payload.pieces_bytes snapshot in
    let backups = ref [] in
    let n = t.cfg.nprocs in
    let candidate = ref ((c.cid + 1) mod n) in
    while List.length !backups < k && !candidate <> c.cid do
      if not (proto_down t !candidate ~at) then backups := !candidate :: !backups;
      candidate := (!candidate + 1) mod n
    done;
    let backups = List.rev !backups in
    List.iter
      (fun b ->
        match
          Account.send t ~kind:Net.Replicate ~src:c.cid ~dst:b ~payload_bytes:bytes
            ~overhead_bytes:0 ~at
        with
        | (_ : int) -> ()
        | exception (Reliable.Suspected _ | Reliable.Exhausted _) -> ())
      backups;
    let r = t.recovery and lid = l.Sync.lid in
    r.replicated <- Grow.array r.replicated lid ~fill:None;
    r.replicated.(lid) <- Some { backups; snapshot };
    Account.replicated c l ~backups:(List.length backups) ~bytes ~at
  end

(* Quorum ownership transfer away from a suspected-dead owner.  The
   initiator polls every reachable processor (Vote / Vote_reply round
   trips); with a majority of the full membership — counting itself — it
   installs the replicated bound data, applies the epoch rules (cursor
   reset plus incarnation bump, so every stale grant and binding is
   discarded and refetched), and takes ownership.  Returns the virtual
   time the transfer completed, or [None] when no quorum was reachable. *)
let failover t (l : Sync.lock) ~new_owner ~suspect ~at =
  let n = t.cfg.nprocs in
  let votes = ref 1 (* the initiator's own ballot *) and t_votes = ref at and ballots = ref 0 in
  for v = 0 to n - 1 do
    if v <> new_owner && v <> suspect && not (proto_down t v ~at) then begin
      incr ballots;
      match
        let a =
          Account.send t ~kind:Net.Vote ~src:new_owner ~dst:v ~payload_bytes:8 ~overhead_bytes:0 ~at
        in
        Account.send t ~kind:Net.Vote_reply ~src:v ~dst:new_owner ~payload_bytes:8 ~overhead_bytes:0
          ~at:a
      with
      | reply -> incr votes; t_votes := max !t_votes reply
      | exception (Reliable.Suspected _ | Reliable.Exhausted _) -> ()
    end
  done;
  let quorum = (n / 2) + 1 in
  if !votes < quorum then begin
    Account.no_quorum t l ~proc:new_owner ~suspect ~ballots:!ballots ~votes:!votes ~at:!t_votes;
    None
  end
  else begin
    let t_done = ref !t_votes and replica = ref (-1) and replica_bytes = ref 0 in
    if not t.recovery.broken then begin
      (* Epoch rules first: every processor's cursor resets, so the next
         transfer from the new owner ships current bindings in full. *)
      Detector.rebind t.detection l ~ranges:l.Sync.ranges;
      let replicated = t.recovery.replicated and lid = l.Sync.lid in
      match if lid < Array.length replicated then replicated.(lid) else None with
      | Some { backups; snapshot } ->
          (* Fetch from a live backup (free when the new owner is one). *)
          let host =
            if List.mem new_owner backups then None
            else List.find_opt (fun b -> not (proto_down t b ~at:!t_votes)) backups
          in
          replica_bytes := Payload.pieces_bytes snapshot;
          (match host with
          | Some h -> (
              replica := h;
              match
                Account.send t ~kind:Net.Replicate ~src:h ~dst:new_owner
                  ~payload_bytes:!replica_bytes ~overhead_bytes:0 ~at:!t_votes
              with
              | deliver -> t_done := deliver
              | exception (Reliable.Suspected _ | Reliable.Exhausted _) -> ())
          | None -> ());
          (* Installed like a freshly received full transfer. *)
          let d = detector t.ctxs.(new_owner) (lock_scheme t l.Sync.ranges) in
          t_done := !t_done + Detector.install_full d l snapshot
      | None ->
          (* The owner died without ever releasing: nothing was committed,
             so the new owner's own copy — untouched since the bind — is
             the correct state to serve from. *)
          ()
    end;
    l.Sync.owner <- new_owner;
    l.Sync.held_by <- None;
    l.Sync.readers <- List.filter (fun r -> not (fiber_dead_at t r ~at:!t_done)) l.Sync.readers;
    l.Sync.free_at <- max l.Sync.free_at !t_done;
    Account.failover t l ~suspect ~ballots:!ballots ~votes:!votes ~replica:!replica
      ~replica_bytes:!replica_bytes ~t0:at ~at:!t_done;
    Some !t_done
  end

(* [c]'s request to the lock's owner [suspect] burned [elapsed_ns] and
   ended in suspicion.  The suspicion may be about [c] itself: it
   crashed mid-episode and the retransmissions stopped, so after the
   charge the crash check kills the fiber here.  Otherwise [c] takes the
   lock over by quorum and becomes its owner; the caller re-issues the
   request, now a self-send into the queue it will itself serve. *)
let take_over c (l : Sync.lock) ~suspect ~elapsed_ns =
  Account.suspicion c elapsed_ns;
  crash_check c;
  match failover c.machine l ~new_owner:c.cid ~suspect ~at:(now_ns c) with
  | Some t_done -> Account.failover_wait c ~at:t_done
  | None ->
      raise
        (Crash_unavailable
           (Printf.sprintf "lock %d: p%d suspects owner p%d but no majority quorum is reachable"
              l.Sync.lid c.cid suspect))

(* Protocol fallout of fiber [p] crash-stopping at its clock [at], run
   on the dying fiber's stack as [Engine.Killed] unwinds it out of its
   program ([Runtime.run_each]), in the same engine step.  It performs
   no engine effect; it only pushes wakes.  Held and managed state moves
   to live processors so waiters unblock with a grant instead of
   deadlocking: held locks fail over by quorum, barrier managership is
   reassigned, and barriers whose only missing participants are dead
   complete.  The protocol lends the two steps that serve what the
   fallout frees. *)
let fallout t ~service_queue ~barrier_release ~proc:p ~at =
  t.recovery.killed.(p) <- true;
  Account.crashed t ~proc:p ~at;
  List.iter
    (fun (l : Sync.lock) ->
      if Sync.is_reader l p then begin
        l.Sync.readers <- List.filter (fun r -> r <> p) l.Sync.readers;
        if l.Sync.readers = [] then l.Sync.free_at <- Int.max l.Sync.free_at at
      end;
      let needs_failover =
        match l.Sync.held_by with Some h -> h = p | None -> l.Sync.owner = p && l.Sync.pending <> []
      in
      (if needs_failover then
         (* Prefer the head live waiter (it becomes the owner the queue
            is then served from); otherwise the lowest live processor
            inherits the protocol state. *)
         let new_owner =
           match
             List.find_opt
               (fun (r : Sync.request) -> not (fiber_dead_at t r.Sync.r_proc ~at))
               l.Sync.pending
           with
           | Some r -> Some r.Sync.r_proc
           | None -> lowest_live_fiber t ~at
         in
         match new_owner with
         | Some q when q <> p -> ignore (failover t l ~new_owner:q ~suspect:p ~at)
         | Some _ | None -> ());
      service_queue t l)
    t.locks;
  List.iter
    (fun (b : Sync.barrier) ->
      if b.Sync.manager = p then reassign_manager t b ~at;
      if b.Sync.arrived <> [] && barrier_ready t b then barrier_release t b)
    t.barriers
