(* The entry-consistency protocol (paper, section 3) over the machine
   record: typed access and write trapping, lock and barrier transfers,
   region re-election and running.  Crash recovery is [Recovery]'s, and
   each fact's accounting and event is [Account]'s. *)

include Machine

exception Crash_unavailable = Recovery.Crash_unavailable

let alloc t ?line_size ?(private_ = false) bytes =
  let line_size = Option.value line_size ~default:64 in
  let kind = if private_ then Region.Private else Region.Shared in
  Space.alloc t.space ~kind ~line_size bytes

(* A new lock or barrier's binding, a fact no event carries, goes to
   ECSan's binding index directly. *)
let register t ~id ~kind ranges =
  match t.checker with
  | Some ch -> Check.on_new_sync ch ~id ~kind ~raw:(Account.raw_pairs ranges)
  | None -> ()

let new_lock t ?(owner = 0) ranges =
  let lid = t.next_sync_id in
  t.next_sync_id <- lid + 1;
  let l = Sync.make_lock ~lid ~nprocs:t.cfg.nprocs ~owner ~ranges in
  t.locks <- l :: t.locks;
  register t ~id:lid ~kind:Midway_check.Binding_index.Lock ranges;
  l

let new_barrier t ?participants ?(manager = 0) ranges =
  let participants = Option.value participants ~default:t.cfg.nprocs in
  let bid = t.next_sync_id in
  t.next_sync_id <- bid + 1;
  let b = Sync.make_barrier ~bid ~nprocs:t.cfg.nprocs ~participants ~manager ~ranges in
  t.barriers <- b :: t.barriers;
  register t ~id:bid ~kind:Midway_check.Binding_index.Barrier ranges;
  b

(* ------------------------------------------------------------------ *)
(* Processor basics                                                    *)
(* ------------------------------------------------------------------ *)

let id c = c.cid

let nprocs c = c.machine.cfg.nprocs

let log_request = Account.kv_request

let work_ns c ns = Engine.charge c.proc ns

let work_cycles c cycles = Engine.charge c.proc (cycles * c.machine.cfg.cost.cycle_ns)

(* ------------------------------------------------------------------ *)
(* Write trapping                                                      *)
(* ------------------------------------------------------------------ *)

(* A store traps through the detector its *region* elected, whatever the
   machine default says.  The region and detector lookups,
   [Detector.trap] with its templates and [Engine.charge] inline into
   it; [trap] itself stays out of line, so that the accessors inlined
   into the apps' loops stay small. *)
let trap c addr len =
  let t = c.machine in
  let region = Space.region_of_addr t.space addr in
  let ns = Detector.trap (detector c (scheme_of_region t region.Region.index)) ~region ~addr ~len in
  if ns > 0 then begin
    c.counters.trap_time_ns <- c.counters.trap_time_ns + ns;
    Engine.charge c.proc ns
  end

(* ------------------------------------------------------------------ *)
(* Typed access                                                        *)
(* ------------------------------------------------------------------ *)

(* ECSan's per-access hook.  [ecsan_access] is an inlined test of
   [c.check]: with the sanitizer off an access pays one load and branch
   and makes no call; only an armed checker calls [ecsan_hook]. *)
let ecsan_hook c ch addr len ~op ~access =
  let shared_region =
    match Space.find_region c.machine.space addr with
    | Some r -> r.Region.kind = Region.Shared
    | None -> false
  in
  Check.on_access ch ~proc:c.cid ~time:(now_ns c) ~addr ~len ~op ~access ~shared_region

let[@inline] ecsan_access c addr len ~op ~access =
  match c.check with None -> () | Some ch -> ecsan_hook c ch addr len ~op ~access

(* The typed accessors are inlined into their callers, like Space's, so
   an int32 or float read or stored in an application's loop is never
   boxed.  Each goes from the processor's context to its cursor: a hit
   is a few loads, one compare and the unchecked load or store, with no
   call.  A store first calls [trap], once. *)
let[@inline] read_f64 c addr =
  let v = Space.load_f64 c.cursor addr in
  ecsan_access c addr 8 ~op:"read_f64" ~access:Check.Read;
  v

let[@inline] read_int c addr =
  let v = Space.load_int c.cursor addr in
  ecsan_access c addr 8 ~op:"read_int" ~access:Check.Read;
  v

let[@inline] read_i32 c addr =
  let v = Space.load_i32 c.cursor addr in
  ecsan_access c addr 4 ~op:"read_i32" ~access:Check.Read;
  v

let[@inline] read_u8 c addr =
  let v = Space.load_u8 c.cursor addr in
  ecsan_access c addr 1 ~op:"read_u8" ~access:Check.Read;
  v

let read_bytes c addr ~len =
  let v = Space.read_bytes c.machine.space ~proc:c.cid addr ~len in
  ecsan_access c addr len ~op:"read_bytes" ~access:Check.Read;
  v

let[@inline] write_f64 c addr v =
  trap c addr 8;
  Space.store_f64 c.cursor addr v;
  ecsan_access c addr 8 ~op:"write_f64" ~access:Check.Write

let[@inline] write_int c addr v =
  trap c addr 8;
  Space.store_int c.cursor addr v;
  ecsan_access c addr 8 ~op:"write_int" ~access:Check.Write

let[@inline] write_i32 c addr v =
  trap c addr 4;
  Space.store_i32 c.cursor addr v;
  ecsan_access c addr 4 ~op:"write_i32" ~access:Check.Write

let[@inline] write_u8 c addr v =
  trap c addr 1;
  Space.store_u8 c.cursor addr v;
  ecsan_access c addr 1 ~op:"write_u8" ~access:Check.Write

let write_bytes c addr buf =
  trap c addr (Bytes.length buf);
  Space.write_bytes c.machine.space ~proc:c.cid addr buf;
  ecsan_access c addr (Bytes.length buf) ~op:"write_bytes" ~access:Check.Write

let[@inline] write_f64_private c addr v =
  Space.store_f64 c.cursor addr v;
  ecsan_access c addr 8 ~op:"write_f64_private" ~access:Check.Private_write

let[@inline] write_int_private c addr v =
  Space.store_int c.cursor addr v;
  ecsan_access c addr 8 ~op:"write_int_private" ~access:Check.Private_write

(* ------------------------------------------------------------------ *)
(* Switching a region's backend                                        *)
(* ------------------------------------------------------------------ *)

let region_span t idx = Range.v (idx * t.cfg.region_size) t.cfg.region_size

let binding_intersects ranges span =
  List.exists (fun (r : Range.t) -> (not (Range.is_empty r)) && Range.overlaps r span) ranges

(* A switch is safe when no binding rooted in the region is mid-
   transfer: no lock held or read-held, no barrier with parked arrivals
   (their mailboxed payloads were collected under the old backend).
   Pending lock requests are fine — they are served after the switch,
   and the epoch bump below makes that service a full transfer. *)
let safe_to_switch t idx =
  let span = region_span t idx in
  List.for_all
    (fun (l : Sync.lock) ->
      (not (binding_intersects l.Sync.ranges span))
      || (l.Sync.held_by = None && l.Sync.readers = []))
    t.locks
  && List.for_all
       (fun (b : Sync.barrier) ->
         (not (binding_intersects b.Sync.branges span)) || b.Sync.arrived = [])
       t.barriers

(* Re-elect a region's detection backend.  Correctness rests on the
   rebinding rules: every binding overlapping the region is epoch-bumped
   (RT cursors to never-seen, VM incarnation bump with a full marker),
   so the next transfer of each ships the bound data in full from its
   owner — which makes it safe to wipe the region's slice of every
   per-processor detection state, old and new alike.  The modeled cost
   of a switch is exactly those forced full transfers. *)
let switch_region_backend t ~region_index ~to_ ~at =
  if not (Detector.electable to_) then
    invalid_arg "Runtime.switch_region_backend: vm-fine and standalone are machine-wide";
  if not (Detector.electable t.cfg.backend) then
    invalid_arg "Runtime.switch_region_backend: the machine backend is not per-region electable";
  if t.cfg.untargetted then
    invalid_arg "Runtime.switch_region_backend: untargetted bindings are machine-wide";
  t.elected <- Grow.array t.elected region_index ~fill:None;
  let from_ = scheme_of_region t region_index in
  if from_ <> to_ then begin
    t.elected.(region_index) <- Some to_;
    let span = region_span t region_index in
    List.iter
      (fun (l : Sync.lock) ->
        if binding_intersects l.Sync.ranges span then
          Detector.rebind t.detection ~switch:true l ~ranges:l.Sync.ranges)
      t.locks;
    (match Space.find_region t.space span.Range.addr with
    | None -> ()  (* nothing allocated there yet: no state to wipe *)
    | Some region ->
        Array.iter
          (fun c -> List.iter (fun (_, d) -> Detector.forget_region d region) c.detectors)
          t.ctxs);
    Account.backend_switched t ~region:region_index ~from_ ~to_ ~at
  end

(* Adaptive decision point: ask the policy about each region the just-
   quiesced binding touches, and commit recommended switches that are
   safe right now.  A no-op without [Config.adaptive]. *)
let maybe_adapt t ranges ~at =
  match t.policy with
  | None -> ()
  | Some p ->
      let seen = ref [] in
      List.iter
        (fun (r : Range.t) ->
          if not (Range.is_empty r) then begin
            let idx = region_index_of t r.Range.addr in
            if not (List.mem idx !seen) then begin
              seen := idx :: !seen;
              let current = scheme_of_region t idx in
              if Policy.manages current && safe_to_switch t idx then
                match Policy.decide p ~region:idx ~current with
                | Some target ->
                    switch_region_backend t ~region_index:idx ~to_:target ~at;
                    Policy.note_switch p ~region:idx
                | None -> ()
            end
          end)
        ranges

(* ------------------------------------------------------------------ *)
(* Transfers                                                           *)
(* ------------------------------------------------------------------ *)

let wire_overhead payload = Payload.descriptors payload * Payload.descriptor_bytes

(* ------------------------------------------------------------------ *)
(* Lock protocol                                                       *)
(* ------------------------------------------------------------------ *)

(* Serve one pending request: runs at the releaser side (conceptually on
   its runtime thread), computes the update payload, applies it at the
   requester and schedules the requester's resumption.  A shared-mode
   grant leaves ownership with the last writer and just registers the
   reader. *)
let rec serve t (l : Sync.lock) (r : Sync.request) =
  let q = r.Sync.r_proc and mode = r.Sync.r_mode and waker = r.Sync.r_waker in
  let releaser = l.Sync.owner in
  let rc = t.ctxs.(releaser) and qc = t.ctxs.(q) in
  let service_time = Int.max r.Sync.r_arrival l.Sync.free_at in
  (* The lock's elected scheme decides both sides of the transfer. *)
  let scheme = lock_scheme t l.Sync.ranges in
  let rd = detector rc scheme in
  let payload, collect_ns, cursor = Account.collect_lock rc rd l ~for_:q ~at:service_time in
  let app = Payload.app_bytes payload in
  match
    Account.send t ~overhead_bytes:(wire_overhead payload) ~kind:Net.Lock_reply
      ~src:releaser ~dst:q ~payload_bytes:app ~at:(service_time + collect_ns)
  with
  | deliver ->
      let apply_ns =
        Account.apply qc (detector qc scheme) ~sync:Event.Lock ~id:l.Sync.lid
          ~ranges:l.Sync.ranges ~app ~deliver payload
      in
      Detector.advance rd l ~requester:q cursor;
      (match mode with
      | Sync.Exclusive ->
          l.Sync.owner <- q;
          l.Sync.held_by <- Some q
      | Sync.Shared -> l.Sync.readers <- q :: l.Sync.readers);
      Account.grant rc l mode ~to_:q ~payload_bytes:app ~at:(deliver + apply_ns);
      waker ~at:(deliver + apply_ns)
  | exception Reliable.Suspected s ->
      (* The grant raced a crash at one end of the link. *)
      let give_up = service_time + collect_ns + s.Reliable.s_elapsed_ns in
      if Recovery.fiber_dead_at t q ~at:give_up then
        (* Dead requester: wake it grant-less so it terminates through
           its post-block crash check. *)
        waker ~at:give_up
      else begin
        (* The releaser crashed mid-grant: the requester takes over by
           quorum, re-queues at the front and is served from its own
           (replica-installed) copy — a local self-send.  With no quorum
           reachable the request is parked un-granted; the run then
           surfaces as a deadlock whose diagnostics name the crashed
           processor (only a scripted majority-down plan can get here). *)
        match Recovery.failover t l ~new_owner:q ~suspect:releaser ~at:give_up with
        | Some _ ->
            l.Sync.pending <- r :: l.Sync.pending;
            service_queue t l
        | None -> ()
      end

(* Drain the request queue as far as the lock state allows: shared grants
   stack up; an exclusive grant needs the lock free of holders *and*
   readers, and stops the drain.  With crash faults armed, a requester
   whose fiber is scheduled to be dead by service time is not granted —
   it is woken empty-handed and terminates through its post-block crash
   check instead of deadlocking the queue behind it. *)
and service_queue t (l : Sync.lock) =
  if l.Sync.held_by = None then begin
    match l.Sync.pending with
    | [] -> ()
    | r :: rest
      when Recovery.fiber_dead_at t r.Sync.r_proc
             ~at:(Int.max r.Sync.r_arrival l.Sync.free_at) ->
        l.Sync.pending <- rest;
        r.Sync.r_waker ~at:(Int.max r.Sync.r_arrival l.Sync.free_at);
        service_queue t l
    | r :: rest -> (
        match r.Sync.r_mode with
        | Sync.Shared ->
            l.Sync.pending <- rest;
            serve t l r;
            service_queue t l
        | Sync.Exclusive ->
            if l.Sync.readers = [] then begin
              l.Sync.pending <- rest;
              serve t l r
            end)
  end

let create cfg = Machine.create cfg ~recovery:(Recovery.state cfg) ~service_queue

(* Send [c]'s request for [l] to the lock's owner; the time it arrives.
   With crash faults armed the request can exhaust its retries against a
   dead owner: the suspicion surfaces as [Reliable.Suspected], this
   requester initiates a quorum failover (becoming the new owner), and
   the request is re-issued — now a self-send that lands in the queue it
   will itself serve. *)
let rec request_owner t c l =
  let dst = l.Sync.owner in
  match
    Account.send t ~kind:Net.Lock_request ~src:c.cid ~dst ~payload_bytes:0 ~overhead_bytes:0
      ~at:(now_ns c)
  with
  | arrival -> arrival
  | exception Reliable.Suspected s ->
      Recovery.take_over c l ~suspect:dst ~elapsed_ns:s.Reliable.s_elapsed_ns;
      request_owner t c l

let acquire_mode c l mode =
  let t = c.machine in
  Engine.yield c.proc;
  Recovery.crash_check c;
  (match l.Sync.held_by with
  | Some holder when holder = c.cid ->
      failwith (Printf.sprintf "Runtime.acquire: lock %d is not reentrant" l.Sync.lid)
  | _ -> ());
  if Sync.is_reader l c.cid then
    failwith (Printf.sprintf "Runtime.acquire: lock %d already held in shared mode" l.Sync.lid);
  let grantable_locally =
    l.Sync.held_by = None && l.Sync.owner = c.cid && l.Sync.pending = []
    && (mode = Sync.Shared || l.Sync.readers = [])
  in
  if grantable_locally then begin
    (* Local re-acquisition: no messages, no collection. *)
    (match mode with
    | Sync.Exclusive -> l.Sync.held_by <- Some c.cid
    | Sync.Shared -> l.Sync.readers <- c.cid :: l.Sync.readers);
    Account.local_grant c l mode
  end
  else begin
    let req_at = now_ns c in
    Account.request c l mode;
    let r = c.request in
    r.Sync.r_lock <- l;
    r.Sync.r_mode <- mode;
    r.Sync.r_arrival <- request_owner t c l;
    let blocked_at = now_ns c in
    Engine.block c.proc ?reason:c.acquire_reason ~setup:c.acquire_setup;
    Account.woke_acquire c l mode ~since:blocked_at;
    Account.acquire_wait c l ~since:req_at;
    (* The processor may have crash-stopped while parked: the wake (a
       grant, or the queue skipping a dead requester) is where it dies. *)
    Recovery.crash_check c
  end

let acquire c l = acquire_mode c l Sync.Exclusive

let acquire_read c l = acquire_mode c l Sync.Shared

let release c l =
  let t = c.machine in
  Engine.yield c.proc;
  Recovery.crash_check c;
  let exclusive = match l.Sync.held_by with Some holder -> holder = c.cid | None -> false in
  if not (exclusive || Sync.is_reader l c.cid) then
    failwith (Printf.sprintf "Runtime.release: lock %d not held by p%d" l.Sync.lid c.cid);
  Account.release c l;
  if exclusive then begin
    (* The release commits this critical section: with crash faults
       armed, snapshot the bound data to the backup processors before
       anyone else can acquire.  A holder that crashes mid-section thus
       reverts to exactly this committed state at failover. *)
    Recovery.replicate c l;
    l.Sync.held_by <- None;
    l.Sync.free_at <- now_ns c;
    (* A release with no outstanding holders is the adaptive safe
       point: pending requesters are served *after* any switch, which
       the epoch bump turns into full transfers. *)
    maybe_adapt t l.Sync.ranges ~at:(now_ns c);
    service_queue t l
  end
  else begin
    l.Sync.readers <- List.filter (fun p -> p <> c.cid) l.Sync.readers;
    if l.Sync.readers = [] then begin
      l.Sync.free_at <- Int.max l.Sync.free_at (now_ns c);
      service_queue t l
    end
  end

let rebind c l ranges =
  Engine.yield c.proc;
  Recovery.crash_check c;
  (match l.Sync.held_by with
  | Some holder when holder = c.cid -> ()
  | _ -> failwith (Printf.sprintf "Runtime.rebind: lock %d not held by p%d" l.Sync.lid c.cid));
  Detector.rebind c.machine.detection l ~ranges;
  Account.rebind c l ranges

(* ------------------------------------------------------------------ *)
(* Barrier protocol                                                    *)
(* ------------------------------------------------------------------ *)

(* All participants have arrived: merge their modifications and send each
   processor what the others produced. *)
let barrier_release t (b : Sync.barrier) =
  let arrivals = List.sort (fun a b -> Int.compare a.Sync.a_proc b.Sync.a_proc) b.Sync.arrived in
  let t_all = List.fold_left (fun acc a -> Int.max acc a.Sync.a_deliver) 0 arrivals in
  let payload_for p =
    (* Everything the other participants produced, in processor order. *)
    let parts = List.filter (fun a -> a.Sync.a_proc <> p) arrivals in
    let rt_parts =
      List.concat_map
        (fun a -> match a.Sync.a_payload with Payload.Rt_runs ps -> ps | _ -> [])
        parts
    in
    let vm_pieces =
      List.concat_map
        (fun a -> match a.Sync.a_payload with Payload.Vm_full ps -> ps | _ -> [])
        parts
    in
    if rt_parts <> [] then Payload.Rt_runs rt_parts
    else if vm_pieces <> [] then Payload.Vm_full vm_pieces
    else Payload.Empty
  in
  let merge_lines =
    List.fold_left (fun acc a -> acc + Payload.descriptors a.Sync.a_payload) 0 arrivals
  in
  let t_release = t_all + (merge_lines * Cost_model.apply_line_ns) in
  (* Barriers elect like locks; every arrival collected under [scheme]
     (a switch waits for the barrier's mailboxes to drain). *)
  let scheme = barrier_scheme t b.Sync.branges in
  let cursor = List.fold_left (fun acc a -> Int.max acc a.Sync.a_stamp) 0 arrivals in
  (* Wake each arrival with its release; returns the messages sent. *)
  let rec release = function
    | [] -> 0
    | a :: rest when Recovery.fiber_dead_at t a.Sync.a_proc ~at:t_release ->
        (* The arrival's contribution was already merged, but the fiber
           is gone: wake it without a release grant so it terminates
           through its post-block crash check. *)
        a.Sync.a_waker ~at:t_release;
        release rest
    | a :: rest ->
        let p = a.Sync.a_proc in
        let pc = t.ctxs.(p) in
        let payload = payload_for p in
        let app = Payload.app_bytes payload in
        let deliver =
          match
            Account.send t ~overhead_bytes:(wire_overhead payload) ~kind:Net.Barrier_release
              ~src:b.Sync.manager ~dst:p ~payload_bytes:app ~at:t_release
          with
          | d -> d
          | exception Reliable.Suspected s ->
              (* The broadcast raced a crash at one end of the link.  The
                 merged modifications already sit in the arrival mailboxes,
                 so a live participant proceeds after the detection delay;
                 a dead one dies at its post-block crash check either way. *)
              t_release + s.Reliable.s_elapsed_ns
        in
        let d = detector pc scheme in
        let apply_ns =
          Account.apply pc d ~sync:Event.Barrier ~id:b.Sync.bid ~ranges:b.Sync.branges ~app
            ~deliver payload
        in
        Detector.advance_barrier d cursor;
        a.Sync.a_waker ~at:(deliver + apply_ns);
        Bool.to_int (p <> b.Sync.manager) + release rest
  in
  Account.barrier_completed t b ~at:t_release ~messages:(release arrivals);
  b.Sync.episode <- b.Sync.episode + 1;
  b.Sync.arrived <- [];
  (* Barrier-bound regions adapt here: the episode is over, every
     mailbox is drained, and the next episode's collections run under
     whatever the switch installs. *)
  maybe_adapt t b.Sync.branges ~at:t_release

let barrier c b =
  let t = c.machine in
  Engine.yield c.proc;
  Recovery.crash_check c;
  if b.Sync.participants = 1 then begin
    (* Degenerate (uniprocessor) barrier: no consumers, so no collection
       takes place — the paper's uniprocessor VM run "never diffs or write
       protects a page, since the data is never transferred". *)
    Account.barrier_completed t b ~at:(now_ns c) ~messages:0;
    b.Sync.episode <- b.Sync.episode + 1;
    Account.barrier_wait c b ~since:(now_ns c)
  end
  else begin
    if t.cfg.untargetted && b.Sync.branges <> [] then
      failwith "Runtime.barrier: the untargetted model supports lock-based data sharing only";
    let d = detector c (barrier_scheme t b.Sync.branges) in
    let payload, _, cursor = Account.collect_barrier c d b in
    let app = Payload.app_bytes payload in
    (* With crash faults armed the arrival can exhaust its retries
       against a dead manager; the lowest live processor takes over the
       manager role (a pure mailbox — no barrier data lives there) and
       the arrival is re-sent. *)
    let rec send_arrival () =
      let dst = b.Sync.manager in
      match
        Account.send t ~overhead_bytes:(wire_overhead payload) ~kind:Net.Barrier_arrive
          ~src:c.cid ~dst ~payload_bytes:app ~at:(now_ns c)
      with
      | deliver -> deliver
      | exception Reliable.Suspected s ->
          Account.suspicion c s.Reliable.s_elapsed_ns;
          (* A dead *sender* dies here rather than retrying forever. *)
          Recovery.crash_check c;
          Recovery.reassign_manager t b ~at:(now_ns c);
          send_arrival ()
    in
    let deliver = send_arrival () in
    Account.barrier_arrived c b ~payload_bytes:app;
    let wait0 = now_ns c in
    (* the episode as this processor arrives: its release moves it on *)
    let bid = b.Sync.bid and episode = b.Sync.episode in
    Engine.block c.proc
      ~reason:(fun () -> Event.wait_reason (Event.Crossing { barrier = bid; episode }))
      ~setup:(fun ~wake ->
        b.Sync.arrived <-
          b.Sync.arrived
          @ [
              {
                Sync.a_proc = c.cid;
                a_deliver = deliver;
                a_waker = wake;
                a_payload = payload;
                a_stamp = cursor;
              };
            ];
        if Recovery.barrier_ready t b then barrier_release t b);
    Account.woke_barrier c b ~episode ~since:wait0;
    Account.barrier_wait c b ~since:wait0;
    Recovery.crash_check c
  end

(* ------------------------------------------------------------------ *)
(* Running                                                             *)
(* ------------------------------------------------------------------ *)

(* [prefix] and "p0,p2" for a non-empty processor list, else "". *)
let procs_note prefix = function
  | [] -> ""
  | ps -> prefix ^ String.concat "," (List.map (Printf.sprintf "p%d") ps)

(* Enrich an engine deadlock with the synchronization state so the bug
   in the simulated program is visible at a glance. *)
let deadlock_diagnostics t =
  let lock_lines =
    List.filter_map
      (fun (l : Sync.lock) ->
        if l.Sync.held_by = None && l.Sync.readers = [] && l.Sync.pending = [] then None
        else
          Some
            (Printf.sprintf "  lock %d: %s%s%s" l.Sync.lid
               (match l.Sync.held_by with Some p -> Printf.sprintf "held by p%d" p | None -> "free")
               (procs_note ", readers " l.Sync.readers)
               (procs_note ", waiting "
                  (List.map (fun (r : Sync.request) -> r.Sync.r_proc) l.Sync.pending))))
      t.locks
  in
  let barrier_lines =
    List.filter_map
      (fun (b : Sync.barrier) ->
        match b.Sync.arrived with
        | [] -> None
        | arrived ->
            Some
              (Printf.sprintf "  barrier %d: %d/%d arrived (%s)" b.Sync.bid (List.length arrived)
                 b.Sync.participants
                 (procs_note "" (List.map (fun a -> a.Sync.a_proc) arrived))))
      t.barriers
  in
  let crash_lines =
    match Recovery.killed_procs t with [] -> [] | dead -> [ procs_note "  crash-stopped: " dead ]
  in
  String.concat "\n" (lock_lines @ barrier_lines @ crash_lines)

let run_each t bodies =
  if t.ran then invalid_arg "Runtime.run: machine already ran";
  if Array.length bodies <> t.cfg.nprocs then
    invalid_arg "Runtime.run_each: need one body per processor";
  t.ran <- true;
  (* ECSan's static pass: lint the binding table as it stands at launch.
     (During the run bindings may legitimately overlap transiently while
     a worker splits and rebinds, so this runs exactly once, here.) *)
  (match t.checker with
  | Some ch ->
      Check.lint ch
        ~region_kind:(fun addr ->
          match Space.find_region t.space addr with
          | Some r -> if r.Region.kind = Region.Shared then `Shared else `Private
          | None -> `Unmapped)
  | None -> ());
  (* A crash-stopped processor's fallout runs as [Engine.Killed] leaves
     its program, at its clock, before the engine ends the fiber. *)
  Array.iteri
    (fun i body ->
      let c = t.ctxs.(i) in
      Engine.spawn t.engine i (fun _proc ->
          try body c
          with Engine.Killed ->
            Recovery.fallout t ~service_queue ~barrier_release ~proc:i ~at:(now_ns c);
            raise Engine.Killed))
    bodies;
  (try Engine.run t.engine
   with Engine.Deadlock msg ->
     let detail = deadlock_diagnostics t in
     raise
       (Engine.Deadlock (if detail = "" then msg else Printf.sprintf "%s\n%s" msg detail)));
  Account.recoveries t

let run t body = run_each t (Array.make t.cfg.nprocs body)

(* Post-run protocol invariant checking: structural properties that hold
   for every correct program over a correct protocol. *)
let check_invariants t =
  let problems = ref [] in
  let report fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun (l : Sync.lock) ->
      (match l.Sync.held_by with
      | Some p -> report "lock %d still held by p%d at end of run" l.Sync.lid p
      | None -> ());
      if l.Sync.readers <> [] then
        report "lock %d still held by %d reader(s) at end of run" l.Sync.lid
          (List.length l.Sync.readers);
      if l.Sync.pending <> [] then
        report "lock %d has %d pending request(s) at end of run" l.Sync.lid
          (List.length l.Sync.pending))
    t.locks;
  List.iter
    (fun (b : Sync.barrier) ->
      if b.Sync.arrived <> [] then
        report "barrier %d has %d processor(s) parked at end of run" b.Sync.bid
          (List.length b.Sync.arrived))
    t.barriers;
  (* Reliable channel: every message must have been acked by end of run. *)
  (match t.reliable with
  | Some ch when Reliable.unacked ch > 0 ->
      report "reliable channel has %d unacked message(s) in flight at end of run"
        (Reliable.unacked ch)
  | Some _ | None -> ());
  (* Every detector checks its own state.  A lock's data may be left
     locally dirty only at its owner: the gate is per lock, each lock
     answering to its elected scheme (switches wipe the departed scheme's
     region state, so the check stays sound across re-elections).  A
     crash-stopped processor legitimately leaves its lost in-section
     writes locally dirty: they were never collected and the failover
     reverted everyone else to the replica. *)
  Array.iter
    (fun (c : ctx) ->
      List.iter
        (fun (scheme, d) ->
          let unowned =
            if t.cfg.untargetted || t.recovery.killed.(c.cid) then []
            else
              List.filter
                (fun (l : Sync.lock) ->
                  l.Sync.owner <> c.cid && lock_scheme t l.Sync.ranges == scheme)
                t.locks
          in
          List.iter (fun s -> problems := s :: !problems) (Detector.invariants d ~unowned))
        c.detectors)
    t.ctxs;
  (* Every bound range must point at mapped, allocated memory: a lock
     left bound to freed or never-allocated space would make collection
     scan garbage. *)
  let check_binding what id ranges =
    List.iter
      (fun (r : Range.t) ->
        if not (Range.is_empty r) then
          match Space.find_region t.space r.Range.addr with
          | None -> report "%s %d: bound range [%#x,%#x) is unmapped" what id r.Range.addr (Range.limit r)
          | Some reg ->
              if Range.limit r > Region.base reg + reg.Region.used then
                report "%s %d: bound range [%#x,%#x) extends past the region's allocated %d bytes"
                  what id r.Range.addr (Range.limit r) reg.Region.used)
      ranges
  in
  List.iter (fun (l : Sync.lock) -> check_binding "lock" l.Sync.lid l.Sync.ranges) t.locks;
  List.iter (fun (b : Sync.barrier) -> check_binding "barrier" b.Sync.bid b.Sync.branges) t.barriers;
  (* ECSan's binding index must mirror the protocol's Sync records
     exactly — drift would mean the sanitizer checked stale bindings. *)
  (match t.checker with
  | Some ch ->
      let expect what id ranges =
        let mine = Account.raw_pairs (Range.normalize ranges) in
        let index = Check.current_ranges ch ~id in
        if mine <> index then
          report "%s %d: sanitizer binding index out of sync (%d vs %d range(s))" what id
            (List.length index) (List.length mine)
      in
      List.iter (fun (l : Sync.lock) -> expect "lock" l.Sync.lid l.Sync.ranges) t.locks;
      List.iter (fun (b : Sync.barrier) -> expect "barrier" b.Sync.bid b.Sync.branges) t.barriers
  | None -> ());
  List.rev !problems

let check_report t =
  match t.checker with
  | None -> Midway_check.Report.disabled
  | Some ch -> Check.report ch

let elapsed_ns t = Engine.elapsed t.engine

let schedule_choices t = Engine.choices t.engine

(* --- crash-fault introspection (empty / full / zero when crash off) --- *)

let killed_procs = Recovery.killed_procs

let failover_count t =
  Array.fold_left (fun acc c -> acc + c.counters.Counters.failovers) 0 t.ctxs

let availability t =
  let n = t.cfg.nprocs in
  float_of_int (n - List.length (killed_procs t)) /. float_of_int n

(* --- hybrid write detection introspection and control --------------- *)

let region_backend_at t ~addr = scheme_of_region t (region_index_of t addr)

let region_assignments t =
  let out = ref [] in
  Array.iteri
    (fun i b -> match b with Some b -> out := (i, b) :: !out | None -> ())
    t.elected;
  List.rev !out

let backend_switches t = t.switches

let set_region_backend t ~addr b =
  let idx = region_index_of t addr in
  if not (safe_to_switch t idx) then
    invalid_arg
      "Runtime.set_region_backend: a binding in the region is held or mid-episode (not a \
       safe point)";
  switch_region_backend t ~region_index:idx ~to_:b ~at:(Engine.elapsed t.engine)
