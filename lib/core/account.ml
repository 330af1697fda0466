(* One function per protocol fact: it charges the processor's clock,
   updates its counters, feeds the adaptive policy and, only when a
   subscriber is armed, builds and emits the fact's event.  [Runtime]
   and [Recovery] call these and keep only the protocol. *)

open Machine

let[@inline] armed t = match t.emit with Some _ -> true | None -> false

let emit t e = match t.emit with Some f -> f e | None -> ()

(* ECSan sees the caller's raw range lists (pre-normalization), so its
   lint can flag degenerate entries the protocol silently drops. *)
let raw_pairs ranges = List.map (fun (r : Range.t) -> (r.Range.addr, r.Range.len)) ranges

let local_grant c (l : Sync.lock) mode =
  c.counters.lock_acquires_local <- c.counters.lock_acquires_local + 1;
  Engine.charge c.proc Cost_model.local_lock_ns;
  let t = now_ns c and lock = l.Sync.lid and shared = mode = Sync.Shared in
  if armed c.machine then emit c.machine (Event.Lock_local { t; lock; proc = c.cid; shared })

let request c (l : Sync.lock) mode =
  c.counters.lock_acquires_remote <- c.counters.lock_acquires_remote + 1;
  c.counters.messages <- c.counters.messages + 1;
  let t = now_ns c and lock = l.Sync.lid and shared = mode = Sync.Shared in
  if armed c.machine then emit c.machine (Event.Lock_requested { t; lock; proc = c.cid; shared })

(* [c] woke from the block it entered at [since] to wait for the grant
   of [l] in [mode]. *)
let woke_acquire c (l : Sync.lock) mode ~since =
  if armed c.machine then
    let wait = Event.Acquire { lock = l.Sync.lid; shared = mode = Sync.Shared } in
    emit c.machine (Event.Sched_block { proc = c.cid; wait; t0 = since; t1 = now_ns c })

(* [c] woke from the block it entered at [since] to wait for the release
   of [b]'s [episode]. *)
let woke_barrier c (b : Sync.barrier) ~episode ~since =
  if armed c.machine then
    let wait = Event.Crossing { barrier = b.Sync.bid; episode } in
    emit c.machine (Event.Sched_block { proc = c.cid; wait; t0 = since; t1 = now_ns c })

let acquire_wait c (l : Sync.lock) ~since =
  let proc = c.cid and lock = l.Sync.lid and t1 = now_ns c in
  if armed c.machine then emit c.machine (Event.Acquire_wait { proc; lock; t0 = since; t1 })

let grant rc (l : Sync.lock) mode ~to_ ~payload_bytes ~at =
  rc.counters.messages <- rc.counters.messages + 1;
  let lock = l.Sync.lid and from_ = rc.cid and shared = mode = Sync.Shared in
  if armed rc.machine then
    emit rc.machine (Event.Lock_granted { t = at; lock; from_; to_; shared; payload_bytes })

let release c (l : Sync.lock) =
  Engine.charge c.proc Cost_model.release_ns;
  let t = now_ns c and lock = l.Sync.lid in
  if armed c.machine then emit c.machine (Event.Lock_released { t; lock; proc = c.cid })

let rebind c (l : Sync.lock) ranges =
  Engine.charge c.proc Cost_model.release_ns;
  if armed c.machine then
    let t = now_ns c and lock = l.Sync.lid and bound_bytes = Sync.lock_bound_bytes l in
    let ranges = raw_pairs ranges in
    emit c.machine (Event.Lock_rebound { t; lock; proc = c.cid; bound_bytes; ranges })

let kv_request c ~lock:(l : Sync.lock) ~op ~since =
  let lock = l.Sync.lid and t1 = now_ns c in
  if armed c.machine then emit c.machine (Event.Request { proc = c.cid; lock; op; t0 = since; t1 })

let first_bound_region t ranges =
  match List.find_opt (fun (r : Range.t) -> not (Range.is_empty r)) ranges with
  | Some r -> Space.find_region t.space r.Range.addr
  | None -> None

(* The event gets the page diffs and dirty bytes counted since [pages0] and [dirty0]. *)
let collected c d ~sync ~id ~ranges ~rebound ~t0 ~pages0 ~dirty0 payload ns =
  let t = c.machine and bytes = Payload.app_bytes payload in
  c.counters.collect_time_ns <- c.counters.collect_time_ns + ns;
  c.counters.data_sent_bytes <- c.counters.data_sent_bytes + bytes;
  (match t.policy with
  | None -> ()
  | Some p -> (
      match first_bound_region t ranges with
      | None -> ()
      | Some region ->
          let pages, runs = Payload.page_runs payload ~page_size:t.cfg.cost.page_size in
          Policy.note_collect p ~region:region.Region.index ~line_size:region.Region.line_size
            ~bound_bytes:(Range.total_bytes ranges) ~payload_bytes:bytes ~payload_pages:pages
            ~payload_runs:runs ~rebound));
  if armed t then
    let pages = c.counters.pages_diffed - pages0 and scan = Detector.label d in
    let dirty_bytes = c.counters.dirty_bytes_found - dirty0 in
    emit t (Event.Collect { proc = c.cid; sync; id; t0; ns; bytes; scan; pages; dirty_bytes })

(* At service time [at], on the releaser's runtime thread: its clock is
   not charged.  [rebound] is read before the collection moves the cursors. *)
let collect_lock rc d (l : Sync.lock) ~for_ ~at =
  let rebound = Option.is_some rc.machine.policy && Detector.ships_full d l ~for_ in
  let pages0 = rc.counters.pages_diffed and dirty0 = rc.counters.dirty_bytes_found in
  let ((payload, ns, _) as collection) = Detector.collect_lock d l ~for_ in
  collected rc d ~sync:Event.Lock ~id:l.Sync.lid ~ranges:l.Sync.ranges ~rebound ~t0:at ~pages0
    ~dirty0 payload ns;
  collection

let collect_barrier c d (b : Sync.barrier) =
  let t0 = now_ns c in
  let pages0 = c.counters.pages_diffed and dirty0 = c.counters.dirty_bytes_found in
  let ((payload, ns, _) as collection) = Detector.collect_barrier d b in
  collected c d ~sync:Event.Barrier ~id:b.Sync.bid ~ranges:b.Sync.branges ~rebound:false ~t0
    ~pages0 ~dirty0 payload ns;
  Engine.charge c.proc ns;
  collection

(* The receiver is blocked, so its memory is quiescent. *)
let apply c d ~sync ~id ~ranges ~app ~deliver payload =
  let ns = Detector.apply d ~id ~ranges payload in
  c.counters.collect_time_ns <- c.counters.collect_time_ns + ns;
  c.counters.data_received_bytes <- c.counters.data_received_bytes + app;
  if armed c.machine then
    emit c.machine (Event.Apply { proc = c.cid; sync; id; t0 = deliver; ns; bytes = app });
  ns

let barrier_arrived c (b : Sync.barrier) ~payload_bytes =
  let messages = if c.cid <> b.Sync.manager then 1 else 0 in
  c.counters.messages <- c.counters.messages + messages;
  let t = now_ns c and barrier = b.Sync.bid and proc = c.cid in
  if armed c.machine then
    emit c.machine (Event.Barrier_arrived { t; barrier; proc; payload_bytes; messages })

(* Before the episode moves on; the manager sent [messages] releases. *)
let barrier_completed t (b : Sync.barrier) ~at ~messages =
  let manager = b.Sync.manager and barrier = b.Sync.bid and episode = b.Sync.episode in
  let m = t.ctxs.(manager).counters in
  m.messages <- m.messages + messages;
  if armed t then emit t (Event.Barrier_completed { t = at; barrier; episode; manager; messages })

let barrier_wait c (b : Sync.barrier) ~since =
  c.counters.barrier_crossings <- c.counters.barrier_crossings + 1;
  let proc = c.cid and barrier = b.Sync.bid and t1 = now_ns c in
  if armed c.machine then emit c.machine (Event.Barrier_wait { proc; barrier; t0 = since; t1 })

(* Route one protocol message; the time its payload lands at [dst].
   With faults and crashes off this is the bare fabric, the exact
   pre-fault path, so such runs stay bit-identical to the seed.  Armed,
   it goes through the reliable channel: the exchange's retransmissions,
   observed drops and backoff go to the sender's counters, the
   duplicates suppressed to the receiver's.  A send that ends in
   [Reliable.Suspected] or [Exhausted] records nothing. *)
let send t ~kind ~src ~dst ~payload_bytes ~overhead_bytes ~at =
  match t.reliable with
  | None -> Net.arrival t.net ~kind ~src ~dst ~payload_bytes ~overhead_bytes ~at
  | Some ch ->
      let d = Reliable.send ~overhead_bytes ch ~kind ~src ~dst ~payload_bytes ~at in
      let sc = t.ctxs.(src).counters and dc = t.ctxs.(dst).counters in
      sc.retransmits <- sc.retransmits + d.Reliable.retransmits;
      sc.drops_observed <- sc.drops_observed + d.Reliable.drops_seen;
      sc.backoff_time_ns <- sc.backoff_time_ns + d.Reliable.backoff_ns;
      dc.duplicates_suppressed <- dc.duplicates_suppressed + d.Reliable.dups_suppressed;
      if armed t && src <> dst then
        emit t
          (Event.Send_episode
             { src; dst; msg = Net.kind_name kind; seq = d.Reliable.seq;
               retransmits = d.Reliable.retransmits; bytes = payload_bytes; t0 = at;
               t1 = d.Reliable.acked_at });
      d.Reliable.delivered_at

(* [c] retransmitted for [ns] to a peer the channel then suspected; it
   waits for a failover it ran to complete [at]. *)
let suspicion c ns = Engine.charge c.proc ns

let failover_wait c ~at = if at > now_ns c then Engine.charge c.proc (at - now_ns c)

let replicated c (l : Sync.lock) ~backups ~bytes ~at =
  c.counters.messages <- c.counters.messages + backups;
  c.counters.replications <- c.counters.replications + backups;
  let lock = l.Sync.lid and proc = c.cid in
  if armed c.machine then emit c.machine (Event.Replicated { t = at; lock; proc; backups; bytes })

let no_quorum t (l : Sync.lock) ~proc ~suspect ~ballots ~votes ~at =
  let c = t.ctxs.(proc).counters and lock = l.Sync.lid in
  c.messages <- c.messages + ballots;
  if armed t then emit t (Event.No_quorum { t = at; lock; proc; suspect; votes; ballots })

(* The new owner sent [ballots] and installed [replica_bytes], which the
   backup [replica] shipped ([-1]: none did). *)
let failover t (l : Sync.lock) ~suspect ~ballots ~votes ~replica ~replica_bytes ~t0 ~at =
  let c = t.ctxs.(l.Sync.owner).counters in
  c.messages <- c.messages + ballots;
  c.data_received_bytes <- c.data_received_bytes + replica_bytes;
  c.failovers <- c.failovers + 1;
  if replica >= 0 then begin
    let h = t.ctxs.(replica).counters in
    h.messages <- h.messages + 1;
    h.data_sent_bytes <- h.data_sent_bytes + replica_bytes
  end;
  if armed t then
    let lock = l.Sync.lid and to_ = l.Sync.owner and epoch = Detector.incarnation t.detection l in
    emit t
      (Event.Lock_failover
         { t0; t = at; lock; from_ = suspect; to_; epoch; votes; ballots; replica; replica_bytes })

let crashed t ~proc ~at = if armed t then emit t (Event.Proc_crashed { t = at; proc })

(* A recovery rejoins the protocol silently (liveness is a pure function
   of the plan): those inside the run are reported once it is over. *)
let recoveries t =
  if armed t then
    let horizon = Engine.elapsed t.engine in
    List.iter
      (fun (e : Crash.event) ->
        if e.Crash.action = Crash.Recover && e.Crash.at_ns <= horizon then
          emit t (Event.Proc_recovered { t = e.Crash.at_ns; proc = e.Crash.proc }))
      (Crash.events t.recovery.plan)

let backend_switched t ~region ~from_ ~to_ ~at =
  t.switches <- t.switches + 1;
  if armed t then
    let from_ = Config.backend_name from_ and to_ = Config.backend_name to_ in
    emit t (Event.Backend_switched { t = at; region; from_; to_ })
