(* Integration tests of the entry-consistency protocol over the whole
   machine: locks, barriers, minimal-update transfer, rebinding, and a
   randomized coherence property checked against a sequential oracle for
   every backend and every RT trapping mode. *)

module R = Midway.Runtime
module Range = Midway.Range
module Config = Midway.Config
module Counters = Midway_stats.Counters

let qtest = QCheck_alcotest.to_alcotest

let read_direct machine ~proc addr =
  Midway_memory.Space.get_int (R.space machine) ~proc addr

(* --- basic mutual exclusion and data movement --------------------------- *)

let counter_test backend () =
  let nprocs = 4 in
  let machine = R.create (Config.make backend ~nprocs) in
  let counter = R.alloc machine ~line_size:8 8 in
  let lock = R.new_lock machine [ Range.v counter 8 ] in
  R.run machine (fun c ->
      for _ = 1 to 25 do
        R.acquire c lock;
        R.write_int c counter (R.read_int c counter + 1);
        R.release c lock;
        R.work_ns c (1_000 * (R.id c + 1))
      done);
  Alcotest.(check int) "all increments survive" 100
    (read_direct machine ~proc:lock.Midway.Sync.owner counter)

let barrier_exchange_test backend () =
  let nprocs = 8 in
  let machine = R.create (Config.make backend ~nprocs) in
  let arr = R.alloc machine ~line_size:8 (nprocs * 8) in
  let bar = R.new_barrier machine [ Range.v arr (nprocs * 8) ] in
  let ok = ref true in
  R.run machine (fun c ->
      let me = R.id c in
      R.write_int c (arr + (me * 8)) (100 + me);
      R.barrier c bar;
      for i = 0 to nprocs - 1 do
        if R.read_int c (arr + (i * 8)) <> 100 + i then ok := false
      done);
  Alcotest.(check bool) "everyone sees every slot" true !ok

let test_barrier_repeated_episodes () =
  let nprocs = 4 in
  let machine = R.create (Config.make Config.Rt ~nprocs) in
  let arr = R.alloc machine ~line_size:8 (nprocs * 8) in
  let bar = R.new_barrier machine [ Range.v arr (nprocs * 8) ] in
  let ok = ref true in
  R.run machine (fun c ->
      let me = R.id c in
      for round = 1 to 10 do
        R.write_int c (arr + (me * 8)) ((round * 1000) + me);
        R.barrier c bar;
        for i = 0 to nprocs - 1 do
          if R.read_int c (arr + (i * 8)) <> (round * 1000) + i then ok := false
        done
      done);
  Alcotest.(check bool) "rounds stay consistent" true !ok

(* --- minimal update transfer -------------------------------------------- *)

let test_rt_minimal_updates () =
  (* After p1 has fetched the data once, a re-acquire with no intervening
     writes must transfer zero bytes (the timestamp history at work). *)
  let machine = R.create (Config.make Config.Rt ~nprocs:2) in
  let data = R.alloc machine ~line_size:8 64 in
  let lock = R.new_lock machine [ Range.v data 64 ] in
  let received = Array.make 3 0 in
  R.run machine (fun c ->
      if R.id c = 0 then begin
        R.acquire c lock;
        for i = 0 to 7 do
          R.write_int c (data + (i * 8)) i
        done;
        R.release c lock
      end
      else begin
        R.work_ns c 1_000_000;
        R.acquire c lock;
        received.(0) <- (R.counters machine 1).Counters.data_received_bytes;
        R.release c lock;
        R.work_ns c 1_000_000;
        R.acquire c lock;
        received.(1) <- (R.counters machine 1).Counters.data_received_bytes;
        R.release c lock
      end);
  Alcotest.(check int) "first acquire fetches the data" 64 received.(0);
  Alcotest.(check int) "idle re-acquire fetches nothing" received.(0) received.(1)

let test_vm_incarnation_filter () =
  (* Same property under VM-DSM: the incarnation cursor suppresses
     redundant transfer. *)
  let machine = R.create (Config.make Config.Vm ~nprocs:2) in
  let data = R.alloc machine ~line_size:8 64 in
  let lock = R.new_lock machine [ Range.v data 64 ] in
  let received = Array.make 2 0 in
  R.run machine (fun c ->
      if R.id c = 0 then begin
        R.acquire c lock;
        R.write_int c data 7;
        R.release c lock
      end
      else begin
        R.work_ns c 1_000_000;
        R.acquire c lock;
        received.(0) <- (R.counters machine 1).Counters.data_received_bytes;
        R.release c lock;
        R.work_ns c 1_000_000;
        R.acquire c lock;
        received.(1) <- (R.counters machine 1).Counters.data_received_bytes;
        R.release c lock
      end);
  Alcotest.(check bool) "first acquire fetched something" true (received.(0) > 0);
  Alcotest.(check int) "idle re-acquire fetches nothing" received.(0) received.(1)

let test_local_acquire_free () =
  let machine = R.create (Config.make Config.Rt ~nprocs:2) in
  let data = R.alloc machine 8 in
  let lock = R.new_lock machine [ Range.v data 8 ] in
  R.run machine (fun c ->
      if R.id c = 0 then begin
        R.acquire c lock;
        R.release c lock;
        R.acquire c lock;
        R.release c lock
      end);
  let c0 = R.counters machine 0 in
  Alcotest.(check int) "both acquires local" 2 c0.Counters.lock_acquires_local;
  Alcotest.(check int) "no remote traffic" 0 c0.Counters.lock_acquires_remote;
  Alcotest.(check int) "no messages" 0 (Midway_simnet.Net.total_messages (R.net machine))

(* --- shared (read) mode --------------------------------------------------- *)

let test_read_lock_concurrent_readers () =
  (* A writer publishes, then all other processors read concurrently;
     readers overlap in time instead of serializing. *)
  let nprocs = 4 in
  let machine = R.create (Config.make Config.Rt ~nprocs) in
  let data = R.alloc machine ~line_size:8 8 in
  let lock = R.new_lock machine [ Range.v data 8 ] in
  let bar = R.new_barrier machine [] in
  let seen = Array.make nprocs 0 in
  let intervals = Array.make nprocs (0, 0) in
  R.run machine (fun c ->
      let me = R.id c in
      if me = 0 then begin
        R.acquire c lock;
        R.write_int c data 777;
        R.release c lock
      end;
      R.barrier c bar;
      if me > 0 then begin
        R.acquire_read c lock;
        let t0 = R.now_ns c in
        seen.(me) <- R.read_int c data;
        R.work_ns c 5_000_000;
        intervals.(me) <- (t0, R.now_ns c);
        R.release c lock
      end);
  for p = 1 to nprocs - 1 do
    Alcotest.(check int) "reader saw the write" 777 seen.(p)
  done;
  (* virtual-time critical sections of the readers must overlap *)
  let s1, e1 = intervals.(1) and s2, e2 = intervals.(2) in
  Alcotest.(check bool) "readers overlapped in virtual time" true (s1 < e2 && s2 < e1)

let test_read_lock_excludes_writer () =
  (* An exclusive request queued behind readers is granted only after the
     last reader releases, and its write is then visible to a later
     reader. *)
  let machine = R.create (Config.make Config.Vm ~nprocs:3) in
  let data = R.alloc machine ~line_size:8 8 in
  let lock = R.new_lock machine [ Range.v data 8 ] in
  let writer_entered = ref 0 in
  let reader_done_at = ref 0 in
  R.run machine (fun c ->
      match R.id c with
      | 0 ->
          R.acquire c lock;
          R.write_int c data 1;
          R.release c lock;
          (* wait, then write again while p1 holds a read lock *)
          R.work_ns c 2_000_000;
          R.acquire c lock;
          writer_entered := R.now_ns c;
          R.write_int c data 2;
          R.release c lock
      | 1 ->
          R.work_ns c 1_000_000;
          R.acquire_read c lock;
          R.work_ns c 10_000_000;
          reader_done_at := R.now_ns c;
          R.release c lock
      | _ ->
          (* a late reader sees the writer's second value *)
          R.work_ns c 30_000_000;
          R.acquire_read c lock;
          Alcotest.(check int) "late reader sees v2" 2 (R.read_int c data);
          R.release c lock);
  Alcotest.(check bool) "writer waited for the reader" true
    (!writer_entered >= !reader_done_at)

let test_read_lock_reacquire_rejected () =
  let machine = R.create (Config.make Config.Rt ~nprocs:1) in
  let a = R.alloc machine 8 in
  let lock = R.new_lock machine [ Range.v a 8 ] in
  let raised = ref false in
  R.run machine (fun c ->
      R.acquire_read c lock;
      (try R.acquire c lock with Failure _ -> raised := true);
      R.release c lock);
  Alcotest.(check bool) "exclusive over own read rejected" true !raised

(* --- rebinding ----------------------------------------------------------- *)

let rebind_test backend () =
  let machine = R.create (Config.make backend ~nprocs:2) in
  let a = R.alloc machine ~line_size:8 64 in
  let b = R.alloc machine ~line_size:8 64 in
  let lock = R.new_lock machine [ Range.v a 64 ] in
  let seen = ref (-1) in
  R.run machine (fun c ->
      if R.id c = 0 then begin
        R.acquire c lock;
        R.write_int c a 1;
        R.write_int c b 42;
        R.rebind c lock [ Range.v b 64 ];
        R.release c lock
      end
      else begin
        R.work_ns c 1_000_000;
        R.acquire c lock;
        seen := R.read_int c b;
        R.release c lock
      end);
  Alcotest.(check int) "rebound data transferred" 42 !seen

let test_vm_rebind_skips_diff () =
  (* After a rebinding the next transfer ships all bound data *without
     performing a diff* (paper, section 4): no diff, no reprotection, and
     the releaser's pages stay writable. *)
  let machine = R.create (Config.make Config.Vm ~nprocs:2) in
  let a = R.alloc machine ~line_size:8 256 in
  let lock = R.new_lock machine [ Range.v a 8 ] in
  let seen = ref (-1) in
  R.run machine (fun c ->
      if R.id c = 0 then begin
        R.acquire c lock;
        for i = 0 to 31 do
          R.write_int c (a + (i * 8)) (i * 3)
        done;
        R.rebind c lock [ Range.v a 256 ];
        R.release c lock
      end
      else begin
        R.work_ns c 1_000_000;
        R.acquire c lock;
        seen := R.read_int c (a + 248);
        R.release c lock
      end);
  Alcotest.(check int) "full data arrived" (31 * 3) !seen;
  let c0 = R.counters machine 0 in
  Alcotest.(check int) "no diff performed" 0 c0.Counters.pages_diffed;
  Alcotest.(check int) "no reprotection" 0 c0.Counters.pages_write_protected;
  Alcotest.(check bool) "one fault only (pages stay writable)" true
    (c0.Counters.write_faults <= 1)

let test_rebind_requires_holding () =
  let machine = R.create (Config.make Config.Rt ~nprocs:1) in
  let a = R.alloc machine 8 in
  let lock = R.new_lock machine [ Range.v a 8 ] in
  let raised = ref false in
  R.run machine (fun c ->
      try R.rebind c lock [ Range.v a 8 ] with Failure _ -> raised := true);
  Alcotest.(check bool) "rebind without holding rejected" true !raised

(* --- error handling -------------------------------------------------------- *)

let test_reacquire_rejected () =
  let machine = R.create (Config.make Config.Rt ~nprocs:1) in
  let a = R.alloc machine 8 in
  let lock = R.new_lock machine [ Range.v a 8 ] in
  let raised = ref false in
  R.run machine (fun c ->
      R.acquire c lock;
      (try R.acquire c lock with Failure _ -> raised := true);
      R.release c lock);
  Alcotest.(check bool) "non-reentrant" true !raised

let test_release_requires_holding () =
  let machine = R.create (Config.make Config.Rt ~nprocs:1) in
  let a = R.alloc machine 8 in
  let lock = R.new_lock machine [ Range.v a 8 ] in
  let raised = ref false in
  R.run machine (fun c -> try R.release c lock with Failure _ -> raised := true);
  Alcotest.(check bool) "release without holding rejected" true !raised

(* A release that fails records no release: the log (and ECSan, which
   reads the same events) never hears of a release that did not happen. *)
let test_failed_release_logs_nothing () =
  let cfg = { (Config.make Config.Rt ~nprocs:1) with Config.trace_capacity = 16 } in
  let machine = R.create cfg in
  let a = R.alloc machine 8 in
  let lock = R.new_lock machine [ Range.v a 8 ] in
  let raised = ref false in
  R.run machine (fun c -> try R.release c lock with Failure _ -> raised := true);
  Alcotest.(check bool) "release without holding rejected" true !raised;
  let events = Midway_obs.Obs.events (Option.get (R.log machine)) in
  Alcotest.(check bool) "no release recorded" false
    (List.exists (function Midway_obs.Event.Lock_released _ -> true | _ -> false) events)

let test_standalone_multiproc_rejected () =
  Alcotest.check_raises "standalone is uniprocessor"
    (Invalid_argument "Runtime.create: the standalone backend is uniprocessor only") (fun () ->
      ignore (R.create (Config.make Config.Standalone ~nprocs:2)))

let test_blast_barrier_data_rejected () =
  let machine = R.create (Config.make Config.Blast ~nprocs:2) in
  let a = R.alloc machine 8 in
  let bar = R.new_barrier machine [ Range.v a 8 ] in
  let raised = ref false in
  (try R.run machine (fun c -> R.barrier c bar) with Failure _ -> raised := true);
  Alcotest.(check bool) "blast barrier with bound data rejected" true !raised

let test_deadlock_detected () =
  let machine = R.create (Config.make Config.Rt ~nprocs:2) in
  let a = R.alloc machine 8 in
  let lock = R.new_lock machine [ Range.v a 8 ] in
  Alcotest.(check bool) "deadlock raises with lock diagnostics" true
    (try
       R.run machine (fun c ->
           if R.id c = 0 then begin
             R.acquire c lock (* never released: p1 wedges *)
           end
           else begin
             R.work_ns c 1_000;
             R.acquire c lock
           end);
       false
     with Midway_sched.Engine.Deadlock msg ->
       let has sub =
         let n = String.length sub and h = String.length msg in
         let rec go i = i + n <= h && (String.sub msg i n = sub || go (i + 1)) in
         go 0
       in
       has "held by p0" && has "waiting p1")

(* --- fault injection end to end ----------------------------------------- *)

let sum_counters machine f = Array.fold_left (fun acc c -> acc + f c) 0 (R.all_counters machine)

(* The protocol must survive a lossy fabric: mutual exclusion and data
   movement stay correct, only the timing degrades. *)
let faulty_counter_test backend () =
  let nprocs = 4 in
  let cfg =
    Config.with_faults ~duplicate:0.05 ~jitter_ns:10_000 ~seed:9 ~drop:0.1
      (Config.make backend ~nprocs)
  in
  let machine = R.create cfg in
  let counter = R.alloc machine ~line_size:8 8 in
  let lock = R.new_lock machine [ Range.v counter 8 ] in
  R.run machine (fun c ->
      for _ = 1 to 25 do
        R.acquire c lock;
        R.write_int c counter (R.read_int c counter + 1);
        R.release c lock;
        R.work_ns c (1_000 * (R.id c + 1))
      done);
  Alcotest.(check int) "all increments survive a 10% drop rate" 100
    (read_direct machine ~proc:lock.Midway.Sync.owner counter);
  Alcotest.(check (list string)) "invariants clean" [] (R.check_invariants machine);
  Alcotest.(check bool) "losses forced retransmissions" true
    (sum_counters machine (fun c -> c.Counters.retransmits) > 0);
  Alcotest.(check bool) "backoff time accumulated" true
    (sum_counters machine (fun c -> c.Counters.backoff_time_ns) > 0)

(* Same faulty configuration, same seed => bit-identical run. *)
let test_faulty_run_deterministic () =
  let run () =
    let cfg = Config.with_faults ~duplicate:0.1 ~seed:3 ~drop:0.15 (Config.make Config.Rt ~nprocs:4) in
    let machine = R.create cfg in
    let counter = R.alloc machine ~line_size:8 8 in
    let lock = R.new_lock machine [ Range.v counter 8 ] in
    R.run machine (fun c ->
        for _ = 1 to 10 do
          R.acquire c lock;
          R.write_int c counter (R.read_int c counter + 1);
          R.release c lock
        done);
    ( R.elapsed_ns machine,
      sum_counters machine (fun c -> c.Counters.retransmits),
      sum_counters machine (fun c -> c.Counters.duplicates_suppressed) )
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical elapsed and channel activity" true (a = b)

(* The acceptance benchmark: quicksort — rebinding, a contended task
   queue — sorts correctly under a 2% drop rate, leaves the protocol
   invariants clean, and visibly exercised the retransmission machinery. *)
let test_quicksort_under_drops () =
  let cfg = Config.with_faults ~seed:42 ~drop:0.02 (Config.make Config.Rt ~nprocs:4) in
  let o = Midway_apps.Quicksort.run cfg (Midway_apps.Quicksort.scaled 0.05) in
  Alcotest.(check bool) "sorted output verified" true o.Midway_apps.Outcome.ok;
  let machine = o.Midway_apps.Outcome.machine in
  Alcotest.(check (list string)) "invariants clean" [] (R.check_invariants machine);
  Alcotest.(check bool) "retransmissions happened" true
    (sum_counters machine (fun c -> c.Counters.retransmits) > 0)

(* --- uniprocessor semantics (paper section 4, Figure 2 discussion) -------- *)

let test_uniprocessor_vm_never_diffs () =
  let machine = R.create (Config.make Config.Vm ~nprocs:1) in
  let a = R.alloc machine 4096 in
  let lock = R.new_lock machine [ Range.v a 4096 ] in
  let bar = R.new_barrier machine [ Range.v a 4096 ] in
  R.run machine (fun c ->
      R.acquire c lock;
      for i = 0 to 511 do
        R.write_int c (a + (i * 8)) i
      done;
      R.release c lock;
      R.barrier c bar);
  let c0 = R.counters machine 0 in
  Alcotest.(check bool) "faults happen" true (c0.Counters.write_faults > 0);
  Alcotest.(check int) "no diffs" 0 c0.Counters.pages_diffed;
  Alcotest.(check int) "no reprotection" 0 c0.Counters.pages_write_protected;
  Alcotest.(check int) "no data moved" 0 c0.Counters.data_received_bytes

let test_uniprocessor_rt_still_traps () =
  let machine = R.create (Config.make Config.Rt ~nprocs:1) in
  let a = R.alloc machine 64 in
  let lock = R.new_lock machine [ Range.v a 64 ] in
  R.run machine (fun c ->
      R.acquire c lock;
      R.write_int c a 1;
      R.release c lock);
  Alcotest.(check int) "dirtybit set" 1 (R.counters machine 0).Counters.dirtybits_set

let test_misclassified_private_write () =
  let machine = R.create (Config.make Config.Rt ~nprocs:1) in
  let p = R.alloc machine ~private_:true 64 in
  let s = R.alloc machine 64 in
  ignore s;
  R.run machine (fun c ->
      R.write_int c p 5 (* instrumented store to private memory *);
      R.write_int_private c (p + 8) 6 (* correctly classified: free *));
  let c0 = R.counters machine 0 in
  Alcotest.(check int) "misclassified counted" 1 c0.Counters.dirtybits_misclassified;
  Alcotest.(check int) "not a shared set" 0 c0.Counters.dirtybits_set;
  Alcotest.(check int) "private value stored" 5 (read_direct machine ~proc:0 p);
  Alcotest.(check int) "unclassified store also lands" 6 (read_direct machine ~proc:0 (p + 8))

(* --- line-size tunability (the false-sharing story) ------------------------ *)

let test_line_granularity_false_sharing () =
  (* Two processors write adjacent words under separate locks.  With
     8-byte lines RT-DSM is coherent; this is the paper's argument that
     the unit of coherency must match the data. *)
  let machine = R.create (Config.make Config.Rt ~nprocs:2) in
  let a = R.alloc machine ~line_size:8 16 in
  let l0 = R.new_lock machine [ Range.v a 8 ] in
  let l1 = R.new_lock machine [ Range.v (a + 8) 8 ] in
  R.run machine (fun c ->
      let lock = if R.id c = 0 then l0 else l1 in
      let addr = a + (R.id c * 8) in
      for i = 1 to 20 do
        R.acquire c lock;
        R.write_int c addr i;
        R.release c lock;
        R.work_ns c 5_000
      done);
  Alcotest.(check int) "word 0 intact" 20 (read_direct machine ~proc:l0.Midway.Sync.owner a);
  Alcotest.(check int) "word 1 intact" 20 (read_direct machine ~proc:l1.Midway.Sync.owner (a + 8))

(* --- the section 3.4 rejected variant ----------------------------------------- *)

let test_vmfine_pays_both_costs () =
  (* "This scheme would incur at least the same data collection overhead
     as the RT-DSM (scan the incarnation numbers) and it would incur the
     additional overhead of trapping and detection for VM-DSM (write
     fault, twin, and diff)." *)
  let run backend =
    let machine = R.create (Config.make backend ~nprocs:2) in
    let data = R.alloc machine ~line_size:8 4096 in
    let lock = R.new_lock machine [ Range.v data 4096 ] in
    R.run machine (fun c ->
        if R.id c = 0 then begin
          R.acquire c lock;
          for i = 0 to 15 do
            R.write_int c (data + (i * 8)) i
          done;
          R.release c lock
        end
        else begin
          R.work_ns c 1_000_000;
          R.acquire c lock;
          R.release c lock;
          R.work_ns c 1_000_000;
          R.acquire c lock;
          R.release c lock
        end);
    Counters.total (R.all_counters machine)
  in
  let rt = run Config.Rt and vm = run Config.Vm and fine = run Config.Vm_fine in
  Alcotest.(check int) "vm-fine faults like vm" vm.Counters.write_faults
    fine.Counters.write_faults;
  Alcotest.(check int) "vm-fine diffs like vm" vm.Counters.pages_diffed
    fine.Counters.pages_diffed;
  Alcotest.(check bool)
    (Printf.sprintf "vm-fine scans like rt (%d vs %d)"
       (fine.Counters.clean_dirtybits_read + fine.Counters.dirty_dirtybits_read)
       (rt.Counters.clean_dirtybits_read + rt.Counters.dirty_dirtybits_read))
    true
    (fine.Counters.clean_dirtybits_read + fine.Counters.dirty_dirtybits_read
    >= rt.Counters.clean_dirtybits_read + rt.Counters.dirty_dirtybits_read)

(* --- untargetted consistency (section 3.5 "other memory models") ----------- *)

let untargetted_transfer_test rt_mode () =
  (* Under an untargetted model, ANY synchronization makes the whole
     shared space consistent: data never bound to the transferred lock
     still arrives. *)
  let cfg =
    { (Config.make Config.Rt ~nprocs:2) with Config.untargetted = true; rt_mode }
  in
  let machine = R.create cfg in
  let x = R.alloc machine ~line_size:8 8 in
  let y = R.alloc machine ~line_size:8 8 in
  let lock = R.new_lock machine [ Range.v y 8 ] in
  let seen = ref 0 in
  R.run machine (fun c ->
      if R.id c = 0 then begin
        R.write_int c x 4242 (* not bound to any lock *);
        R.acquire c lock;
        R.write_int c y 1;
        R.release c lock
      end
      else begin
        R.work_ns c 1_000_000;
        R.acquire c lock;
        seen := R.read_int c x;
        R.release c lock
      end);
  Alcotest.(check int) "unbound data still transfers" 4242 !seen

let test_untargetted_scans_everything () =
  (* Plain mode must read a dirtybit for every allocated shared line on
     each transfer; two-level mode skips clean groups. *)
  let run rt_mode =
    let cfg =
      { (Config.make Config.Rt ~nprocs:2) with Config.untargetted = true; rt_mode }
    in
    let machine = R.create cfg in
    let big = R.alloc machine ~line_size:8 (4096 * 8) (* 4096 lines, untouched *) in
    let y = R.alloc machine ~line_size:8 8 in
    ignore big;
    let lock = R.new_lock machine [ Range.v y 8 ] in
    R.run machine (fun c ->
        (* ping-pong so every acquisition is a remote transfer: three
           collections in total, each scanning the whole space *)
        if R.id c = 0 then begin
          R.acquire c lock;
          R.write_int c y 1;
          R.release c lock;
          R.work_ns c 4_000_000;
          R.acquire c lock;
          R.release c lock
        end
        else begin
          R.work_ns c 1_000_000;
          R.acquire c lock;
          R.release c lock;
          R.work_ns c 8_000_000;
          R.acquire c lock;
          R.release c lock
        end);
    let total = Counters.total (R.all_counters machine) in
    total.Counters.clean_dirtybits_read + total.Counters.dirty_dirtybits_read
  in
  let plain = run Config.Plain in
  let two_level = run Config.Two_level in
  Alcotest.(check bool)
    (Printf.sprintf "plain scans every line on each transfer (%d >= 12288)" plain)
    true (plain >= 3 * 4096);
  Alcotest.(check bool)
    (Printf.sprintf "two-level skips clean groups (%d < 3/4 of %d)" two_level plain)
    true (two_level < plain * 3 / 4)

let test_untargetted_validation () =
  Alcotest.check_raises "untargetted needs rt"
    (Invalid_argument "Runtime.create: the untargetted model is implemented for the RT backend only")
    (fun () ->
      ignore
        (R.create { (Config.make Config.Vm ~nprocs:2) with Config.untargetted = true }));
  let cfg = { (Config.make Config.Rt ~nprocs:2) with Config.untargetted = true } in
  let machine = R.create cfg in
  let a = R.alloc machine 8 in
  let bar = R.new_barrier machine [ Range.v a 8 ] in
  let raised = ref false in
  (try R.run machine (fun c -> R.barrier c bar) with Failure _ -> raised := true);
  Alcotest.(check bool) "untargetted barrier data rejected" true !raised

(* --- twin backend (section 3.5) --------------------------------------------- *)

let test_twin_compare_cost_proportional_to_bound () =
  (* The paper's argument against detection-free twinning: unmodified
     data is diffed anyway, so collection cost follows the bound size,
     not the dirty size. *)
  let machine = R.create (Config.make Config.Twin ~nprocs:2) in
  let data = R.alloc machine ~line_size:8 65536 in
  let lock = R.new_lock machine [ Range.v data 65536 ] in
  R.run machine (fun c ->
      if R.id c = 0 then begin
        R.acquire c lock;
        R.write_int c data 1 (* a single word dirty *);
        R.release c lock;
        (* reacquire after p1: a second remote transfer, hence a second
           full comparison at p1 *)
        R.work_ns c 10_000_000;
        R.acquire c lock;
        R.release c lock
      end
      else begin
        R.work_ns c 1_000_000;
        R.acquire c lock;
        R.release c lock
      end);
  let total = Counters.total (R.all_counters machine) in
  Alcotest.(check bool)
    (Printf.sprintf "whole binding compared every transfer (%d >= 2x bound)"
       total.Counters.twin_compare_bytes)
    true
    (total.Counters.twin_compare_bytes >= 2 * 65536);
  Alcotest.(check int) "no dirtybits involved" 0 total.Counters.dirtybits_set;
  Alcotest.(check int) "no faults involved" 0 total.Counters.write_faults

(* --- degenerate bindings and edge cases --------------------------------------- *)

let test_empty_binding_lock () =
  (* a lock with no bound data is pure mutual exclusion *)
  let machine = R.create (Config.make Config.Rt ~nprocs:4) in
  let lock = R.new_lock machine [] in
  let hits = ref 0 in
  R.run machine (fun c ->
      for _ = 1 to 5 do
        R.acquire c lock;
        incr hits;
        R.release c lock;
        R.work_ns c 10_000
      done);
  Alcotest.(check int) "all critical sections ran" 20 !hits;
  Alcotest.(check int) "no payload moved" 0
    (Counters.total (R.all_counters machine)).Counters.data_received_bytes

let test_overlapping_page_bindings_vm () =
  (* two locks whose data shares a VM page: the saved-diff machinery must
     keep them coherent *)
  let machine = R.create (Config.make Config.Vm ~nprocs:3) in
  let a = R.alloc machine ~line_size:8 8 in
  let b = R.alloc machine ~line_size:8 8 in
  let la = R.new_lock machine [ Range.v a 8 ] in
  let lb = R.new_lock machine [ Range.v b 8 ] in
  R.run machine (fun c ->
      for _ = 1 to 10 do
        R.acquire c la;
        R.write_int c a (R.read_int c a + 1);
        R.release c la;
        R.acquire c lb;
        R.write_int c b (R.read_int c b + 3);
        R.release c lb;
        R.work_ns c (7_000 * (R.id c + 1))
      done);
  Alcotest.(check int) "a" 30 (read_direct machine ~proc:la.Midway.Sync.owner a);
  Alcotest.(check int) "b" 90 (read_direct machine ~proc:lb.Midway.Sync.owner b)

let test_run_each_distinct_programs () =
  let machine = R.create (Config.make Config.Rt ~nprocs:2) in
  let a = R.alloc machine ~line_size:8 16 in
  let lock = R.new_lock machine [ Range.v a 16 ] in
  let producer c =
    R.acquire c lock;
    R.write_int c a 11;
    R.write_int c (a + 8) 22;
    R.release c lock
  in
  let consumer c =
    R.work_ns c 1_000_000;
    R.acquire c lock;
    Alcotest.(check int) "sees first" 11 (R.read_int c a);
    Alcotest.(check int) "sees second" 22 (R.read_int c (a + 8));
    R.release c lock
  in
  R.run_each machine [| producer; consumer |];
  Alcotest.(check (list string)) "clean" [] (R.check_invariants machine)

let test_write_bytes_area () =
  (* an area store traps once per line under RT *)
  let machine = R.create (Config.make Config.Rt ~nprocs:1) in
  let a = R.alloc machine ~line_size:8 64 in
  let lock = R.new_lock machine [ Range.v a 64 ] in
  R.run machine (fun c ->
      R.acquire c lock;
      R.write_bytes c a (Bytes.make 64 'z');
      R.release c lock);
  Alcotest.(check int) "eight lines dirtied" 8 (R.counters machine 0).Counters.dirtybits_set;
  Alcotest.(check bytes) "data landed" (Bytes.make 64 'z')
    (Midway_memory.Space.read_bytes (R.space machine) ~proc:0 a ~len:64)

let test_subset_barrier () =
  (* a two-party barrier among processors 2 and 3 of a 4-processor
     machine, with a non-default manager *)
  let machine = R.create (Config.make Config.Rt ~nprocs:4) in
  let a = R.alloc machine ~line_size:8 16 in
  let bar = R.new_barrier machine ~participants:2 ~manager:2 [ Range.v a 16 ] in
  let ok = ref true in
  R.run machine (fun c ->
      let me = R.id c in
      if me >= 2 then begin
        R.write_int c (a + ((me - 2) * 8)) (500 + me);
        R.barrier c bar;
        if R.read_int c a <> 502 || R.read_int c (a + 8) <> 503 then ok := false
      end);
  Alcotest.(check bool) "pair exchanged" true !ok

(* --- invariant checking ------------------------------------------------------- *)

let test_invariants_clean_run () =
  let machine = R.create (Config.make Config.Rt ~nprocs:4) in
  let a = R.alloc machine ~line_size:8 64 in
  let lock = R.new_lock machine [ Range.v a 64 ] in
  let bar = R.new_barrier machine [] in
  R.run machine (fun c ->
      R.acquire c lock;
      R.write_int c a (R.read_int c a + 1);
      R.release c lock;
      R.barrier c bar);
  Alcotest.(check (list string)) "no violations" [] (R.check_invariants machine)

let test_invariants_catch_leaked_lock () =
  let machine = R.create (Config.make Config.Rt ~nprocs:1) in
  let a = R.alloc machine 8 in
  let lock = R.new_lock machine [ Range.v a 8 ] in
  R.run machine (fun c -> R.acquire c lock (* never released *));
  Alcotest.(check bool) "leak reported" true (R.check_invariants machine <> [])

let test_invariants_catch_unlocked_write () =
  (* A processor that writes lock-bound data it does not own leaves a
     locally dirty line behind. *)
  let machine = R.create (Config.make Config.Rt ~nprocs:2) in
  let a = R.alloc machine ~line_size:8 8 in
  let lock = R.new_lock machine [ Range.v a 8 ] in
  ignore lock;
  R.run machine (fun c -> if R.id c = 1 then R.write_int c a 666 (* no acquire! *));
  Alcotest.(check bool) "rogue write reported" true
    (List.exists
       (fun s ->
         let has sub =
           let n = String.length sub and h = String.length s in
           let rec go i = i + n <= h && (String.sub s i n = sub || go (i + 1)) in
           go 0
         in
         has "without ownership")
       (R.check_invariants machine))

(* --- protocol tracing -------------------------------------------------------- *)

let test_runtime_tracing () =
  let cfg = { (Config.make Config.Rt ~nprocs:2) with Config.trace_capacity = 64 } in
  let machine = R.create cfg in
  let a = R.alloc machine ~line_size:8 8 in
  let lock = R.new_lock machine [ Range.v a 8 ] in
  let bar = R.new_barrier machine [] in
  R.run machine (fun c ->
      if R.id c = 0 then begin
        R.acquire c lock;
        R.write_int c a 1;
        R.release c lock
      end
      else begin
        R.work_ns c 1_000_000;
        R.acquire c lock;
        R.release c lock
      end;
      R.barrier c bar);
  let log = match R.log machine with Some l -> l | None -> Alcotest.fail "log not armed" in
  let events = Midway_obs.Obs.events log in
  Alcotest.(check bool) "events recorded" true (Midway_obs.Obs.total log > 0);
  (* protocol steps are recorded in virtual-time order (interval events
     are recorded when they end, so they are left out) *)
  let step : Midway_obs.Event.t -> bool = function
    | Lock_requested _ | Lock_granted _ | Lock_local _ | Lock_released _ | Lock_rebound _
    | Barrier_arrived _ | Barrier_completed _ ->
        true
    | _ -> false
  in
  let times = List.map Midway_obs.Event.time (List.filter step events) in
  let rec sorted = function
    | a :: b :: rest -> a <= b && sorted (b :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "virtual-time ordered" true (sorted times);
  Alcotest.(check bool) "contains a grant with the line payload" true
    (List.exists
       (function
         | Midway_obs.Event.Lock_granted { payload_bytes = 8; from_ = 0; to_ = 1; _ } -> true
         | _ -> false)
       events);
  Alcotest.(check bool) "contains the barrier completion" true
    (List.exists
       (function Midway_obs.Event.Barrier_completed _ -> true | _ -> false)
       events)

let test_tracing_disabled_by_default () =
  let machine = R.create (Config.make Config.Rt ~nprocs:1) in
  let a = R.alloc machine 8 in
  let lock = R.new_lock machine [ Range.v a 8 ] in
  R.run machine (fun c ->
      R.acquire c lock;
      R.release c lock);
  Alcotest.(check bool) "no log armed" true (R.log machine = None);
  Alcotest.(check bool) "no obs view" true (R.obs machine = None)

(* --- crash recovery ------------------------------------------------------------ *)

module Crash = Midway_simnet.Crash

let test_crash_plan_out_of_range () =
  let plan = Crash.scripted [ { Crash.at_ns = 1_000; proc = 7; action = Crash.Stop } ] in
  Alcotest.check_raises "p7 on a 4-processor machine"
    (Invalid_argument "Runtime.create: the crash plan names p7 but the machine has 4 processors")
    (fun () -> ignore (R.create (Config.with_crash plan (Config.make Config.Rt ~nprocs:4))))

(* A lock holder crash-stops: p0 holds L past its scheduled stop while
   p1's request waits in L's queue, and dies at its release.  Its
   fallout runs at that release's clock: p0's crash, L's failover to p1
   suspected at the same instant, then p1's grant. *)
let test_crash_lock_holder () =
  let module Event = Midway_obs.Event in
  let plan = Crash.scripted [ { Crash.at_ns = 1_000_000; proc = 0; action = Crash.Stop } ] in
  let cfg = Config.with_crash plan { (Config.make Config.Rt ~nprocs:3) with Config.obs = true } in
  let machine = R.create cfg in
  let x = R.alloc machine ~line_size:8 8 in
  let lock = R.new_lock machine ~owner:0 [ Range.v x 8 ] in
  let lid = lock.Midway.Sync.lid and release_at = ref (-1) in
  R.run_each machine
    [|
      (fun c ->
        R.acquire c lock;
        R.write_int c x 1;
        R.work_ns c 3_000_000;
        release_at := R.now_ns c;
        R.release c lock);
      (fun c ->
        R.work_ns c 100_000;
        R.acquire c lock;
        R.write_int c x 2;
        R.release c lock);
      (fun _ -> ());
    |];
  Alcotest.(check (list int)) "p0 crash-stopped" [ 0 ] (R.killed_procs machine);
  let events = Midway_obs.Obs.events (Option.get (R.log machine)) in
  let index what f =
    let rec go i = function
      | [] -> Alcotest.fail ("no " ^ what)
      | e :: rest -> ( match f e with Some v -> (i, v) | None -> go (i + 1) rest)
    in
    go 0 events
  in
  let requested, () =
    index "request by p1" (function
      | Event.Lock_requested { lock; proc = 1; _ } when lock = lid -> Some ()
      | _ -> None)
  in
  let crashed, crash_t =
    index "crash of p0" (function Event.Proc_crashed { proc = 0; t } -> Some t | _ -> None)
  in
  let failover, t0 =
    index "failover of L" (function
      | Event.Lock_failover { lock; from_ = 0; to_ = 1; t0; _ } when lock = lid -> Some t0
      | _ -> None)
  in
  let granted, () =
    index "grant of L to p1" (function
      | Event.Lock_granted { lock; to_ = 1; _ } when lock = lid -> Some ()
      | _ -> None)
  in
  Alcotest.(check bool) "p1's request queued before the crash" true (requested < crashed);
  Alcotest.(check int) "the crash carries the release's clock" !release_at crash_t;
  Alcotest.(check int) "the failover is suspected at that clock" !release_at t0;
  Alcotest.(check bool) "the grant to p1 comes after the failover" true (granted > failover)

(* --- a releaser blocked at a barrier --------------------------------------------- *)

(* A lock transfer reads the runs it ships out of the releaser's copy,
   which nothing touches between the collection and the apply.  A
   barrier arrival has no such guarantee: it waits in the manager's
   mailbox while its processor is blocked, and a blocked processor
   still serves requests for the locks it owns, each of which refills
   its run accumulator.  p0 writes X under L and Y, bound to B, and
   arrives at B still owning L; before the others arrive, p1 takes L,
   served from blocked p0's detector, and reads X; then B completes and
   every participant reads p0's Y. *)
let blocked_releaser_test backend rt_mode () =
  let machine = R.create { (Config.make backend ~nprocs:3) with Config.rt_mode } in
  let x = R.alloc machine ~line_size:8 8 in
  let y = R.alloc machine ~line_size:8 8 in
  let lock = R.new_lock machine ~owner:0 [ Range.v x 8 ] in
  let bar = R.new_barrier machine [ Range.v y 8 ] in
  let seen_x = ref (-1) and seen_y = Array.make 3 (-1) in
  R.run machine (fun c ->
      (match R.id c with
      | 0 ->
          R.acquire c lock;
          R.write_int c x 42;
          R.release c lock;
          R.write_int c y 7
      | 1 ->
          R.work_ns c 1_000_000;
          R.acquire c lock;
          seen_x := R.read_int c x;
          R.release c lock
      | _ -> R.work_ns c 5_000_000);
      R.barrier c bar;
      seen_y.(R.id c) <- R.read_int c y);
  Alcotest.(check int) "p1 reads X through L from blocked p0" 42 !seen_x;
  Alcotest.(check (array int)) "every participant reads p0's Y" [| 7; 7; 7 |] seen_y

(* --- the validator -------------------------------------------------------------- *)

(* Each of Runtime.validate's rules rejects one configuration with its
   message, and Runtime.create raises the same text; the default
   configuration of every backend passes. *)
let test_validate_table () =
  let make ?(nprocs = 2) b = Config.make b ~nprocs in
  let stop p = Crash.scripted [ { Crash.at_ns = 1_000; proc = p; action = Crash.Stop } ] in
  let rt = make Config.Rt in
  List.iter
    (fun (rule, cfg, msg) ->
      Alcotest.(check (result unit string)) rule (Error msg) (R.validate cfg);
      Alcotest.check_raises (rule ^ ": create") (Invalid_argument ("Runtime.create: " ^ msg))
        (fun () -> ignore (R.create cfg)))
    [
      ( "standalone is uniprocessor",
        make Config.Standalone,
        "the standalone backend is uniprocessor only" );
      ( "untargetted needs rt",
        { (make Config.Vm) with Config.untargetted = true },
        "the untargetted model is implemented for the RT backend only" );
      ( "adaptive needs targetted bindings",
        { rt with Config.adaptive = true; untargetted = true },
        "per-region backends need targetted bindings (untargetted consistency is machine-wide \
         by construction)" );
      ( "adaptive needs rt or vm",
        { (make Config.Twin) with Config.adaptive = true },
        "adaptive elects between rt and vm; start from one of them" );
      ( "ecsan needs targetted bindings",
        { rt with Config.ecsan = true; untargetted = true },
        "ecsan assumes targetted entry consistency (any lock transfer makes everything \
         consistent under the untargetted model, so binding checks do not apply)" );
      ("trace capacity", { rt with Config.trace_capacity = -1 }, "negative trace_capacity");
      ( "update log window",
        { (make Config.Vm) with Config.update_log_window = 0 },
        "update_log_window must be at least 1, got 0 (the VM incarnation log keeps that many \
         incarnations of updates per lock)" );
      ( "crash plan names the machine's processors",
        Config.with_crash (stop 7) (make ~nprocs:4 Config.Rt),
        "the crash plan names p7 but the machine has 4 processors" );
      ( "crash plan needs a distributed backend",
        Config.with_crash (stop 0) (make ~nprocs:1 Config.Standalone),
        "a crash plan needs a distributed backend (standalone has no peers to fail over to)" );
    ];
  List.iter
    (fun b ->
      let cfg = make ~nprocs:(if b = Config.Standalone then 1 else 4) b in
      Alcotest.(check (result unit string)) (Config.backend_name b) (Ok ()) (R.validate cfg);
      ignore (R.create cfg))
    [ Config.Rt; Config.Vm; Config.Blast; Config.Twin; Config.Vm_fine; Config.Standalone ]

(* Unarmed, the recovery state has no watchdog: a run that works past the
   armed watchdog's 300 s of virtual time still completes whole. *)
let test_unarmed_no_watchdog () =
  let machine = R.create (Config.make Config.Rt ~nprocs:2) in
  let a = R.alloc machine ~line_size:8 8 in
  let lock = R.new_lock machine [ Range.v a 8 ] in
  let seen = Array.make 2 (-1) in
  R.run machine (fun c ->
      R.work_ns c 400_000_000_000;
      R.acquire c lock;
      seen.(R.id c) <- R.read_int c a;
      R.write_int c a (seen.(R.id c) + 1);
      R.release c lock);
  Alcotest.(check (list int)) "nobody killed" [] (R.killed_procs machine);
  Alcotest.(check bool) "ran past 300 s" true (R.elapsed_ns machine > 300_000_000_000);
  Alcotest.(check (list int)) "both critical sections ran" [ 0; 1 ]
    (List.sort compare (Array.to_list seen))

(* --- barrier-phase random coherence ------------------------------------------ *)

let barrier_coherence_random backend =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "random barrier-phase programs are coherent (%s)"
         (Config.backend_name backend))
    ~count:25
    QCheck.(pair (int_range 2 4) (pair (int_range 1 5) (int_range 1 6)))
    (fun (nprocs, (rounds, slots_per_proc)) ->
      let cfg = Config.make backend ~nprocs in
      let machine = R.create cfg in
      let total = nprocs * slots_per_proc in
      let base = R.alloc machine ~line_size:8 (total * 8) in
      let bar = R.new_barrier machine [ Range.v base (total * 8) ] in
      let ok = ref true in
      R.run machine (fun c ->
          let me = R.id c in
          for round = 1 to rounds do
            for s = 0 to slots_per_proc - 1 do
              R.write_int c
                (base + (((me * slots_per_proc) + s) * 8))
                ((round * 10_000) + (me * 100) + s)
            done;
            R.barrier c bar;
            (* everyone checks everyone's slots for this round *)
            for p = 0 to nprocs - 1 do
              for s = 0 to slots_per_proc - 1 do
                let v = R.read_int c (base + (((p * slots_per_proc) + s) * 8)) in
                if v <> (round * 10_000) + (p * 100) + s then ok := false
              done
            done
          done);
      !ok)

(* --- phased rebinding coherence ----------------------------------------------- *)

(* The hardest protocol interaction: lock-to-data bindings change over
   time (quicksort's pattern).  The program proceeds in phases separated
   by (data-free) barriers; in phase p, lock l guards the slot group
   ((l + p) mod nlocks), and processor 0 performs the rebinding while
   holding each lock at the phase boundary.  Writes are recorded in
   execution order; the final value of every slot must match the last
   recorded write. *)
let rebinding_coherence_random backend =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "phased rebinding programs are coherent (%s)"
         (Config.backend_name backend))
    ~count:20
    QCheck.(pair (int_range 2 4) (pair (int_range 1 4) (list_of_size (Gen.int_range 1 30) (pair (int_bound 2) (int_bound 100)))))
    (fun (nprocs, (phases, writes)) ->
      let cfg = Config.make backend ~nprocs in
      let machine = R.create cfg in
      let nlocks = 3 and slots_per_group = 2 in
      let nslots = nlocks * slots_per_group in
      let base = R.alloc machine ~line_size:8 (nslots * 8) in
      let slot_addr s = base + (s * 8) in
      let group_ranges g =
        [ Range.v (slot_addr (g * slots_per_group)) (slots_per_group * 8) ]
      in
      let locks = Array.init nlocks (fun l -> R.new_lock machine (group_ranges l)) in
      let phase_bar = R.new_barrier machine [] in
      let commits = Array.make nslots (-1) in
      R.run machine (fun c ->
          let me = R.id c in
          for phase = 0 to phases - 1 do
            (* processor 0 rotates the bindings while holding each lock *)
            if me = 0 && phase > 0 then
              Array.iteri
                (fun l lock ->
                  R.acquire c lock;
                  R.rebind c lock (group_ranges ((l + phase) mod nlocks));
                  R.release c lock)
                locks;
            R.barrier c phase_bar;
            List.iteri
              (fun i (l, v) ->
                if i mod nprocs = me then begin
                  let lock = locks.(l) in
                  let group = (l + phase) mod nlocks in
                  let s = (group * slots_per_group) + (v mod slots_per_group) in
                  R.acquire c lock;
                  R.write_int c (slot_addr s) ((phase * 10_000) + v);
                  commits.(s) <- (phase * 10_000) + v;
                  R.release c lock;
                  R.work_ns c ((me * 333) + 900)
                end)
              writes;
            R.barrier c phase_bar
          done);
      (* final value per slot at the owner of the lock currently guarding
         it *)
      List.for_all
        (fun s ->
          commits.(s) = -1
          ||
          let group = s / slots_per_group in
          (* which lock guards this group in the last phase? lock l maps
             to group (l + phases-1) mod nlocks *)
          let l = ((group - (phases - 1)) mod nlocks + nlocks) mod nlocks in
          read_direct machine ~proc:locks.(l).Midway.Sync.owner (slot_addr s) = commits.(s))
        (List.init nslots (fun s -> s)))

(* --- randomized coherence property across all configurations --------------- *)

(* A random program: a sequence of (processor, lock, slot, value) writes.
   Each lock guards a disjoint group of slots; processors apply their
   writes in program order under the proper lock.  The final DSM state
   must equal a sequential oracle that applies the same writes in
   virtual-time commit order.  Because each slot is written under one
   lock, commit order per slot is the lock's grant order, which the
   deterministic engine fixes; we recover it by logging commits. *)
let coherence_random backend rt_mode =
  let name =
    Printf.sprintf "random programs are coherent (%s%s)" (Config.backend_name backend)
      (match backend with Config.Rt -> "/" ^ Config.rt_mode_name rt_mode | _ -> "")
  in
  QCheck.Test.make ~name ~count:30
    QCheck.(
      pair (int_range 2 4)
        (list_of_size (Gen.int_range 1 60)
           (quad (int_bound 3) (int_bound 3) (int_bound 3) (int_bound 1000))))
    (fun (nprocs, ops) ->
      let cfg = { (Config.make backend ~nprocs) with Config.rt_mode } in
      let machine = R.create cfg in
      let nlocks = 4 and slots_per = 4 in
      let base = R.alloc machine ~line_size:8 (nlocks * slots_per * 8) in
      let slot_addr l s = base + (((l * slots_per) + s) * 8) in
      let locks =
        Array.init nlocks (fun l ->
            R.new_lock machine [ Range.v (slot_addr l 0) (slots_per * 8) ])
      in
      let commits = Array.make_matrix nlocks slots_per (-1) in
      R.run machine (fun c ->
          let me = R.id c in
          List.iteri
            (fun i (p, l, s, v) ->
              if p mod nprocs = me then begin
                R.acquire c locks.(l);
                R.write_int c (slot_addr l s) v;
                commits.(l).(s) <- v;
                ignore i;
                R.release c locks.(l);
                R.work_ns c ((me * 777) + 1_000)
              end)
            ops);
      (* verify: each slot's final value at the lock owner's copy equals
         the last committed value (commit order = execution order, which
         the deterministic engine serialized via the lock). *)
      List.for_all
        (fun l ->
          List.for_all
            (fun s ->
              let expected = commits.(l).(s) in
              let got =
                read_direct machine ~proc:locks.(l).Midway.Sync.owner (slot_addr l s)
              in
              expected = -1 || got = expected)
            [ 0; 1; 2; 3 ])
        [ 0; 1; 2; 3 ])

let () =
  Alcotest.run "runtime"
    [
      ( "locks",
        [
          Alcotest.test_case "counter under rt" `Quick (counter_test Config.Rt);
          Alcotest.test_case "counter under vm" `Quick (counter_test Config.Vm);
          Alcotest.test_case "counter under blast" `Quick (counter_test Config.Blast);
          Alcotest.test_case "rt minimal updates" `Quick test_rt_minimal_updates;
          Alcotest.test_case "vm incarnation filter" `Quick test_vm_incarnation_filter;
          Alcotest.test_case "local acquire free" `Quick test_local_acquire_free;
          Alcotest.test_case "reacquire rejected" `Quick test_reacquire_rejected;
          Alcotest.test_case "release requires holding" `Quick test_release_requires_holding;
          Alcotest.test_case "failed release logs nothing" `Quick
            test_failed_release_logs_nothing;
        ] );
      ( "barriers",
        [
          Alcotest.test_case "exchange under rt" `Quick (barrier_exchange_test Config.Rt);
          Alcotest.test_case "exchange under vm" `Quick (barrier_exchange_test Config.Vm);
          Alcotest.test_case "repeated episodes" `Quick test_barrier_repeated_episodes;
          Alcotest.test_case "blast barrier data rejected" `Quick test_blast_barrier_data_rejected;
        ] );
      ( "read-mode",
        [
          Alcotest.test_case "concurrent readers" `Quick test_read_lock_concurrent_readers;
          Alcotest.test_case "writer excluded by readers" `Quick test_read_lock_excludes_writer;
          Alcotest.test_case "reacquire over read rejected" `Quick
            test_read_lock_reacquire_rejected;
        ] );
      ( "rebinding",
        [
          Alcotest.test_case "rebind under rt" `Quick (rebind_test Config.Rt);
          Alcotest.test_case "rebind under vm" `Quick (rebind_test Config.Vm);
          Alcotest.test_case "rebind requires holding" `Quick test_rebind_requires_holding;
          Alcotest.test_case "vm rebind skips diff" `Quick test_vm_rebind_skips_diff;
        ] );
      ( "edges",
        [
          Alcotest.test_case "empty binding" `Quick test_empty_binding_lock;
          Alcotest.test_case "overlapping page bindings (vm)" `Quick
            test_overlapping_page_bindings_vm;
          Alcotest.test_case "run_each" `Quick test_run_each_distinct_programs;
          Alcotest.test_case "area store" `Quick test_write_bytes_area;
          Alcotest.test_case "subset barrier" `Quick test_subset_barrier;
        ] );
      ( "machine",
        [
          Alcotest.test_case "standalone multiproc rejected" `Quick
            test_standalone_multiproc_rejected;
          Alcotest.test_case "deadlock detected" `Quick test_deadlock_detected;
          Alcotest.test_case "uniprocessor vm never diffs" `Quick
            test_uniprocessor_vm_never_diffs;
          Alcotest.test_case "uniprocessor rt still traps" `Quick
            test_uniprocessor_rt_still_traps;
          Alcotest.test_case "misclassified private write" `Quick
            test_misclassified_private_write;
          Alcotest.test_case "line-size false sharing" `Quick
            test_line_granularity_false_sharing;
        ] );
      ( "untargetted",
        [
          Alcotest.test_case "unbound data transfers (plain)" `Quick
            (untargetted_transfer_test Config.Plain);
          Alcotest.test_case "unbound data transfers (two-level)" `Quick
            (untargetted_transfer_test Config.Two_level);
          Alcotest.test_case "unbound data transfers (update-queue)" `Quick
            (untargetted_transfer_test Config.Update_queue);
          Alcotest.test_case "scan cost and two-level skipping" `Quick
            test_untargetted_scans_everything;
          Alcotest.test_case "validation" `Quick test_untargetted_validation;
        ] );
      ( "twin",
        [
          Alcotest.test_case "counter under twin" `Quick (counter_test Config.Twin);
          Alcotest.test_case "barrier exchange under twin" `Quick
            (barrier_exchange_test Config.Twin);
          Alcotest.test_case "rebind under twin" `Quick (rebind_test Config.Twin);
          Alcotest.test_case "compare cost proportional to bound data" `Quick
            test_twin_compare_cost_proportional_to_bound;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "clean run" `Quick test_invariants_clean_run;
          Alcotest.test_case "leaked lock" `Quick test_invariants_catch_leaked_lock;
          Alcotest.test_case "write without ownership" `Quick
            test_invariants_catch_unlocked_write;
        ] );
      ( "faults",
        [
          Alcotest.test_case "counter under faults (rt)" `Quick (faulty_counter_test Config.Rt);
          Alcotest.test_case "counter under faults (vm)" `Quick (faulty_counter_test Config.Vm);
          Alcotest.test_case "faulty run deterministic" `Quick test_faulty_run_deterministic;
          Alcotest.test_case "quicksort under 2% drop" `Slow test_quicksort_under_drops;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "records protocol events" `Quick test_runtime_tracing;
          Alcotest.test_case "disabled by default" `Quick test_tracing_disabled_by_default;
        ] );
      ( "crash",
        [
          Alcotest.test_case "out-of-range plan rejected" `Quick test_crash_plan_out_of_range;
          Alcotest.test_case "unarmed: no watchdog" `Quick test_unarmed_no_watchdog;
          Alcotest.test_case "lock holder dies at its release" `Quick test_crash_lock_holder;
        ] );
      ("validate", [ Alcotest.test_case "one rule, one message" `Quick test_validate_table ]);
      ( "blocked releaser",
        [
          Alcotest.test_case "served at a barrier (rt plain)" `Quick
            (blocked_releaser_test Config.Rt Config.Plain);
          Alcotest.test_case "served at a barrier (rt two-level)" `Quick
            (blocked_releaser_test Config.Rt Config.Two_level);
          Alcotest.test_case "served at a barrier (rt update-queue)" `Quick
            (blocked_releaser_test Config.Rt Config.Update_queue);
          Alcotest.test_case "served at a barrier (vm)" `Quick
            (blocked_releaser_test Config.Vm Config.Plain);
        ] );
      ( "vm-fine",
        [
          Alcotest.test_case "counter under vm-fine" `Quick (counter_test Config.Vm_fine);
          Alcotest.test_case "barrier exchange under vm-fine" `Quick
            (barrier_exchange_test Config.Vm_fine);
          Alcotest.test_case "rebind under vm-fine" `Quick (rebind_test Config.Vm_fine);
          Alcotest.test_case "pays both costs (section 3.4)" `Quick
            test_vmfine_pays_both_costs;
        ] );
      ( "coherence",
        [
          qtest (barrier_coherence_random Config.Rt);
          qtest (barrier_coherence_random Config.Vm_fine);
          qtest (barrier_coherence_random Config.Vm);
          qtest (barrier_coherence_random Config.Twin);
          qtest (coherence_random Config.Rt Config.Plain);
          qtest (coherence_random Config.Rt Config.Two_level);
          qtest (coherence_random Config.Rt Config.Update_queue);
          qtest (coherence_random Config.Vm Config.Plain);
          qtest (coherence_random Config.Twin Config.Plain);
          qtest (coherence_random Config.Blast Config.Plain);
          qtest (rebinding_coherence_random Config.Rt);
          qtest (rebinding_coherence_random Config.Vm);
          qtest (rebinding_coherence_random Config.Vm_fine);
          qtest (rebinding_coherence_random Config.Twin);
          qtest (rebinding_coherence_random Config.Blast);
        ] );
    ]
