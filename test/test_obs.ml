(* The observability layer: spans computed from the event log, metrics
   registry arithmetic, Chrome-trace export shape, and — on a whole
   machine — the two contracts that make it trustworthy: the metrics
   reconcile with the simulator's own counters, and arming it never
   perturbs a run (same elapsed time, same counters, bit for bit). *)

module Obs = Midway_obs.Obs
module Event = Midway_obs.Event
module Metrics = Midway_obs.Metrics
module Trace_export = Midway_obs.Trace_export
module Json = Midway_util.Json
module R = Midway.Runtime
module Config = Midway.Config
module Range = Midway.Range
module Counters = Midway_stats.Counters

(* --- spans from the event log --------------------------------------- *)

let test_span_log_order () =
  let o = Obs.create () in
  Obs.record o
    (Event.Collect
       {
         proc = 0;
         sync = Event.Lock;
         id = 3;
         t0 = 100;
         ns = 150;
         bytes = 128;
         scan = "page diff";
         pages = 2;
         dirty_bytes = 96;
       });
  Obs.record o (Event.Lock_released { t = 260; lock = 3; proc = 0 });
  Obs.record o (Event.Acquire_wait { proc = 1; lock = 3; t0 = 50; t1 = 400 });
  Alcotest.(check int) "three events" 3 (Obs.total o);
  Alcotest.(check int) "a step yields no span" 3 (Obs.span_count o);
  let kinds = List.map (fun (s : Obs.span) -> Obs.kind_name s.Obs.kind) (Obs.spans o) in
  Alcotest.(check (list string)) "recording order" [ "collect"; "diff"; "lock_wait" ] kinds;
  match Obs.spans o with
  | collect :: diff :: _ ->
      Alcotest.(check int) "sync carried" 3 collect.Obs.sync;
      Alcotest.(check int) "bytes carried" 128 collect.Obs.bytes;
      Alcotest.(check int) "duration" 250 collect.Obs.t1;
      Alcotest.(check string) "scan label on the diff" "page diff" diff.Obs.note
  | _ -> Alcotest.fail "no spans"

(* --- metrics: buckets --------------------------------------------------- *)

let test_bucket_boundaries () =
  let m = Metrics.create () in
  let buckets = [| 10; 100; 1_000 |] in
  (* one observation per interesting position: below, exactly on each
     bound, one past a bound, and past the last bound (overflow) *)
  List.iter
    (fun v -> Metrics.observe m ~name:"h" ~buckets v)
    [ 0; 10; 11; 100; 101; 1_000; 1_001 ];
  let s = Metrics.snapshot m in
  match Metrics.find_hist s ~name:"h" ~label:"" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
      (* v <= bound lands in the first such bucket: 0,10 | 11,100 | 101,1000 | 1001 *)
      Alcotest.(check (array int)) "le-semantics per bucket" [| 2; 2; 2; 1 |] h.Metrics.h_counts;
      Alcotest.(check int) "count" 7 h.Metrics.h_count;
      Alcotest.(check int) "sum" 2_223 h.Metrics.h_sum;
      Alcotest.(check int) "min" 0 h.Metrics.h_min;
      Alcotest.(check int) "max" 1_001 h.Metrics.h_max

let test_bucket_layout_shared_and_validated () =
  let m = Metrics.create () in
  Metrics.observe m ~name:"lat" ~label:"a" ~buckets:[| 5; 50 |] 3;
  (* a second label of the same metric reuses the first layout, even if
     it asks for another one *)
  Metrics.observe m ~name:"lat" ~label:"b" ~buckets:[| 1; 2; 3 |] 60;
  let s = Metrics.snapshot m in
  (match Metrics.find_hist s ~name:"lat" ~label:"b" with
  | Some h -> Alcotest.(check (array int)) "layout fixed by first observe" [| 5; 50 |] h.Metrics.h_buckets
  | None -> Alcotest.fail "label b missing");
  Alcotest.(check (list string)) "labels sorted" [ "a"; "b" ] (Metrics.labels_of s ~name:"lat");
  Alcotest.check_raises "non-increasing layout rejected"
    (Invalid_argument "Metrics.observe: bucket bounds must be strictly increasing") (fun () ->
      Metrics.observe m ~name:"bad" ~buckets:[| 5; 5 |] 1)

(* --- metrics: export ------------------------------------------------- *)

let test_metrics_json_roundtrip () =
  let m = Metrics.create () in
  Metrics.incr m ~name:"sends" 4;
  Metrics.observe m ~name:"lat" ~buckets:[| 10 |] 3;
  Metrics.observe m ~name:"lat" 99;
  let json = Metrics.to_json (Metrics.snapshot m) in
  let back = Json.of_string (Json.to_string json) in
  let hists = Option.get (Option.bind (Json.member "histograms" back) Json.to_list) in
  Alcotest.(check int) "one histogram" 1 (List.length hists);
  let h = List.hd hists in
  Alcotest.(check (option int)) "sum survives the round trip" (Some 102)
    (Option.bind (Json.member "sum" h) Json.to_int);
  let buckets = Option.get (Option.bind (Json.member "buckets" h) Json.to_list) in
  Alcotest.(check (option string)) "overflow bucket tagged inf" (Some "inf")
    (Option.bind (Json.member "le" (List.nth buckets 1)) Json.to_str)

(* --- Chrome trace export ------------------------------------------------ *)

let test_trace_export_parses_back () =
  let span kind ~proc ?(bytes = 0) t0 t1 = { Obs.kind; proc; sync = 1; bytes; t0; t1; note = "" } in
  (* deliberately out of order, with a tie in start time on proc 0
     where the longer (enclosing) span must come first *)
  let spans =
    [
      span Obs.Diff ~proc:0 200 350;
      span Obs.Collect ~proc:0 ~bytes:96 200 400;
      span Obs.Acquire_wait ~proc:1 100 500;
      span Obs.Apply ~proc:0 50 80;
    ]
  in
  let back = Json.of_string (Json.to_string (Trace_export.to_json ~name:"unit" spans)) in
  let events = Option.get (Option.bind (Json.member "traceEvents" back) Json.to_list) in
  let xs =
    List.filter
      (fun ev -> Option.bind (Json.member "ph" ev) Json.to_str = Some "X")
      events
  in
  Alcotest.(check int) "every span exported" 4 (List.length xs);
  let track tid =
    List.filter (fun ev -> Option.bind (Json.member "tid" ev) Json.to_int = Some tid) xs
  in
  let ts ev = Option.get (Option.bind (Json.member "ts" ev) Json.to_float) in
  let cat ev = Option.get (Option.bind (Json.member "cat" ev) Json.to_str) in
  (* proc 0: sorted by start, collect before the equally-started diff *)
  Alcotest.(check (list string)) "tie broken longest-first (nesting)"
    [ "apply"; "collect"; "diff" ]
    (List.map cat (track 0));
  List.iter
    (fun tid ->
      let times = List.map ts (track tid) in
      Alcotest.(check bool) (Printf.sprintf "ts monotone on track %d" tid) true
        (List.sort compare times = times))
    [ 0; 1 ];
  (* ns -> us conversion on the simulated timeline *)
  Alcotest.(check (float 1e-9)) "ts in microseconds" 0.05 (ts (List.hd (track 0)));
  (* metadata names the process and both thread tracks *)
  let metas =
    List.filter_map
      (fun ev ->
        if Option.bind (Json.member "ph" ev) Json.to_str = Some "M" then
          Option.bind (Json.member "args" ev) (Json.member "name")
        else None)
      events
  in
  Alcotest.(check bool) "process named" true (List.mem (Json.Str "unit") metas);
  Alcotest.(check bool) "tracks named" true (List.mem (Json.Str "proc 1") metas)

(* --- on a whole machine ------------------------------------------------- *)

(* a small lock+barrier workload exercising every span kind the runtime
   emits (except retransmit, which needs an armed fault plan); [setup]
   sees the machine and the counter's address before the run *)
let run_workload ?(setup = fun _ _ -> ()) cfg =
  let machine = R.create cfg in
  let counter = R.alloc machine ~line_size:8 8 in
  let arr = R.alloc machine ~line_size:8 (cfg.Config.nprocs * 8) in
  let lock = R.new_lock machine [ Range.v counter 8 ] in
  let bar = R.new_barrier machine [ Range.v arr (cfg.Config.nprocs * 8) ] in
  setup machine counter;
  R.run machine (fun c ->
      let me = R.id c in
      for round = 1 to 3 do
        R.acquire c lock;
        R.write_int c counter (R.read_int c counter + 1);
        R.release c lock;
        R.write_int c (arr + (me * 8)) ((round * 100) + me);
        R.barrier c bar;
        R.work_ns c (1_000 * (me + 1))
      done);
  machine

(* Each counter a protocol event accounts for, folded per processor out
   of the event log. *)
let fold_events nprocs events =
  let cs = Array.init nprocs (fun _ -> Counters.create ()) in
  let msgs p n = cs.(p).Counters.messages <- cs.(p).Counters.messages + n in
  let sent p n = cs.(p).Counters.data_sent_bytes <- cs.(p).Counters.data_sent_bytes + n in
  let received p n =
    cs.(p).Counters.data_received_bytes <- cs.(p).Counters.data_received_bytes + n
  in
  let collect_ns p n = cs.(p).Counters.collect_time_ns <- cs.(p).Counters.collect_time_ns + n in
  List.iter
    (fun (e : Event.t) ->
      match e with
      | Lock_local { proc; _ } ->
          cs.(proc).lock_acquires_local <- cs.(proc).lock_acquires_local + 1
      | Lock_requested { proc; _ } ->
          cs.(proc).lock_acquires_remote <- cs.(proc).lock_acquires_remote + 1;
          msgs proc 1
      | Lock_granted { from_; _ } -> msgs from_ 1
      | Barrier_arrived { proc; messages; _ } -> msgs proc messages
      | Barrier_completed { manager; messages; _ } -> msgs manager messages
      | Barrier_wait { proc; _ } ->
          cs.(proc).barrier_crossings <- cs.(proc).barrier_crossings + 1
      | Collect { proc; ns; bytes; _ } -> collect_ns proc ns; sent proc bytes
      | Apply { proc; ns; bytes; _ } -> collect_ns proc ns; received proc bytes
      | Replicated { proc; backups; _ } ->
          msgs proc backups;
          cs.(proc).replications <- cs.(proc).replications + backups
      | No_quorum { proc; ballots; _ } -> msgs proc ballots
      | Lock_failover { to_; ballots; replica; replica_bytes; _ } ->
          msgs to_ ballots;
          received to_ replica_bytes;
          cs.(to_).failovers <- cs.(to_).failovers + 1;
          if replica >= 0 then begin
            msgs replica 1;
            sent replica replica_bytes
          end
      | Send_episode { src; retransmits; _ } ->
          cs.(src).retransmits <- cs.(src).retransmits + retransmits
      | _ -> ())
    events;
  cs

let folded_fields =
  Counters.
    [
      ("lock_acquires_local", fun c -> c.lock_acquires_local);
      ("lock_acquires_remote", fun c -> c.lock_acquires_remote);
      ("barrier_crossings", fun c -> c.barrier_crossings);
      ("messages", fun c -> c.messages);
      ("data_sent_bytes", fun c -> c.data_sent_bytes);
      ("data_received_bytes", fun c -> c.data_received_bytes);
      ("collect_time_ns", fun c -> c.collect_time_ns);
      ("failovers", fun c -> c.failovers);
      ("replications", fun c -> c.replications);
      ("retransmits", fun c -> c.retransmits);
    ]

(* Scheduler blocks and waits come in adjacent pairs: each Sched_block
   is immediately followed by its processor's acquire or barrier wait,
   ending at the same time, and each wait immediately follows its block;
   only a one-participant barrier's wait, which never blocks, follows
   the barrier's completion instead. *)
let check_blocks name events =
  let pairs prev e =
    match (prev, e) with
    | Event.Sched_block { proc; t1; _ }, Event.Acquire_wait w -> w.proc = proc && w.t1 = t1
    | Event.Sched_block { proc; t1; _ }, Event.Barrier_wait w -> w.proc = proc && w.t1 = t1
    | Event.Barrier_completed { barrier; messages = 0; _ }, Event.Barrier_wait w ->
        w.barrier = barrier
    | _ -> false
  in
  let rec go prev = function
    | e :: rest ->
        let paired = match prev with Some p -> pairs p e | None -> false in
        (match (prev, e) with
        | Some (Event.Sched_block _ as b), _ when not paired ->
            Alcotest.failf "%s: [%s] is followed by [%s], not by its wait" name
              (Event.to_string b) (Event.to_string e)
        | _, (Event.Acquire_wait _ | Event.Barrier_wait _) when not paired ->
            Alcotest.failf "%s: [%s] follows no block" name (Event.to_string e)
        | _ -> ());
        go (Some e) rest
    | [] -> (
        match prev with
        | Some (Event.Sched_block _ as b) ->
            Alcotest.failf "%s: [%s] ends the log" name (Event.to_string b)
        | _ -> ())
  in
  go None events

(* Every counter above equals its fold over the complete event log, on
   every processor of the run [name]; so do the blocks, as above. *)
let check_fold name machine =
  let o = match R.obs machine with Some o -> o | None -> Alcotest.fail "obs not armed" in
  let counters = R.all_counters machine in
  let events = Obs.events o in
  check_blocks name events;
  let folded = fold_events (Array.length counters) events in
  Array.iteri
    (fun p c ->
      List.iter
        (fun (field, get) ->
          Alcotest.(check int) (Printf.sprintf "%s p%d %s" name p field) (get c) (get folded.(p)))
        folded_fields)
    counters

(* The fingerprint's configurations (every app under every scheme at
   scale 0.05 on 4 processors) and the two app crash runs @obssmoke
   exports, each with the log armed. *)
let fold_runs () =
  let module Suite = Midway_report.Suite in
  let nprocs = 4 and scale = 0.05 in
  let schemes =
    List.map
      (fun mode ->
        let cfg = { (Config.make Config.Rt ~nprocs) with Config.rt_mode = mode } in
        ("rt-" ^ Config.rt_mode_name mode, cfg))
      [ Config.Plain; Config.Two_level; Config.Update_queue ]
    @ List.map
        (fun b -> (Config.backend_name b, Config.make b ~nprocs))
        [ Config.Vm; Config.Twin; Config.Vm_fine ]
    @ [
        ("standalone", Config.make Config.Standalone ~nprocs:1);
        ("rt-plain+faults", Config.with_faults ~drop:0.02 ~seed:42 (Config.make Config.Rt ~nprocs));
        ("vm+faults", Config.with_faults ~drop:0.02 ~seed:42 (Config.make Config.Vm ~nprocs));
      ]
  in
  let crash spec cfg =
    match Midway_simnet.Crash.parse_spec ~nprocs spec with
    | Ok plan -> Config.with_crash plan cfg
    | Error msg -> Alcotest.fail msg
  in
  List.concat_map
    (fun app -> List.map (fun (name, cfg) -> (app, name, cfg)) schemes)
    Suite.apps
  @ [
      (Suite.Quicksort, "blast", Config.make Config.Blast ~nprocs);
      (Suite.Sor, "rt stop@1ms:p0,recover@3ms:p0",
       crash "stop@1ms:p0,recover@3ms:p0" (Config.make Config.Rt ~nprocs));
      (Suite.Water, "vm stop@3ms:p0", crash "stop@3ms:p0" (Config.make Config.Vm ~nprocs));
    ]
  |> List.map (fun (app, name, cfg) ->
         let o = Suite.run_app app { cfg with Config.obs = true } ~scale in
         (Printf.sprintf "%s/%s" (Suite.app_name app) name, o.Midway_apps.Outcome.machine))

let test_machine_reconciliation () =
  List.iter (fun (name, machine) -> check_fold name machine) (fold_runs ());
  let nprocs = 4 in
  let cfg = { (Config.make Config.Rt ~nprocs) with Config.obs = true } in
  let machine = run_workload cfg in
  check_fold "lock+barrier workload" machine;
  let o = match R.obs machine with Some o -> o | None -> Alcotest.fail "obs not armed" in
  Alcotest.(check bool) "the workload blocks" true
    (List.exists (function Event.Sched_block _ -> true | _ -> false) (Obs.events o));
  let spans = Obs.spans o in
  (* every processor shows up, and the protocol phases are all covered *)
  List.iter
    (fun kind ->
      List.iteri
        (fun p () ->
          Alcotest.(check bool)
            (Printf.sprintf "%s span on p%d" (Obs.kind_name kind) p)
            true
            (List.exists (fun (s : Obs.span) -> s.Obs.kind = kind && s.Obs.proc = p) spans))
        (List.init nprocs (fun _ -> ())))
    [ Obs.Acquire_wait; Obs.Barrier_wait; Obs.Collect; Obs.Diff ];
  List.iter
    (fun (s : Obs.span) ->
      Alcotest.(check bool) "span interval well-formed" true (s.Obs.t0 <= s.Obs.t1);
      Alcotest.(check bool) "span inside the run" true
        (0 <= s.Obs.t0 && s.Obs.t1 <= R.elapsed_ns machine))
    spans;
  (* the metrics must agree with the simulator's own counters *)
  let s = Metrics.snapshot (Obs.metrics o) in
  let sum_counters f =
    List.fold_left (fun acc p -> acc + f (R.counters machine p)) 0 (List.init nprocs Fun.id)
  in
  let sent = sum_counters (fun (c : Counters.t) -> c.Counters.data_sent_bytes) in
  Alcotest.(check int) "transfer_bytes reconciles with data_sent_bytes" sent
    (fst (Metrics.hist_totals s ~name:"transfer_bytes"));
  let collect_total = sum_counters (fun (c : Counters.t) -> c.Counters.collect_time_ns) in
  Alcotest.(check int) "collect_ns + apply_ns reconcile with collect_time_ns" collect_total
    (fst (Metrics.hist_totals s ~name:"collect_ns")
    + fst (Metrics.hist_totals s ~name:"apply_ns"))

let test_obs_never_perturbs () =
  let nprocs = 4 in
  let run (obs, trace_capacity) =
    let machine =
      run_workload { (Config.make Config.Vm ~nprocs) with Config.obs; trace_capacity }
    in
    ( R.elapsed_ns machine,
      List.map
        (fun p ->
          let c = R.counters machine p in
          ( c.Counters.messages,
            c.Counters.data_sent_bytes,
            c.Counters.collect_time_ns,
            c.Counters.lock_acquires_remote,
            c.Counters.barrier_crossings ))
        (List.init nprocs Fun.id) )
  in
  let off = run (false, 0) in
  Alcotest.(check bool) "armed observability changes nothing" true (off = run (true, 0));
  Alcotest.(check bool) "a bounded log changes nothing" true (off = run (false, 16))

(* The two events no smoke run reaches: a reliable-channel exchange that
   retransmitted (message faults armed) and a manual backend switch.
   Each must yield its span and its metric series. *)
let test_episode_and_switch_events () =
  let cfg =
    Config.with_faults ~drop:0.2 ~seed:7
      { (Config.make Config.Rt ~nprocs:4) with Config.obs = true }
  in
  let region = ref (-1) in
  let machine =
    run_workload cfg ~setup:(fun m addr ->
        region := addr / cfg.Config.region_size;
        R.set_region_backend m ~addr Config.Vm)
  in
  let o = match R.obs machine with Some o -> o | None -> Alcotest.fail "obs not armed" in
  let events = Obs.events o in
  let episodes =
    List.filter_map (function Event.Send_episode e -> Some e.retransmits | _ -> None) events
  in
  let retransmitted = List.filter (fun r -> r > 0) episodes in
  Alcotest.(check bool) "some exchange retransmitted" true (retransmitted <> []);
  Alcotest.(check int) "one retransmit span per retransmitting exchange"
    (List.length retransmitted)
    (List.length (List.filter (fun (s : Obs.span) -> s.Obs.kind = Obs.Retransmit) (Obs.spans o)));
  let s = Metrics.snapshot (Obs.metrics o) in
  Alcotest.(check (pair int int)) "retransmits_per_send covers every exchange"
    (List.fold_left ( + ) 0 episodes, List.length episodes)
    (Metrics.hist_totals s ~name:"retransmits_per_send");
  Alcotest.(check int) "reliable_sends counts every exchange" (List.length episodes)
    (List.fold_left
       (fun acc ((name, _), v) -> if name = "reliable_sends" then acc + v else acc)
       0 s.Metrics.s_counters);
  let switches =
    List.filter_map
      (function Event.Backend_switched _ as e -> Some (Event.to_string e) | _ -> None)
      events
  in
  Alcotest.(check (list string)) "one switch, rendered"
    [ Printf.sprintf "0 ns         region %d: backend rt -> vm" !region ]
    switches;
  Alcotest.(check int) "backend_switches series" 1
    (Metrics.counter_value s ~name:"backend_switches" ~label:(Printf.sprintf "region%d" !region))

let () =
  Alcotest.run "obs"
    [
      ( "spans",
        [
          Alcotest.test_case "recording order" `Quick test_span_log_order;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "bucket boundaries" `Quick test_bucket_boundaries;
          Alcotest.test_case "layout shared and validated" `Quick
            test_bucket_layout_shared_and_validated;
          Alcotest.test_case "json round trip" `Quick test_metrics_json_roundtrip;
        ] );
      ( "export",
        [ Alcotest.test_case "chrome trace parses back" `Quick test_trace_export_parses_back ] );
      ( "machine",
        [
          Alcotest.test_case "metrics reconcile with counters" `Quick
            test_machine_reconciliation;
          Alcotest.test_case "arming obs never perturbs a run" `Quick test_obs_never_perturbs;
          Alcotest.test_case "retransmit and backend-switch events" `Quick
            test_episode_and_switch_events;
        ] );
    ]
