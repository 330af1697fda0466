(* Tests for the schedule explorer: the qcheck convergence property over
   random EC programs x random schedules x backends, record/replay
   reproducibility, counterexample shrinking and the counterexample file
   round trip. *)

module Config = Midway.Config
module Engine = Midway_sched.Engine
module Explore = Midway_explore.Explore
module Workload = Midway_explore.Workload
module Ecgen = Midway_explore.Ecgen
module R = Midway.Runtime
module Obs = Midway_obs.Obs
module Event = Midway_obs.Event

let qtest = QCheck_alcotest.to_alcotest

let seeded_config ?(nprocs = 3) ?(ecsan = true) backend sseed =
  let cfg = Config.make backend ~nprocs in
  { cfg with Config.ecsan; sched_policy = Engine.Seeded sseed }

(* The headline property: a random lock/barrier-guarded EC program
   converges to its sequential oracle on every backend under (at least)
   20 random schedules, judged by the oracle, the protocol invariants
   and ECSan all at once; and for each (workload seed, schedule seed)
   the RT and VM machines end with identical shared memory. *)
let random_programs_converge =
  QCheck.Test.make ~name:"random EC programs converge under 20 schedules on every backend"
    ~count:4
    QCheck.(int_bound 100_000)
    (fun wseed ->
      let w = Ecgen.workload ~seed:wseed () in
      List.for_all
        (fun i ->
          let sseed = (wseed * 31) + i in
          let digest_of backend =
            let j = Explore.execute w (seeded_config backend sseed) in
            if j.Explore.j_failed then
              QCheck.Test.fail_reportf "wseed=%d sseed=%d backend=%s:\n%s" wseed sseed
                (Config.backend_name backend)
                j.Explore.j_reason;
            j.Explore.j_digest
          in
          let rt = digest_of Config.Rt in
          let vm = digest_of Config.Vm in
          ignore (digest_of Config.Twin);
          ignore (digest_of Config.Blast);
          if rt <> vm then
            QCheck.Test.fail_reportf "wseed=%d sseed=%d: rt memory %S <> vm memory %S" wseed
              sseed rt vm;
          true)
        (List.init 20 (fun i -> i + 1)))

(* Replay determinism: re-running a seeded schedule from its recorded
   choice list reproduces the same final memory, and the replay
   re-records exactly the choices it applied. *)
let test_replay_reproduces_clean_run () =
  let w = Workload.counter ~iters:5 in
  let j1 = Explore.execute w (seeded_config Config.Rt 9) in
  Alcotest.(check bool) "seeded run is clean" false j1.Explore.j_failed;
  let choices = Option.get j1.Explore.j_choices in
  Alcotest.(check bool) "ties were recorded" true (choices <> []);
  let cfg = Config.make Config.Rt ~nprocs:3 in
  let cfg = { cfg with Config.ecsan = true; sched_policy = Engine.Replay choices } in
  let j2 = Explore.execute w cfg in
  Alcotest.(check bool) "replay is clean" false j2.Explore.j_failed;
  Alcotest.(check string) "replay ends with identical memory" j1.Explore.j_digest
    j2.Explore.j_digest;
  Alcotest.(check (list int)) "replay re-records its schedule" choices
    (Option.get j2.Explore.j_choices)

(* The first schedule seed that breaks the order-sensitive workload
   under [config], and its judgement. *)
let hunt_order_bug config =
  let rec hunt s =
    if s > 40 then Alcotest.fail "no schedule broke order-sensitive in 40 seeds"
    else
      let j = Explore.execute Workload.order_sensitive (config s) in
      if j.Explore.j_failed then (s, j) else hunt (s + 1)
  in
  hunt 1

let test_replay_reproduces_failure () =
  (* find a schedule that breaks the order-sensitive workload, then
     replay its recording and demand the same wrong memory *)
  let w = Workload.order_sensitive in
  let _, j1 = hunt_order_bug (seeded_config ~nprocs:4 Config.Rt) in
  let choices = Option.get j1.Explore.j_choices in
  let cfg = Config.make Config.Rt ~nprocs:4 in
  let cfg = { cfg with Config.ecsan = true; sched_policy = Engine.Replay choices } in
  let j2 = Explore.execute w cfg in
  Alcotest.(check bool) "failure reproduced" true j2.Explore.j_failed;
  Alcotest.(check string) "same wrong memory" j1.Explore.j_digest j2.Explore.j_digest;
  Alcotest.(check string) "same diagnosis" j1.Explore.j_reason j2.Explore.j_reason

(* Only a failed run renders its trace tail: the last 12 events of its
   machine's log.  A clean run under the same log carries none. *)
let test_trace_tail_only_on_failure () =
  let config s = { (seeded_config ~nprocs:4 Config.Rt s) with Config.trace_capacity = 64 } in
  let s, j = hunt_order_bug config in
  (* the failed machine again: the same schedule replays the same log *)
  let o = Workload.order_sensitive.Workload.run (config s) in
  let log = Option.get (R.log (Option.get o.Workload.machine)) in
  Alcotest.(check bool) "the log holds more than the tail" true (Obs.length log > 12);
  Alcotest.(check (list string))
    "the failure carries its machine's last 12 events"
    (List.map Event.to_string (Obs.tail log 12))
    j.Explore.j_trace;
  let clean = Explore.execute (Workload.counter ~iters:5) (config 9) in
  Alcotest.(check bool) "counter is clean" false clean.Explore.j_failed;
  Alcotest.(check (list string)) "a clean run carries no tail" [] clean.Explore.j_trace

(* The shrinker, against pure predicates. *)
let test_shrink_prefix_and_zeroing () =
  (* failure depends only on the first choice being 1 *)
  let fails = function x :: _ -> x = 1 | [] -> false in
  let shrunk, runs = Explore.shrink ~budget:50 ~fails [ 1; 4; 7; 2 ] in
  Alcotest.(check (option (list int))) "minimal prefix" (Some [ 1 ]) shrunk;
  Alcotest.(check bool) "spent a reasonable budget" true (runs <= 10)

let test_shrink_everywhere_failure_to_empty () =
  let shrunk, _ = Explore.shrink ~budget:50 ~fails:(fun _ -> true) [ 3; 1; 2 ] in
  Alcotest.(check (option (list int))) "fails-everywhere shrinks to []" (Some []) shrunk

let test_shrink_unreproducible_is_none () =
  let shrunk, runs = Explore.shrink ~budget:50 ~fails:(fun _ -> false) [ 1; 2 ] in
  Alcotest.(check (option (list int))) "no reproduction -> None" None shrunk;
  Alcotest.(check int) "only the confirmation run" 1 runs

let test_shrink_zeroes_survivors () =
  (* fails iff the list sums to >= 5: zeroing drops the prefix's noise *)
  let fails l = List.fold_left ( + ) 0 l >= 5 in
  let shrunk, _ = Explore.shrink ~budget:100 ~fails [ 2; 0; 3; 9 ] in
  match shrunk with
  | None -> Alcotest.fail "must reproduce"
  | Some l ->
      Alcotest.(check bool) "still failing" true (fails l);
      Alcotest.(check bool) "no longer than the original" true (List.length l <= 4)

(* End to end: the fuzzer grid finds the seeded bugs and shrinks them. *)
let test_fuzzer_finds_and_shrinks_order_bug () =
  let spec =
    {
      Explore.default_spec with
      Explore.workloads = [ Workload.order_sensitive ];
      backends = [ Config.Rt ];
      schedules = 20;
    }
  in
  let report = Explore.run_spec spec in
  match report.Explore.failures with
  | [ c ] -> (
      Alcotest.(check string) "right workload" "order-sensitive" c.Explore.c_workload;
      match Explore.shrunk c with
      | None -> Alcotest.fail "failure must shrink"
      | Some l -> (
          (* the bug needs exactly one tie to go the other way *)
          Alcotest.(check bool) "shrunk to very few choices" true (List.length l <= 2);
          match Explore.replay ("order-sensitive", c.Explore.c_config) with
          | Ok j -> Alcotest.(check bool) "shrunk counterexample reproduces" true j.Explore.j_failed
          | Error e -> Alcotest.fail e))
  | l -> Alcotest.fail (Printf.sprintf "expected exactly one failure, got %d" (List.length l))

let test_fuzzer_shrinks_racy_to_empty () =
  let spec =
    {
      Explore.default_spec with
      Explore.workloads = [ Workload.racy ];
      backends = [ Config.Vm ];
      schedules = 4;
    }
  in
  let report = Explore.run_spec spec in
  match report.Explore.failures with
  | [ c ] ->
      Alcotest.(check (option (list int))) "fails everywhere -> empty counterexample"
        (Some []) (Explore.shrunk c);
      Alcotest.(check bool) "ECSan contributed to the diagnosis" true
        (let s = c.Explore.c_reason in
         let n = String.length s in
         let rec go i = i + 6 <= n && (String.sub s i 6 = "ecsan:" || go (i + 1)) in
         go 0)
  | l -> Alcotest.fail (Printf.sprintf "expected exactly one failure, got %d" (List.length l))

(* Satellite: the determinism contract over the full fault space — a
   (workload seed, schedule seed, fault seed, crash schedule) tuple
   yields a bit-identical run digest across two executions.  The crashy
   digest folds in the killed set and the failover count, so the
   recovery protocol itself is under the identity check. *)
let runs_are_deterministic_under_crash_faults =
  QCheck.Test.make
    ~name:"(workload, schedule, fault, crash) tuples replay bit-identically" ~count:6
    QCheck.(pair (int_bound 1000) (int_bound 1000))
    (fun (sseed, cseed) ->
      let plan =
        Midway_simnet.Crash.seeded ~seed:cseed ~nprocs:4 ~events:2 ~horizon_ns:600_000
      in
      let w = Workload.crashy ~iters:4 in
      let run () =
        let cfg = Config.make Config.Rt ~nprocs:4 in
        let cfg = { cfg with Config.ecsan = true; sched_policy = Engine.Seeded sseed } in
        let cfg = Config.with_faults ~drop:0.01 ~seed:(sseed lxor 0x5A5A) cfg in
        let cfg = Config.with_crash plan cfg in
        Explore.execute w cfg
      in
      let a = run () and b = run () in
      if a.Explore.j_digest = "" then
        QCheck.Test.fail_reportf "sseed=%d cseed=%d: no digest (%s)" sseed cseed
          a.Explore.j_reason;
      if a.Explore.j_digest <> b.Explore.j_digest || a.Explore.j_reason <> b.Explore.j_reason
      then
        QCheck.Test.fail_reportf "sseed=%d cseed=%d: %S / %S vs %S / %S" sseed cseed
          a.Explore.j_digest a.Explore.j_reason b.Explore.j_digest b.Explore.j_reason;
      true)

(* The crash-event shrinker, against a pure predicate. *)
let test_shrink_crash_deletes_to_minimum () =
  let module Crash = Midway_simnet.Crash in
  let ev at_ns proc action = { Crash.at_ns; proc; action } in
  let plan =
    Crash.scripted
      [ ev 10 0 Crash.Stop; ev 20 0 Crash.Recover; ev 30 1 Crash.Stop ]
  in
  (* the failure only needs p1's stop; p0's stop/recover pair is noise.
     Deleting p0's Stop alone is illegal (dangling Recover), so the
     fixpoint pass must remove the Recover first, then the Stop. *)
  let fails p =
    List.exists (fun e -> e.Crash.proc = 1 && e.Crash.action = Crash.Stop) (Crash.events p)
  in
  let shrunk, runs = Explore.shrink_crash ~budget:30 ~fails plan in
  (match Crash.events shrunk with
  | [ e ] ->
      Alcotest.(check int) "the culprit survives" 1 e.Crash.proc;
      Alcotest.(check bool) "and is a stop" true (e.Crash.action = Crash.Stop)
  | l -> Alcotest.fail (Printf.sprintf "expected 1 event, got %d" (List.length l)));
  Alcotest.(check bool) "bounded budget" true (runs <= 30)

(* End to end over the crash dimension: the fuzzer composes crash
   schedules with thread schedules, catches the broken-failover prey,
   shrinks the crash-event list, and the dumped counterexample replays
   through the file format. *)
let test_fuzzer_finds_broken_failover () =
  let spec =
    {
      Explore.default_spec with
      Explore.workloads = [ Workload.crashy_broken ~iters:6 ];
      backends = [ Config.Rt; Config.Vm ];
      schedules = 12;
      crash_events = 2;
      crash_horizon_ns = 800_000;
    }
  in
  let report = Explore.run_spec spec in
  match report.Explore.failures with
  | [] -> Alcotest.fail "the broken failover escaped the grid"
  | c :: _ -> (
      Alcotest.(check string) "right workload" "crashy-broken" c.Explore.c_workload;
      let plan_of (cfg : Config.t) =
        Option.map (fun cr -> Midway_simnet.Crash.render cr.Config.plan) cfg.Config.crash
      in
      (match plan_of c.Explore.c_config with
      | None -> Alcotest.fail "counterexample must carry its crash plan"
      | Some s ->
          Alcotest.(check bool) "the plan shrank to stops only" true
            (String.length s > 0 && not (String.contains s ' ')));
      match Explore.parse_counterexample (Explore.render_counterexample c) with
      | Error e -> Alcotest.fail e
      | Ok (name, cfg) -> (
          Alcotest.(check (option string)) "crash plan survives the file round trip"
            (plan_of c.Explore.c_config) (plan_of cfg);
          match Explore.replay (name, cfg) with
          | Error e -> Alcotest.fail e
          | Ok j ->
              Alcotest.(check bool) "the shrunk crash counterexample reproduces" true
                j.Explore.j_failed))

(* The clean crash workload must survive the same grid: failover under
   seeded crash schedules is not allowed to corrupt the bound data. *)
let test_fuzzer_crash_clean_sweep () =
  let spec =
    {
      Explore.default_spec with
      Explore.workloads = [ Workload.crashy ~iters:6 ];
      backends = [ Config.Rt; Config.Vm; Config.Twin ];
      schedules = 8;
      crash_events = 2;
      crash_horizon_ns = 800_000;
    }
  in
  let report = Explore.run_spec spec in
  (match report.Explore.failures with
  | [] -> ()
  | c :: _ ->
      Alcotest.fail
        (Printf.sprintf "quorum failover corrupted a clean run: %s" c.Explore.c_reason));
  Alcotest.(check int) "three grid points swept" 3 report.Explore.grid_points

(* Crashes are armed only where the oracle judges crash runs: a sweep
   or a replay naming any other workload is refused before it runs. *)
let test_crash_needs_a_judging_oracle () =
  let judges name =
    match Explore.workload_of_name name with
    | Ok w -> w.Workload.judges_crashes
    | Error e -> Alcotest.fail e
  in
  List.iter
    (fun name -> Alcotest.(check bool) (name ^ " judges crash runs") true (judges name))
    [ "crashy"; "crashy-broken"; "kv"; "kv-migrate"; "kv-broken-migration"; "kv-crashy"; "kv:3" ];
  List.iter
    (fun name -> Alcotest.(check bool) (name ^ " does not") false (judges name))
    [
      "counter"; "readers-writer"; "mix"; "order-sensitive"; "racy"; "deadlocky"; "ecgen:1"; "sor";
    ];
  let refusal =
    "workload mix cannot run with crashes: its oracle counts a dead processor's missing work as \
     a wrong answer (crashes need crashy, crashy-broken or a kv workload)"
  in
  let spec =
    { Explore.default_spec with Explore.workloads = Explore.crash_workloads (); crash_events = 1 }
  in
  Alcotest.(check (result unit string)) "the crash workloads" (Ok ()) (Explore.validate spec);
  let with_mix =
    { spec with Explore.workloads = spec.Explore.workloads @ [ Workload.mix ~groups:3 ~iters:6 ] }
  in
  Alcotest.(check (result unit string)) "mix refused" (Error refusal) (Explore.validate with_mix);
  Alcotest.check_raises "the sweep refuses" (Invalid_argument refusal) (fun () ->
      ignore (Explore.run_spec with_mix));
  Alcotest.(check (result unit string)) "an explicit plan arms crashes too" (Error refusal)
    (Explore.validate
       {
         with_mix with
         Explore.crash_events = 0;
         crash_plan = Some (Midway_simnet.Crash.scripted []);
       });
  Alcotest.(check (result unit string)) "mix without crashes" (Ok ())
    (Explore.validate { with_mix with Explore.crash_events = 0 });
  match
    Result.bind
      (Explore.parse_counterexample "workload=mix\ncrash=stop@1000:p1\nschedule-seed=1")
      Explore.replay
  with
  | Error e -> Alcotest.(check string) "the replay refuses" refusal e
  | Ok _ -> Alcotest.fail "a crash-armed mix counterexample must not replay"

(* Counterexample file round trip. *)
let test_counterexample_roundtrip () =
  let module Crash = Midway_simnet.Crash in
  let plan =
    Crash.scripted
      [ { Crash.at_ns = 2000; proc = 1; action = Crash.Stop };
        { Crash.at_ns = 8000; proc = 1; action = Crash.Recover } ]
  in
  let cfg =
    { (Config.make Config.Vm ~nprocs:5) with Config.ecsan = false; adaptive = true }
    |> Config.with_faults ~drop:0.02 ~seed:1234
    |> Config.with_crash plan |> Config.with_replay [ 2 ]
  in
  let c =
    {
      Explore.c_workload = "mix";
      c_config = cfg;
      c_schedule_seed = 17;
      c_choices = Some [ 0; 2; 1 ];
      c_reason = "oracle: something\nbroke";
      c_shrink_runs = 5;
      c_trace = [ "lock 0: local acquire by p1" ];
    }
  in
  (match Explore.parse_counterexample (Explore.render_counterexample c) with
  | Error e -> Alcotest.fail e
  | Ok (name, p) ->
      Alcotest.(check string) "workload" "mix" name;
      Alcotest.(check string) "backend" "vm" (Config.backend_name p.Config.backend);
      Alcotest.(check int) "nprocs" 5 p.Config.nprocs;
      Alcotest.(check bool) "ecsan" false p.Config.ecsan;
      Alcotest.(check bool) "the adaptive flag travels" true p.Config.adaptive;
      Alcotest.(check bool) "the shrunk choices travel" true
        (p.Config.sched_policy = Engine.Replay [ 2 ]);
      Alcotest.(check (option int)) "fault seed" (Some 1234)
        (Option.map (fun f -> f.Midway_simnet.Net.fault_seed) p.Config.faults);
      Alcotest.(check (option string)) "the crash plan travels"
        (Some "stop@2000:p1,recover@8000:p1")
        (Option.map (fun cr -> Crash.render cr.Config.plan) p.Config.crash));
  (* without choices the schedule seed re-runs *)
  match Explore.parse_counterexample "workload=counter\nschedule-seed=9\n" with
  | Ok (_, p) ->
      Alcotest.(check bool) "seeded schedule" true (p.Config.sched_policy = Engine.Seeded 9)
  | Error e -> Alcotest.fail e

(* Render, parse and render again gives the same text: the Config a
   counterexample carries is all its file says about the run.  The
   counterexamples span every backend, with and without faults, crash
   plans (the empty one included), adaptive detection, recorded and
   shrunk choices. *)
let counterexample_text_roundtrips =
  let module Crash = Midway_simnet.Crash in
  let gen =
    let open QCheck.Gen in
    let* backend =
      oneofl [ Config.Rt; Config.Vm; Config.Blast; Config.Twin; Config.Vm_fine; Config.Standalone ]
    in
    let* nprocs = if backend = Config.Standalone then return 1 else int_range 1 8 in
    let* ecsan = bool in
    let* adaptive = if backend = Config.Rt || backend = Config.Vm then bool else return false in
    let* faults = opt (pair (float_bound_inclusive 1.0) (int_bound 100_000)) in
    let* crash =
      if backend = Config.Standalone then return None
      else
        opt
          (oneof
             [
               return (Crash.scripted []);
               map
                 (fun seed -> Crash.seeded ~seed ~nprocs ~events:2 ~horizon_ns:2_000_000)
                 (int_bound 10_000);
             ])
    in
    let* sseed = int_bound 1000 in
    let choices = list_size (int_bound 6) (int_bound 4) in
    let* recorded = opt choices in
    let* shrunk = opt choices in
    let word = string_size ~gen:(char_range 'a' 'z') (int_range 1 8) in
    let* workload = oneofl [ "mix"; "counter"; "kv:7"; "ecgen-buggy:3"; "sor" ] in
    let* reason = list_size (int_range 1 3) word in
    let+ trace = list_size (int_bound 3) word in
    let cfg = { (Config.make backend ~nprocs) with Config.ecsan; adaptive } in
    let cfg =
      match faults with
      | None -> cfg
      | Some (drop, seed) -> Config.with_faults ~drop ~seed cfg
    in
    let cfg = match crash with None -> cfg | Some p -> Config.with_crash p cfg in
    let cfg =
      match shrunk with
      | Some l -> Config.with_replay l cfg
      | None -> Config.with_schedule_seed sseed cfg
    in
    {
      Explore.c_workload = workload;
      c_config = cfg;
      c_schedule_seed = sseed;
      c_choices = recorded;
      c_reason = String.concat "\n" reason;
      c_shrink_runs = 0;
      c_trace = trace;
    }
  in
  QCheck.Test.make ~name:"counterexample text survives render, parse, render" ~count:300
    (QCheck.make ~print:Explore.render_counterexample gen)
    (fun c ->
      let text = Explore.render_counterexample c in
      match Explore.parse_counterexample text with
      | Error e -> QCheck.Test.fail_reportf "%s" e
      | Ok (name, cfg) ->
          let again =
            Explore.render_counterexample { c with Explore.c_workload = name; c_config = cfg }
          in
          if again <> text then QCheck.Test.fail_reportf "re-rendered as:\n%s" again;
          true)

let test_parse_rejects_junk () =
  (match Explore.parse_counterexample "workload=counter\nnot a kv line" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed line must be rejected");
  (match Explore.parse_counterexample "workload=counter\nschedule-seed=x" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a non-numeric seed must be rejected");
  (match Explore.parse_counterexample "workload=counter\nschedule-seed=1\nfault-drop=0.1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a fault rate without its seed must be rejected");
  (* a configuration that may not run is refused before it runs *)
  (match
     Result.bind
       (Explore.parse_counterexample
          "workload=counter\nbackend=twin\nadaptive=true\nschedule-seed=1")
       Explore.replay
   with
  | Error e ->
      Alcotest.(check string) "the validator's message"
        "adaptive elects between rt and vm; start from one of them" e
  | Ok _ -> Alcotest.fail "an illegal configuration must not replay");
  match Explore.parse_counterexample "# only comments\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a counterexample without a workload must be rejected"

let test_workload_registry () =
  (match Explore.workload_of_name "ecgen:42" with
  | Ok w -> Alcotest.(check string) "ecgen name" "ecgen:42" w.Workload.name
  | Error e -> Alcotest.fail e);
  (* blast carries no barrier data: the apps that bind data to barriers
     cannot run under it, the others can *)
  List.iter
    (fun (app, blast) ->
      match Explore.workload_of_name app with
      | Ok w ->
          Alcotest.(check bool) (app ^ " under blast") blast (w.Workload.supports Config.Blast)
      | Error e -> Alcotest.fail e)
    [ ("quicksort", true); ("matrix", true); ("cholesky", true); ("water", false); ("sor", false) ];
  match Explore.workload_of_name "no-such-workload" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown names must be rejected"

(* Determinism of the generator itself. *)
let test_ecgen_deterministic () =
  let a = Ecgen.generate ~seed:7 ~nprocs:3 () in
  let b = Ecgen.generate ~seed:7 ~nprocs:3 () in
  Alcotest.(check bool) "equal seeds, equal programs" true (a = b);
  let c = Ecgen.generate ~seed:8 ~nprocs:3 () in
  Alcotest.(check bool) "different seeds differ" true (a <> c);
  let buggy = Ecgen.generate ~buggy:true ~seed:7 ~nprocs:3 () in
  let raw =
    Array.fold_left
      (fun acc procs ->
        Array.fold_left
          (fun acc l ->
            acc + List.length (List.filter (function Ecgen.Raw_add _ -> true | _ -> false) l))
          acc procs)
      0 buggy.Ecgen.ops
  in
  Alcotest.(check int) "buggy variant strips exactly one lock" 1 raw;
  Alcotest.(check bool) "oracle unchanged by the strip" true
    (Ecgen.expected buggy = Ecgen.expected a)

let () =
  Alcotest.run "explore"
    [
      ( "property",
        [
          qtest random_programs_converge;
          qtest runs_are_deterministic_under_crash_faults;
          Alcotest.test_case "ecgen deterministic" `Quick test_ecgen_deterministic;
        ] );
      ( "record/replay",
        [
          Alcotest.test_case "replay reproduces a clean run" `Quick
            test_replay_reproduces_clean_run;
          Alcotest.test_case "replay reproduces a failure" `Quick test_replay_reproduces_failure;
          Alcotest.test_case "trace tail only on failure" `Quick test_trace_tail_only_on_failure;
        ] );
      ( "shrinking",
        [
          Alcotest.test_case "prefix and zeroing" `Quick test_shrink_prefix_and_zeroing;
          Alcotest.test_case "fails-everywhere to empty" `Quick
            test_shrink_everywhere_failure_to_empty;
          Alcotest.test_case "unreproducible is None" `Quick test_shrink_unreproducible_is_none;
          Alcotest.test_case "zeroes survivors" `Quick test_shrink_zeroes_survivors;
          Alcotest.test_case "crash events delete to the culprit" `Quick
            test_shrink_crash_deletes_to_minimum;
        ] );
      ( "fuzzer",
        [
          Alcotest.test_case "finds and shrinks the order bug" `Quick
            test_fuzzer_finds_and_shrinks_order_bug;
          Alcotest.test_case "shrinks racy to empty" `Quick test_fuzzer_shrinks_racy_to_empty;
          Alcotest.test_case "finds the broken failover via the crash dimension" `Quick
            test_fuzzer_finds_broken_failover;
          Alcotest.test_case "clean failover survives the crash grid" `Quick
            test_fuzzer_crash_clean_sweep;
          Alcotest.test_case "crash runs need an oracle that judges them" `Quick
            test_crash_needs_a_judging_oracle;
        ] );
      ( "counterexample files",
        [
          Alcotest.test_case "round trip" `Quick test_counterexample_roundtrip;
          qtest counterexample_text_roundtrips;
          Alcotest.test_case "rejects junk" `Quick test_parse_rejects_junk;
          Alcotest.test_case "workload registry" `Quick test_workload_registry;
        ] );
    ]
