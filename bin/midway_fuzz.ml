(* The schedule explorer's command line.

   Fuzz: sweep workloads x backends x schedule seeds, judging every run
   by its sequential oracle, the protocol invariants and ECSan, and
   shrink any failure to a minimal replayable counterexample:

     midway-fuzz --schedules 16 --schedule-seed 1
     midway-fuzz --apps counter,ecgen:7 --backends rt,vm,twin
     midway-fuzz --faults 0.02 --fault-seed 42    # fault x thread schedules
     midway-fuzz --crash-events 2                 # crash x thread schedules

   Demo: hunt the deliberately buggy workloads (order-sensitive, racy,
   deadlocky) and exit 0 only if every one is caught and shrunk within
   the grid — the self-test wired into @fuzzsmoke.  The synchronization
   defects among them (racy, deadlocky) must additionally be flagged by
   the static analyzer first, with the exact diagnostic class and zero
   executions (order-sensitive is statically clean by design: its bug
   is an oracle assumption, not a synchronization defect):

     midway-fuzz --demo-bug --schedules 12

   Analyze: static EC-IR analysis of the selected workloads before the
   sweep, each static warning handed to the explorer as a hunt target:

     midway-fuzz --analyze --apps racy,deadlocky,ecgen-buggy:1

   Replay: re-execute a dumped counterexample and exit 0 iff the
   failure reproduces:

     midway-fuzz --schedules 8 --dump /tmp/cex.txt
     midway-fuzz --replay /tmp/cex.txt *)

module Config = Midway.Config
module Explore = Midway_explore.Explore
module Workload = Midway_explore.Workload
module Analyze = Midway_analyze.Analyze

(* The demo's static contract: these seeded bugs are synchronization
   defects, so the analyzer must flag them — with this exact class —
   before any run. *)
let demo_static_expectations =
  [ ("racy", "unsynchronized-access"); ("deadlocky", "lock-cycle") ]

let static_flags report slug =
  List.exists (fun f -> Analyze.class_slug f.Analyze.cls = slug) report.Analyze.warnings

(* Names go to the strict shared parsers verbatim — no trimming or case
   folding here, so " rt" and "RT" are rejected with the same
   did-you-mean hint every tool gives.  Only genuinely empty segments
   (a trailing comma) are skipped. *)
let parse_names of_name csv =
  String.split_on_char ',' csv
  |> List.filter (fun s -> s <> "")
  |> List.map (fun s ->
         match of_name s with
         | Ok v -> v
         | Error msg ->
             Printf.eprintf "%s\n" msg;
             exit 2)

let print_failure (c : Explore.counterexample) =
  let cfg = c.Explore.c_config in
  Printf.printf "FAIL %s/%s schedule-seed=%d%s\n" c.Explore.c_workload
    (Config.backend_name cfg.Config.backend)
    c.Explore.c_schedule_seed
    (match cfg.Config.faults with
    | Some f -> Printf.sprintf " fault-seed=%d" f.Midway_simnet.Net.fault_seed
    | None -> "");
  Printf.printf "  %s\n" c.Explore.c_reason;
  (match c.Explore.c_choices with
  | Some l -> Printf.printf "  recorded choices : %d\n" (List.length l)
  | None -> Printf.printf "  recorded choices : unavailable (machine lost)\n");
  (match Explore.shrunk c with
  | Some l ->
      Printf.printf "  shrunk to        : [%s] (%d re-runs)\n"
        (String.concat "," (List.map string_of_int l))
        c.Explore.c_shrink_runs
  | None -> Printf.printf "  shrunk to        : (failure did not reproduce under replay)\n");
  if c.Explore.c_trace <> [] then begin
    Printf.printf "  trace tail:\n";
    List.iter (fun t -> Printf.printf "    %s\n" t) c.Explore.c_trace
  end

let dump_failures path failures =
  let oc = open_out path in
  List.iter (fun c -> output_string oc (Explore.render_counterexample c)) failures;
  close_out oc;
  Printf.printf "counterexample(s) written to %s\n" path

let run_replay scale trace_out metrics_out path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match
    Result.bind (Explore.parse_counterexample text)
      (Explore.replay ~scale ?trace_out ?metrics_out)
  with
  | Error msg ->
      Printf.eprintf "replay failed: %s\n" msg;
      2
  | Ok j ->
      (match trace_out with
      | Some f -> Printf.printf "replay trace written to %s (open in Perfetto)\n" f
      | None -> ());
      (match metrics_out with
      | Some f -> Printf.printf "replay metrics written to %s\n" f
      | None -> ());
      if j.Explore.j_failed then begin
        Printf.printf "failure reproduced:\n  %s\n" j.Explore.j_reason;
        0
      end
      else begin
        Printf.printf "failure did NOT reproduce (run came back clean)\n";
        1
      end

let run apps_csv backends_csv schedules schedule_seed nprocs scale faults fault_seed crash
    crash_events crash_seed crash_horizon trace no_ecsan adaptive demo_bug analyze
    shrink_budget dump
    replay_file trace_out metrics_out =
  match replay_file with
  | Some path -> run_replay scale trace_out metrics_out path
  | None ->
      if trace_out <> None || metrics_out <> None then begin
        Printf.eprintf "--trace-out/--metrics-out apply to --replay runs only\n";
        exit 2
      end;
      let crash_plan = Midway_cli.Cli.crash_plan ~nprocs crash in
      let crash_armed = crash_plan <> None || crash_events > 0 in
      let workloads =
        match (apps_csv, demo_bug) with
        | Some csv, _ -> parse_names (Explore.workload_of_name ~scale) csv
        | None, true ->
            (* with the crash dimension armed, the broken-failover prey
               joins the hunt — it only manifests under node crashes *)
            Explore.buggy_workloads ()
            @ (if crash_armed then [ Workload.crashy_broken ~iters:6 ] else [])
        | None, false ->
            Explore.clean_workloads () @ [ Midway_explore.Ecgen.workload ~seed:1 () ]
      in
      let backends = parse_names Config.backend_of_string backends_csv in
      let spec =
        {
          Explore.workloads;
          backends;
          schedules;
          schedule_seed;
          nprocs;
          ecsan = not no_ecsan;
          adaptive;
          fault_drop = faults;
          fault_seed;
          crash_events;
          crash_seed;
          crash_horizon_ns = crash_horizon;
          crash_plan;
          trace_capacity = trace;
          max_shrink_runs = shrink_budget;
        }
      in
      (* static pre-pass: the demo's synchronization defects must be
         flagged before any run; --analyze reports (and hunts) every
         static warning of the selected workloads *)
      let static_ok = ref true in
      if demo_bug then
        List.iter
          (fun (w : Workload.t) ->
            match List.assoc_opt w.Workload.name demo_static_expectations with
            | None -> ()
            | Some slug -> (
                match Explore.static_report ~nprocs w with
                | Some rep when static_flags rep slug ->
                    Printf.printf "demo: %s statically flagged as [%s] with zero runs\n"
                      w.Workload.name slug
                | _ ->
                    Printf.printf "demo: %s NOT statically flagged as [%s] — analyzer miss\n"
                      w.Workload.name slug;
                    static_ok := false))
          workloads;
      if analyze then
        List.iter
          (fun (w : Workload.t) ->
            match
              Explore.confirm_static ~backends ~schedules ~schedule_seed ~nprocs w
            with
            | None -> Printf.printf "analyze: %s has no EC-IR lift, skipped\n" w.Workload.name
            | Some (rep, confirmations) ->
                print_string (Analyze.render rep);
                List.iter (fun c -> print_endline (Explore.render_confirmation c)) confirmations)
          workloads;
      let report = Explore.run_spec ~progress:print_endline spec in
      let failures = report.Explore.failures in
      Printf.printf "\n%d run(s) over %d grid point(s): %d failure(s)\n" report.Explore.total_runs
        report.Explore.grid_points (List.length failures);
      List.iter print_failure failures;
      (match dump with Some path when failures <> [] -> dump_failures path failures | _ -> ());
      if demo_bug then begin
        (* self-test: every buggy workload must be caught somewhere in
           the grid and shrunk to a verified-failing counterexample *)
        let caught (w : Workload.t) =
          List.exists
            (fun c -> c.Explore.c_workload = w.Workload.name && Explore.shrunk c <> None)
            failures
        in
        let missed = List.filter (fun w -> not (caught w)) workloads in
        if missed = [] && !static_ok then begin
          Printf.printf "demo: every seeded bug was found and shrunk\n";
          0
        end
        else if missed = [] then 1 (* dynamically caught, but the static pre-pass missed *)
        else begin
          List.iter
            (fun (w : Workload.t) ->
              Printf.printf "demo: %s escaped the grid (or did not shrink)\n" w.Workload.name)
            missed;
          1
        end
      end
      else if failures = [] then 0
      else 1

open Cmdliner
module Cli = Midway_cli.Cli

let apps =
  Arg.(
    value
    & opt (some string) None
    & info [ "apps"; "a" ] ~docv:"NAMES"
        ~doc:
          "Comma-separated workloads: counter, readers-writer, mix, order-sensitive, racy, \
           crashy, crashy-broken, ecgen:SEED, ecgen-buggy:SEED, or an application name \
           (water, quicksort, matrix, sor, cholesky).  Default: the clean synthetic \
           workloads plus ecgen:1.")

let backends =
  Arg.(
    value & opt string "rt,vm"
    & info [ "backends"; "b" ] ~docv:"LIST"
        ~doc:"Comma-separated backends to sweep (rt, vm, twin, vm-fine, blast).")

let schedules = Cli.schedules ~doc:"Schedule seeds per (workload, backend) pair." 8

let schedule_seed =
  Arg.(
    value & opt int 1
    & info [ "schedule-seed" ] ~docv:"SEED" ~doc:"Base schedule seed; run $(i,i) uses SEED+i.")

let nprocs = Cli.nprocs 4

let scale = Cli.scale ~doc:"Application problem scale (applications only)." 0.05

let faults =
  Arg.(
    value
    & opt (some Cli.probability) None
    & info [ "faults" ] ~docv:"RATE"
        ~doc:
          "Compose fault schedules with thread schedules: drop each message copy with \
           probability RATE; the per-run fault seed is derived from the schedule seed.")

let fault_seed =
  Arg.(
    value & opt int 0x0FA7
    & info [ "fault-seed" ] ~docv:"SEED" ~doc:"Base seed of the fault-schedule derivation.")

let crash =
  Cli.crash
    ~doc:
      "Apply one node-crash plan to every run: scripted ($(i,stop@2ms:p1,recover@8ms:p1)) or \
       seeded ($(i,n=2,seed=7)).  Overrides the per-run seeded dimension of \
       $(b,--crash-events)."

let crash_events =
  Arg.(
    value & opt Cli.non_negative 0
    & info [ "crash-events" ] ~docv:"N"
        ~doc:
          "Compose node-crash schedules with thread schedules: up to N seeded crash episodes \
           per run, derived from the schedule seed.  0 (default) = no crash dimension.")

let crash_seed =
  Arg.(
    value & opt int 0xC0DE
    & info [ "crash-seed" ] ~docv:"SEED" ~doc:"Base seed of the crash-schedule derivation.")

let crash_horizon =
  Arg.(
    value & opt Cli.positive 2_000_000
    & info [ "crash-horizon" ] ~docv:"NS"
        ~doc:"Window (virtual ns) the seeded crash episodes land in.")

let trace = Cli.trace ~doc:"Protocol event log capacity (its tail is shown on failure)." 64

let no_ecsan =
  Arg.(value & flag & info [ "no-ecsan" ] ~doc:"Judge runs without the entry-consistency sanitizer.")

let adaptive =
  Arg.(
    value & flag
    & info [ "adaptive" ]
        ~doc:
          "Arm per-region adaptive hybrid write detection on every rt and vm run, composing \
           the controller's online backend switches with the schedule, fault and crash \
           dimensions; counterexamples record the flag and replay with it.")

let demo_bug =
  Arg.(
    value & flag
    & info [ "demo-bug" ]
        ~doc:
          "Hunt the deliberately buggy workloads instead of the clean ones; exit 0 only if \
           the static analyzer flags the synchronization defects first (exact class, zero \
           runs) and every seeded bug is then found and shrunk within the grid.")

let analyze =
  Arg.(
    value & flag
    & info [ "analyze" ]
        ~doc:
          "Before the sweep, statically analyze each selected workload's EC-IR and hand every \
           static warning to the explorer as a hunt target (CONFIRMED vs unconfirmed).  \
           Informational: does not change the exit code.")

let shrink_budget =
  Arg.(
    value & opt Cli.non_negative 48
    & info [ "shrink-budget" ] ~docv:"N" ~doc:"Re-executions one shrink may spend.")

let dump =
  Arg.(
    value
    & opt (some string) None
    & info [ "dump" ] ~docv:"FILE" ~doc:"Write shrunk counterexamples to FILE.")

let replay_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "replay" ] ~docv:"FILE"
        ~doc:"Re-execute a dumped counterexample; exit 0 iff the failure reproduces.")

let trace_out =
  Cli.trace_out
    ~doc:
      "With $(b,--replay): write the replayed (shrunk) schedule's protocol spans as Chrome \
       trace-event JSON to $(docv) — the span timeline is usually the fastest way to see the \
       ordering that breaks."

let metrics_out =
  Cli.metrics_out
    ~doc:"With $(b,--replay): write the replayed run's metrics registry as JSON to $(docv)."

let cmd =
  let doc = "seeded schedule fuzzer with record/replay and counterexample shrinking" in
  Cmd.v
    (Cmd.info "midway-fuzz" ~doc)
    Term.(
      const run $ apps $ backends $ schedules $ schedule_seed $ nprocs $ scale $ faults
      $ fault_seed $ crash $ crash_events $ crash_seed $ crash_horizon $ trace $ no_ecsan
      $ adaptive
      $ demo_bug $ analyze $ shrink_budget $ dump $ replay_file $ trace_out $ metrics_out)

let () = exit (Cmd.eval' cmd)
