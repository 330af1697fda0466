(* Run one benchmark application on the simulated DSM and report its
   statistics.

   Usage:
     midway-run sor --backend rt --nprocs 8 --scale 0.5
     midway-run water --backend vm
     midway-run cholesky --backend standalone *)

module Counters = Midway_stats.Counters

let print_stats outcome =
  let machine = outcome.Midway_apps.Outcome.machine in
  let avg = Midway_apps.Outcome.avg_counters outcome in
  let net = Midway.Runtime.net machine in
  Printf.printf "simulated time      : %s\n"
    (Midway_util.Units.pp_time (Midway.Runtime.elapsed_ns machine));
  Printf.printf "messages            : %d\n" (Midway_simnet.Net.total_messages net);
  Printf.printf "payload on the wire : %s\n"
    (Midway_util.Units.pp_bytes (Midway_simnet.Net.total_payload_bytes net));
  Printf.printf "per-processor averages:\n";
  Printf.printf "  data received          : %s\n"
    (Midway_util.Units.pp_bytes avg.Counters.data_received_bytes);
  Printf.printf "  lock acquires          : %d local, %d remote\n"
    avg.Counters.lock_acquires_local avg.Counters.lock_acquires_remote;
  Printf.printf "  barrier crossings      : %d\n" avg.Counters.barrier_crossings;
  Printf.printf "  dirtybits set          : %d (%d misclassified)\n" avg.Counters.dirtybits_set
    avg.Counters.dirtybits_misclassified;
  Printf.printf "  dirtybits read         : %d clean, %d dirty\n"
    avg.Counters.clean_dirtybits_read avg.Counters.dirty_dirtybits_read;
  Printf.printf "  dirtybits updated      : %d\n" avg.Counters.dirtybits_updated;
  Printf.printf "  write faults           : %d\n" avg.Counters.write_faults;
  Printf.printf "  pages diffed/protected : %d / %d\n" avg.Counters.pages_diffed
    avg.Counters.pages_write_protected;
  Printf.printf "  twin bytes updated     : %s\n"
    (Midway_util.Units.pp_bytes avg.Counters.twin_update_bytes);
  Printf.printf "  percent dirty data     : %.1f%%\n" (Counters.percent_dirty_data avg);
  Printf.printf "  trapping time          : %s\n"
    (Midway_util.Units.pp_time avg.Counters.trap_time_ns);
  Printf.printf "  collection time        : %s\n"
    (Midway_util.Units.pp_time avg.Counters.collect_time_ns)

let run app_name backend_name nprocs scale rt_mode_name untargetted adaptive crash_spec
    trace_n ecsan { Midway_cli.Cli.obs; trace_out; metrics_out } =
  let app =
    match Midway_report.Suite.app_of_string app_name with
    | Ok a -> a
    | Error msg ->
        Printf.eprintf "%s\n" msg;
        exit 2
  in
  let backend =
    match Midway.Config.backend_of_string backend_name with
    | Ok b -> b
    | Error msg ->
        Printf.eprintf "%s\n" msg;
        exit 2
  in
  let rt_mode =
    match rt_mode_name with
    | "plain" -> Midway.Config.Plain
    | "two-level" -> Midway.Config.Two_level
    | "update-queue" -> Midway.Config.Update_queue
    | s ->
        Printf.eprintf "unknown rt mode %S (expected plain|two-level|update-queue)\n" s;
        exit 2
  in
  let nprocs = if backend = Midway.Config.Standalone then 1 else nprocs in
  (match Midway_report.Suite.fits app ~nprocs ~scale with
  | Ok () -> ()
  | Error msg ->
      Printf.eprintf "%s: lower --nprocs or raise --scale\n" msg;
      exit 2);
  let crash_plan = Midway_cli.Cli.crash_plan ~nprocs crash_spec in
  let cfg =
    {
      (Midway.Config.make backend ~nprocs) with
      Midway.Config.rt_mode;
      untargetted;
      adaptive;
      trace_capacity = trace_n;
      ecsan;
      obs;
    }
  in
  let cfg =
    match crash_plan with None -> cfg | Some plan -> Midway.Config.with_crash plan cfg
  in
  (match Midway.Runtime.validate cfg with
  | Ok () -> ()
  | Error msg ->
      Printf.eprintf "%s\n" msg;
      exit 2);
  if Midway_report.Suite.barrier_bound app && (backend = Midway.Config.Blast || untargetted)
  then begin
    Printf.eprintf "%s binds data to barriers, which %s cannot carry\n" app_name
      (if untargetted then "the untargetted model (--untargetted)"
       else "the blast backend (--backend blast)");
    exit 2
  end;
  let t0 = Unix.gettimeofday () in
  let outcome = Midway_report.Suite.run_app app cfg ~scale in
  let host = Unix.gettimeofday () -. t0 in
  Format.printf "%a@.@." Midway_apps.Outcome.pp outcome;
  print_stats outcome;
  (match crash_plan with
  | None -> ()
  | Some plan ->
      let machine = outcome.Midway_apps.Outcome.machine in
      let killed = Midway.Runtime.killed_procs machine in
      Printf.printf "crash plan          : %s\n" (Midway_simnet.Crash.render plan);
      Printf.printf "  crashed processors     : %s\n"
        (if killed = [] then "none"
         else String.concat "," (List.map (Printf.sprintf "p%d") killed));
      Printf.printf "  quorum failovers       : %d\n" (Midway.Runtime.failover_count machine);
      Printf.printf "  availability           : %.2f\n" (Midway.Runtime.availability machine));
  if adaptive then begin
    let machine = outcome.Midway_apps.Outcome.machine in
    Printf.printf "adaptive detection  : %d backend switch(es)\n"
      (Midway.Runtime.backend_switches machine);
    match Midway.Runtime.region_assignments machine with
    | [] -> ()
    | l ->
        Printf.printf "  re-elected regions     : %s\n"
          (String.concat ", "
             (List.map
                (fun (r, b) -> Printf.sprintf "%d->%s" r (Midway.Config.backend_name b))
                l))
  end;
  Printf.printf "host time           : %.2f s\n" host;
  (match Midway.Runtime.log outcome.Midway_apps.Outcome.machine with
  | Some log when trace_n > 0 ->
      let events = Midway_obs.Obs.tail log trace_n in
      Printf.printf "\nlast %d of %d protocol events:\n" (List.length events)
        (Midway_obs.Obs.total log);
      List.iter (fun e -> print_endline (Midway_obs.Event.to_string e)) events
  | _ -> ());
  (match Midway.Runtime.obs outcome.Midway_apps.Outcome.machine with
  | None -> ()
  | Some o ->
      let run_name = Printf.sprintf "%s/%s n=%d" app_name backend_name nprocs in
      (match trace_out with
      | Some file ->
          Midway_obs.Trace_export.write file
            (Midway_obs.Trace_export.to_json ~name:run_name (Midway_obs.Obs.spans o));
          Printf.printf "\nwrote %d span(s) to %s (open in Perfetto / chrome://tracing)\n"
            (Midway_obs.Obs.span_count o) file
      | None -> ());
      let snap = Midway_obs.Metrics.snapshot (Midway_obs.Obs.metrics o) in
      (match metrics_out with
      | Some file ->
          Midway_obs.Trace_export.write file (Midway_obs.Metrics.to_json snap);
          Printf.printf "wrote metrics to %s\n" file
      | None -> ());
      if trace_out = None && metrics_out = None then
        Printf.printf "\n%s" (Midway_obs.Metrics.render_markdown snap));
  let invariants = Midway.Runtime.check_invariants outcome.Midway_apps.Outcome.machine in
  if invariants <> [] then begin
    Printf.printf "\ninvariant violations:\n";
    List.iter (Printf.printf "  %s\n") invariants
  end;
  let ecsan_bad =
    if ecsan then begin
      let rep = Midway.Runtime.check_report outcome.Midway_apps.Outcome.machine in
      Printf.printf "\n%s" (Midway_check.Report.render rep);
      Midway_check.Report.has_violations rep
    end
    else false
  in
  if ecsan_bad || invariants <> [] || not outcome.Midway_apps.Outcome.ok then exit 1

open Cmdliner
module Cli = Midway_cli.Cli

let app_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"APP")

let backend =
  Arg.(
    value & opt string "rt"
    & info [ "backend"; "b" ] ~docv:"BACKEND"
        ~doc:("Write-detection backend: " ^ String.concat ", " Midway.Config.backend_names ^ "."))

let rt_mode =
  Arg.(
    value & opt string "plain"
    & info [ "rt-mode" ] ~docv:"MODE"
        ~doc:"RT trapping organization: plain, two-level or update-queue.")

let untargetted =
  Arg.(
    value & flag
    & info [ "untargetted" ]
        ~doc:"Use the untargetted consistency model (RT backend, lock-based programs only).")

let adaptive =
  Arg.(
    value & flag
    & info [ "adaptive" ]
        ~doc:
          "Arm the per-region adaptive hybrid write detection controller: regions start on \
           the configured backend (rt or vm) and are re-elected online at safe points from \
           observed transfer costs (see doc/ADAPTIVE.md).")

let cmd =
  let doc = "run one DSM benchmark application" in
  Cmd.v (Cmd.info "midway-run" ~doc)
    Term.(
      const run $ app_arg $ backend $ Cli.nprocs 8
      $ Cli.scale ~doc:"Problem scale (1.0 = paper parameters)." 0.25
      $ rt_mode $ untargetted $ adaptive
      $ Cli.crash
          ~doc:
            "Arm node-level faults: scripted ($(i,stop@2ms:p1,recover@8ms:p1)) or seeded \
             ($(i,n=2,seed=7)).  Crashed processors' locks fail over to live peers by majority \
             quorum; the run completes with the survivors and reports failovers and \
             availability."
      $ Cli.trace ~doc:"Print the last N protocol events of the run." 0
      $ Cli.ecsan
          ~doc:
            "Run under the entry-consistency sanitizer: report unsynchronized accesses, \
             writes under shared holds, unbound shared data, misclassified private stores, \
             stale-binding accesses and binding-table lint, and exit nonzero on any violation."
      $ Cli.obs
          ~doc:
            "Arm the observability layer (the protocol event log, its spans and metrics) and \
             print the metrics summary after the run.  Implied by $(b,--trace-out) / \
             $(b,--metrics-out)."
          ~trace_doc:
            "Write the run's protocol spans as Chrome trace-event JSON (one Perfetto track per \
             processor, simulated timeline) to $(docv)."
          ~metrics_doc:
            "Write the run's metrics registry (counters + histograms) as JSON to $(docv).")

let () = exit (Cmd.eval cmd)
