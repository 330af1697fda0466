(* Regenerate every table and figure from the paper's evaluation section.

   Usage:
     midway-experiments                       # all experiments, default scale
     midway-experiments --only table2,fig4   # a subset
     midway-experiments --scale 1.0          # the paper's problem sizes
     midway-experiments --nprocs 8           # processor count *)

let experiments =
  [ "table1"; "fig2"; "table2"; "table3"; "fig3"; "table4"; "fig4"; "table5"; "speedup" ]

(* "drop=0.02,dup=0.01,jitter=5000,seed=42": knobs for the fault sweep.
   [drop] narrows the sweep to the baseline and that one rate; without it
   the full 0%..5% default grid runs. *)
let parse_fault_spec spec =
  let drop = ref None and dup = ref None and jitter = ref None and seed = ref None in
  List.iter
    (fun kv ->
      let fail () =
        Printf.eprintf
          "bad --faults entry %S (expected drop=F, dup=F, jitter=NS or seed=N)\n" kv;
        exit 2
      in
      match String.index_opt kv '=' with
      | None -> fail ()
      | Some i -> (
          let key = String.sub kv 0 i
          and value = String.sub kv (i + 1) (String.length kv - i - 1) in
          match key with
          | "drop" -> drop := Some (try float_of_string value with _ -> fail ())
          | "dup" | "duplicate" -> dup := Some (try float_of_string value with _ -> fail ())
          | "jitter" | "jitter_ns" -> jitter := Some (try int_of_string value with _ -> fail ())
          | "seed" -> seed := Some (try int_of_string value with _ -> fail ())
          | _ -> fail ()))
    (String.split_on_char ',' spec |> List.filter (fun s -> s <> ""));
  (!drop, !dup, !jitter, !seed)

let run_fault_sweep spec crash scale nprocs apps =
  let drop, duplicate, jitter_ns, seed = parse_fault_spec spec in
  let drops =
    match (drop, crash) with
    | Some d, _ -> [ 0.0; d ]
    (* a crash-only sweep measures the recovery protocol, not the
       retransmission grid: one fault-free point per application *)
    | None, Some _ when spec = "" -> [ 0.0 ]
    | None, _ -> Midway_report.Faultsweep.default_drops
  in
  Printf.printf "Fault-injection sweep (drop rates: %s%s)...\n%!"
    (String.concat ", " (List.map (fun d -> Printf.sprintf "%.1f%%" (d *. 100.)) drops))
    (match crash with
    | None -> ""
    | Some plan -> Printf.sprintf "; crash plan %s" (Midway_simnet.Crash.render plan));
  let t0 = Unix.gettimeofday () in
  match
    Midway_report.Faultsweep.run ~apps ~drops ?duplicate ?jitter_ns ?seed ?crash ~nprocs
      ~scale ()
  with
  | sweep ->
      Printf.printf "...sweep complete in %.1f s of host time.\n\n%!"
        (Unix.gettimeofday () -. t0);
      print_endline (Midway_report.Faultsweep.render sweep)
  | exception Midway_simnet.Reliable.Exhausted msg ->
      Printf.eprintf
        "fault sweep aborted: %s\n\
         (the loss rate defeated the retry budget of \
         Reliable.default_config; lower drop=)\n"
        msg;
      exit 1

(* One Chrome-trace "process" and one metrics entry per (application,
   system) run of the suite, so a whole sweep lands in one Perfetto
   window / one JSON file. *)
let export_obs suite trace_out metrics_out =
  let runs =
    List.concat_map
      (fun (e : Midway_report.Suite.entry) ->
        let name = Midway_report.Suite.app_name e.Midway_report.Suite.app in
        List.filter_map
          (fun (system, (o : Midway_apps.Outcome.t)) ->
            match Midway.Runtime.obs o.Midway_apps.Outcome.machine with
            (* standalone runs do no DSM work and record nothing — skip them *)
            | Some obs when Midway_obs.Obs.span_count obs > 0 ->
                Some (Printf.sprintf "%s/%s" name system, obs)
            | _ -> None)
          [
            ("rt", e.Midway_report.Suite.rt);
            ("vm", e.Midway_report.Suite.vm);
            ("standalone", e.Midway_report.Suite.standalone);
          ])
      suite.Midway_report.Suite.entries
  in
  (match trace_out with
  | Some file ->
      Midway_obs.Trace_export.write file
        (Midway_obs.Trace_export.multi_to_json
           (List.map (fun (name, o) -> (name, Midway_obs.Obs.spans o)) runs));
      Printf.printf "wrote %d run trace(s) to %s (open in Perfetto / chrome://tracing)\n" (List.length runs) file
  | None -> ());
  match metrics_out with
  | Some file ->
      Midway_obs.Trace_export.write file
        (Midway_util.Json.Obj
           (List.map
              (fun (name, o) ->
                (name, Midway_obs.Metrics.to_json (Midway_obs.Metrics.snapshot (Midway_obs.Obs.metrics o))))
              runs));
      Printf.printf "wrote metrics for %d run(s) to %s\n" (List.length runs) file
  | None -> ()

(* The sharded KV store over Midway EC (extension; not a paper table):
   YCSB A at zipfian 0.99 with periodic bucket migrations, on rt and vm,
   every run checked end to end by the refinement oracle.  Percentiles
   are get-sojourn bucket upper bounds from the store's host-side
   histograms (see doc/KVSTORE.md). *)
let run_kv scale nprocs =
  let module Ycsb = Midway_explore.Ycsb in
  let module Kv_workload = Midway_explore.Kv_workload in
  let module Kvstore = Midway_kv.Kvstore in
  let module Metrics = Midway_obs.Metrics in
  let per_client = max 100 (int_of_float (20_000. *. scale)) in
  Printf.printf "Sharded KV store (extension; not a paper table)\n";
  Printf.printf
    "  YCSB A, zipfian 0.99, closed loop, %d clients x %d requests, 1024 keys / 32 \
     buckets, one migration per 200 requests\n\n"
    nprocs per_client;
  Printf.printf "  %-8s %14s %10s %10s %10s   %s\n" "backend" "req/s (sim)" "get p50" "get p95"
    "get p99" "oracle";
  let bad = ref false in
  List.iter
    (fun backend ->
      let machine = Midway.Runtime.create (Midway.Config.make backend ~nprocs) in
      let kv_cfg =
        {
          Midway_explore.Kv_workload.ycsb =
            {
              Ycsb.keys = 1024;
              requests = per_client;
              mix = Ycsb.mix_a;
              dist = Ycsb.Zipfian 0.99;
              arrival = Ycsb.Closed;
              max_scan = 16;
              seed = 1;
            };
          buckets = 32;
          service_ns = 300;
          preload = 512;
          migrate_every = 200;
          broken_migration = false;
        }
      in
      let store, prog = Kv_workload.build machine kv_cfg in
      Midway.Runtime.run machine prog;
      let n = Kvstore.request_count store in
      let elapsed = Midway.Runtime.elapsed_ns machine in
      let snap = Metrics.snapshot (Kvstore.metrics store) in
      let q p =
        match Metrics.find_hist snap ~name:"kv_latency_ns" ~label:"get" with
        | Some h -> Metrics.quantile_le h p
        | None -> 0
      in
      let verdict =
        match Kvstore.check store with
        | [] -> "ok"
        | v ->
            bad := true;
            Printf.sprintf "%d violation(s)" (List.length v)
      in
      Printf.printf "  %-8s %14.0f %10d %10d %10d   %s\n"
        (Midway.Config.backend_name backend)
        (float_of_int n /. (float_of_int (max 1 elapsed) /. 1e9))
        (q 0.50) (q 0.95) (q 0.99) verdict)
    [ Midway.Config.Rt; Midway.Config.Vm ];
  if !bad then exit 1

(* Per-region hybrid write detection (extension; not a paper table):
   every workload under pure RT, pure VM and the adaptive per-region
   controller (base rt plus Config.adaptive), reporting simulated
   elapsed time.  Every run is oracle-checked — a win from an incoherent
   run would be meaningless.  The sweep itself only asserts correctness;
   the committed BENCH_hybrid.md records where adaptive beats both pure
   backends. *)
let run_hybrid scale nprocs md_file =
  let module C = Midway.Config in
  let module Outcome = Midway_apps.Outcome in
  let mk backend ~adaptive = { (C.make backend ~nprocs) with C.adaptive } in
  Printf.printf "Per-region hybrid write detection sweep (extension; not a paper table)\n";
  Printf.printf
    "  each workload under pure rt, pure vm and the adaptive per-region controller\n\
    \  (base rt + Config.adaptive); simulated elapsed ns, every run oracle-checked\n\n";
  let check name (o : Outcome.t) =
    if not o.Outcome.ok then begin
      Printf.eprintf "hybrid sweep: %s failed oracle verification\n" name;
      exit 1
    end;
    (match Midway.Runtime.check_invariants o.Outcome.machine with
    | [] -> ()
    | v ->
        Printf.eprintf "hybrid sweep: %s violated protocol invariants: %s\n" name
          (String.concat "; " v);
        exit 1);
    o
  in
  let rounds f = max 2 (int_of_float (f *. scale)) in
  let gran name items =
    ( name,
      fun cfg ->
        Midway_apps.Granularity.run cfg
          { Midway_apps.Granularity.total_bytes = 128 * 1024; items; rounds = rounds 8. } )
  in
  let kv_run cfg =
    let module Ycsb = Midway_explore.Ycsb in
    let module Kv_workload = Midway_explore.Kv_workload in
    let module Kvstore = Midway_kv.Kvstore in
    let machine = Midway.Runtime.create cfg in
    let kv_cfg =
      {
        Kv_workload.ycsb =
          {
            Ycsb.keys = 1024;
            requests = max 100 (int_of_float (4_000. *. scale));
            mix = Ycsb.mix_a;
            dist = Ycsb.Zipfian 0.99;
            arrival = Ycsb.Closed;
            max_scan = 16;
            seed = 1;
          };
        buckets = 32;
        service_ns = 300;
        preload = 512;
        migrate_every = 200;
        broken_migration = false;
      }
    in
    let store, prog = Kv_workload.build machine kv_cfg in
    Midway.Runtime.run machine prog;
    Outcome.v ~app:"kv" ~machine ~ok:(Kvstore.check store = []) ~notes:[]
  in
  let workloads =
    List.map
      (fun app ->
        ( Midway_report.Suite.app_name app,
          fun cfg -> Midway_report.Suite.run_app app cfg ~scale ))
      Midway_report.Suite.apps
    @ [
        gran "granularity/coarse" 8;
        gran "granularity/fine" 256;
        ( "hybrid",
          fun cfg ->
            Midway_apps.Hybrid.run cfg
              { Midway_apps.Hybrid.default with Midway_apps.Hybrid.rounds = rounds 48. } );
        ("kv/migrate", kv_run);
      ]
  in
  let rows =
    List.map
      (fun (name, f) ->
        Printf.printf "  running %s...\n%!" name;
        let rt = check name (f (mk C.Rt ~adaptive:false)) in
        let vm = check name (f (mk C.Vm ~adaptive:false)) in
        let ad = check name (f (mk C.Rt ~adaptive:true)) in
        (name, rt, vm, ad))
      workloads
  in
  let ns (o : Outcome.t) = Midway.Runtime.elapsed_ns o.Outcome.machine in
  let line (name, rt, vm, ad) =
    let rt_ns = ns rt and vm_ns = ns vm and ad_ns = ns ad in
    let sw = Midway.Runtime.backend_switches ad.Outcome.machine in
    let best_pure = min rt_ns vm_ns in
    let verdict =
      if ad_ns < best_pure then
        Printf.sprintf "adaptive wins (%.2fx best pure)"
          (float_of_int best_pure /. float_of_int ad_ns)
      else if rt_ns <= vm_ns then "rt"
      else "vm"
    in
    Printf.sprintf "%-20s %14d %14d %14d %4d   %s" name rt_ns vm_ns ad_ns sw verdict
  in
  Printf.printf "\n  %-20s %14s %14s %14s %4s   %s\n" "workload" "rt (ns)" "vm (ns)"
    "adaptive (ns)" "sw" "best";
  List.iter (fun r -> Printf.printf "  %s\n" (line r)) rows;
  (match md_file with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      Printf.fprintf oc
        "# Per-region hybrid write detection\n\n\
         Generated by `experiments --hybrid --scale %g --nprocs %d --md %s`.\n\n\
         Each workload runs under pure RT, pure VM, and the adaptive per-region\n\
         controller (machine default `rt` with `Config.adaptive` on).  Numbers are\n\
         simulated elapsed nanoseconds; `sw` counts committed per-region backend\n\
         switches; every run passed its oracle and the protocol invariants.\n\n\
         | workload | rt (ns) | vm (ns) | adaptive (ns) | sw | best |\n\
         |---|---:|---:|---:|---:|---|\n"
        scale nprocs path;
      List.iter
        (fun (name, rt, vm, ad) ->
          let rt_ns = ns rt and vm_ns = ns vm and ad_ns = ns ad in
          let sw = Midway.Runtime.backend_switches ad.Outcome.machine in
          let best_pure = min rt_ns vm_ns in
          let verdict =
            if ad_ns < best_pure then
              Printf.sprintf "**adaptive** (%.2fx best pure)"
                (float_of_int best_pure /. float_of_int ad_ns)
            else if rt_ns <= vm_ns then "rt"
            else "vm"
          in
          Printf.fprintf oc "| %s | %d | %d | %d | %d | %s |\n" name rt_ns vm_ns ad_ns sw
            verdict)
        rows;
      close_out oc;
      Printf.printf "\nwrote %s\n" path)

let run only scale nprocs apps csv_file md_file faults crash_spec ecsan
    { Midway_cli.Cli.obs; trace_out; metrics_out } kv hybrid =
  let crash = Midway_cli.Cli.crash_plan ~nprocs crash_spec in
  (* the scaling sweep is opt-in: it reruns each application eight times *)
  let default = List.filter (fun e -> e <> "speedup") experiments in
  let only = match only with [] -> default | l -> l in
  List.iter
    (fun e ->
      if not (List.mem e experiments) then begin
        Printf.eprintf "unknown experiment %S (expected: %s)\n" e (String.concat ", " experiments);
        exit 2
      end)
    only;
  let apps =
    match apps with
    | [] -> Midway_report.Suite.apps
    | names ->
        List.map
          (fun n ->
            match Midway_report.Suite.app_of_string n with
            | Ok a -> a
            | Error msg ->
                Printf.eprintf "%s\n" msg;
                exit 2)
          names
  in
  Printf.printf
    "Midway write-detection experiments (scale %.2f, %d processors)\n\
     Reproduction of: Software Write Detection for a Distributed Shared Memory (OSDI '94)\n\n"
    scale nprocs;
  if kv then begin
    run_kv scale nprocs;
    exit 0
  end;
  if hybrid then begin
    run_hybrid scale nprocs md_file;
    exit 0
  end;
  match (faults, crash) with
  | Some spec, _ ->
      if ecsan then
        Printf.eprintf "note: --ecsan does not apply to the fault sweep; ignoring it\n%!";
      run_fault_sweep spec crash scale nprocs apps
  | None, Some _ ->
      (* --crash alone routes to the sweep too: the paper tables assume
         a full-membership run, so node faults only make sense against
         the sweep's per-run verification and availability reporting *)
      run_fault_sweep "" crash scale nprocs apps
  | None, None ->
  let needs_suite = List.exists (fun e -> e <> "table1") only in
  if List.mem "table1" only then
    print_endline (Midway_report.Table1.render Midway_stats.Cost_model.default);
  if needs_suite then begin
    Printf.printf "Running the application suite (RT, VM and standalone per application)...\n%!";
    let t0 = Unix.gettimeofday () in
    let suite =
      try Midway_report.Suite.run ~apps ~ecsan ~obs ~nprocs ~scale ()
      with Failure msg ->
        Printf.eprintf "%s\n" msg;
        exit 1
    in
    export_obs suite trace_out metrics_out;
    Printf.printf "...suite complete in %.1f s of host time.\n\n%!" (Unix.gettimeofday () -. t0);
    let emit name render = if List.mem name only then print_endline (render suite) in
    emit "fig2" Midway_report.Fig2.render;
    emit "table2" Midway_report.Table2.render;
    emit "table3" Midway_report.Table3.render;
    emit "fig3" (fun s ->
        Midway_report.Sweep.render ~title:"Figure 3: write trapping cost vs page-fault time" s
          (Midway_report.Sweep.trapping_lines s));
    emit "table4" Midway_report.Table4.render;
    emit "fig4" (fun s ->
        Midway_report.Sweep.render
          ~title:"Figure 4: total write detection cost vs page-fault time" s
          (Midway_report.Sweep.total_lines s));
    emit "table5" Midway_report.Table5.render;
    (match csv_file with
    | Some path ->
        let oc = open_out path in
        output_string oc (Midway_report.Csv.of_suite suite);
        close_out oc;
        Printf.printf "wrote %s\n" path
    | None -> ());
    (match md_file with
    | Some path ->
        let oc = open_out path in
        output_string oc (Midway_report.Markdown.of_suite suite);
        close_out oc;
        Printf.printf "wrote %s\n" path
    | None -> ())
  end;
  if List.mem "speedup" only then begin
    Printf.printf "Scaling sweep (extension; not a paper figure)...\n%!";
    List.iter
      (fun app ->
        print_endline
          (Midway_report.Speedup.render ~app ~scale:(min scale 0.5) ~procs:[ 1; 2; 4; 8 ]))
      apps
  end

open Cmdliner
module Cli = Midway_cli.Cli

let only =
  Arg.(
    value
    & opt (list string) []
    & info [ "only" ] ~docv:"EXPERIMENTS"
        ~doc:"Comma-separated subset of: table1, fig2, table2, table3, fig3, table4, fig4, table5.")

let scale =
  Cli.scale ~names:[ "scale" ]
    ~doc:
      "Problem scale relative to the paper's parameters (1.0 = 343-molecule water, 250k \
       quicksort, 512x512 matmul, 1000x1000 sor, 32x32-grid cholesky)."
    0.25

let nprocs = Cli.nprocs ~names:[ "nprocs" ] ~doc:"Simulated processors." 8

let apps =
  Arg.(
    value
    & opt (list string) []
    & info [ "apps" ] ~docv:"APPS"
        ~doc:"Comma-separated subset of: water, quicksort, matrix, sor, cholesky.")

let csv_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"FILE" ~doc:"Also write the suite's counters as CSV to $(docv).")

let md_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "md" ] ~docv:"FILE"
        ~doc:"Also write a markdown summary (measured vs paper) to $(docv).")

let faults =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          "Run the fault-injection sweep instead of the paper experiments.  $(docv) is \
           comma-separated $(b,key=value) pairs: $(b,drop) (probability; without it the full \
           0%..5% grid runs), $(b,dup), $(b,jitter) (ns) and $(b,seed).  Example: \
           $(b,--faults drop=0.02,seed=42).")

let crash_spec =
  Cli.crash
    ~doc:
      "Arm node-level faults on the fault sweep: scripted ($(i,stop@2ms:p1,recover@8ms:p1)) \
       or seeded ($(i,n=2,seed=7)).  Adds quorum failover and availability columns; runs \
       whose crashed processors' work is missing are marked degraded instead of aborting the \
       sweep.  Without $(b,--faults), sweeps the drop = 0 point only."

let ecsan =
  Cli.ecsan
    ~doc:
      "Run every suite application under the entry-consistency sanitizer; any violation \
       aborts the experiment with a nonzero exit."

let obs =
  Cli.obs
    ~doc:
      "Run the suite with the observability layer armed (the protocol event log, its spans \
       and metrics).  Implied by $(b,--trace-out) / $(b,--metrics-out)."
    ~trace_doc:
      "Write every suite run's protocol spans as one Chrome trace-event JSON (one Perfetto \
       process per run, one track per processor) to $(docv)."
    ~metrics_doc:"Write every suite run's metrics registry as JSON (keyed by run) to $(docv)."

let kv =
  Arg.(
    value & flag
    & info [ "kv" ]
        ~doc:
          "Run the sharded KV store row instead of the paper experiments: YCSB A at zipfian \
           0.99 with periodic bucket migrations on rt and vm, throughput and get-latency \
           percentiles, every run checked by the refinement oracle.")

let hybrid =
  Arg.(
    value & flag
    & info [ "hybrid" ]
        ~doc:
          "Run the per-region hybrid write detection sweep instead of the paper \
           experiments: every workload (the five applications, two sharing-granularity \
           points, the two-region hybrid microbenchmark and the KV store) under pure rt, \
           pure vm and the adaptive per-region controller, reporting simulated elapsed \
           time.  With $(b,--md FILE) also writes the table as markdown.")

let cmd =
  let doc = "regenerate the paper's tables and figures" in
  Cmd.v
    (Cmd.info "midway-experiments" ~doc)
    Term.(
      const run $ only $ scale $ nprocs $ apps $ csv_file $ md_file $ faults $ crash_spec
      $ ecsan $ obs $ kv $ hybrid)

let () = exit (Cmd.eval cmd)
