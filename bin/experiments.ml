(* Regenerate every table and figure from the paper's evaluation section,
   and the extension experiments.

   Usage:
     midway-experiments                       # the paper's tables and figures
     midway-experiments --only table2,fig4   # a subset
     midway-experiments --only ablations     # an extension section
     midway-experiments --scale 1.0          # the paper's problem sizes
     midway-experiments --nprocs 8           # processor count

   Sections print to stdout; progress and host time go to stderr, so a
   committed result file is the stdout of one command (the root dune
   file's @paper alias regenerates and diffs each). *)

module Config = Midway.Config
module Outcome = Midway_apps.Outcome
module Suite = Midway_report.Suite

(* "drop=0.02,dup=0.01,jitter=5000,seed=42": knobs for the fault sweep.
   [drop] narrows the sweep to the baseline and that one rate; without it
   the full 0%..5% default grid runs. *)
let parse_fault_spec spec =
  let drop = ref None and dup = ref None and jitter = ref None and seed = ref None in
  List.iter
    (fun kv ->
      let fail () =
        Printf.eprintf
          "bad --faults entry %S (expected drop=P or dup=P with P in [0, 1], jitter=NS >= 0, \
           or seed=N)\n"
          kv;
        exit 2
      in
      let parse of_string ok value =
        match of_string value with Some v when ok v -> Some v | _ -> fail ()
      in
      let probability = parse float_of_string_opt (fun p -> p >= 0. && p <= 1.) in
      match String.index_opt kv '=' with
      | None -> fail ()
      | Some i -> (
          let key = String.sub kv 0 i
          and value = String.sub kv (i + 1) (String.length kv - i - 1) in
          match key with
          | "drop" -> drop := probability value
          | "dup" | "duplicate" -> dup := probability value
          | "jitter" | "jitter_ns" -> jitter := parse int_of_string_opt (fun ns -> ns >= 0) value
          | "seed" -> seed := parse int_of_string_opt (fun _ -> true) value
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
  Printf.eprintf "Fault-injection sweep (drop rates: %s%s)...\n%!"
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
      Printf.eprintf "...sweep complete in %.1f s of host time.\n%!"
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
      (fun (e : Suite.entry) ->
        let name = Suite.app_name e.Suite.app in
        List.filter_map
          (fun (system, (o : Outcome.t)) ->
            match Midway.Runtime.obs o.Outcome.machine with
            (* standalone runs do no DSM work and record nothing — skip them *)
            | Some obs when Midway_obs.Obs.span_count obs > 0 ->
                Some (Printf.sprintf "%s/%s" name system, obs)
            | _ -> None)
          [ ("rt", e.Suite.rt); ("vm", e.Suite.vm); ("standalone", e.Suite.standalone) ])
      suite.Suite.entries
  in
  (match trace_out with
  | Some file ->
      Midway_obs.Trace_export.write file
        (Midway_obs.Trace_export.multi_to_json
           (List.map (fun (name, o) -> (name, Midway_obs.Obs.spans o)) runs));
      Printf.eprintf "wrote %d run trace(s) to %s (open in Perfetto / chrome://tracing)\n"
        (List.length runs) file
  | None -> ());
  match metrics_out with
  | Some file ->
      Midway_obs.Trace_export.write file
        (Midway_util.Json.Obj
           (List.map
              (fun (name, o) ->
                (name, Midway_obs.Metrics.to_json (Midway_obs.Metrics.snapshot (Midway_obs.Obs.metrics o))))
              runs));
      Printf.eprintf "wrote metrics for %d run(s) to %s\n" (List.length runs) file
  | None -> ()

(* The sharded KV store workload of the kv and hybrid sections: YCSB A at
   zipfian 0.99 over 1024 keys in 32 buckets, closed loop, each client
   migrating a bucket every 200 requests.  The outcome's oracle is the
   store's refinement check. *)
let kv_run ~requests cfg =
  let module Ycsb = Midway_explore.Ycsb in
  let module Kv_workload = Midway_explore.Kv_workload in
  let machine = Midway.Runtime.create cfg in
  let store, prog =
    Kv_workload.build machine
      {
        Kv_workload.ycsb =
          {
            Ycsb.keys = 1024;
            requests;
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
  Midway.Runtime.run machine prog;
  (store, Outcome.v ~app:"kv" ~machine ~ok:(Midway_kv.Kvstore.check store = []) ~notes:[])

(* What a section renders from; the suite runs once, on first use. *)
type ctx = { suite : Suite.t Lazy.t; apps : Suite.app list; scale : float; nprocs : int }

(* The KV store's capacity row (extension; not a paper table) on rt and
   vm.  Percentiles are get-sojourn bucket upper bounds from the
   histograms the store folds from its observation log (see
   doc/KVSTORE.md). *)
let kv { scale; nprocs; _ } =
  let module Metrics = Midway_obs.Metrics in
  let per_client = max 100 (int_of_float (20_000. *. scale)) in
  let row backend =
    let store, o = kv_run ~requests:per_client (Config.make backend ~nprocs) in
    let elapsed = Midway.Runtime.elapsed_ns (Suite.check o).Outcome.machine in
    let snap = Metrics.snapshot (Midway_kv.Kvstore.metrics store) in
    let q p =
      match Metrics.find_hist snap ~name:"kv_latency_ns" ~label:"get" with
      | Some h -> Metrics.quantile_le h p
      | None -> 0
    in
    Printf.sprintf "  %-8s %14.0f %10d %10d %10d" (Config.backend_name backend)
      (float_of_int (Midway_kv.Kvstore.request_count store)
      /. (float_of_int (max 1 elapsed) /. 1e9))
      (q 0.50) (q 0.95) (q 0.99)
  in
  String.concat "\n"
    ([
       "Sharded KV store (extension; not a paper table)";
       Printf.sprintf
         "  YCSB A, zipfian 0.99, closed loop, %d clients x %d requests, 1024 keys / 32 \
          buckets, one migration per 200 requests"
         nprocs per_client;
       "";
       Printf.sprintf "  %-8s %14s %10s %10s %10s" "backend" "req/s (sim)" "get p50" "get p95"
         "get p99";
     ]
    @ List.map row [ Config.Rt; Config.Vm ])
  ^ "\n"

(* Per-region hybrid write detection (extension; not a paper table):
   every workload under pure RT, pure VM and the adaptive per-region
   controller (base rt plus Config.adaptive), as the markdown that
   BENCH_hybrid.md holds. *)
let hybrid { scale; nprocs; _ } =
  let rounds f = max 2 (int_of_float (f *. scale)) in
  let granularity items cfg =
    Midway_apps.Granularity.run cfg
      { Midway_apps.Granularity.total_bytes = 128 * 1024; items; rounds = rounds 8. }
  in
  let workloads =
    List.map
      (fun app -> (Suite.app_name app, fun cfg -> Suite.run_app app cfg ~scale))
      Suite.apps
    @ [
        ("granularity/coarse", granularity 8);
        ("granularity/fine", granularity 256);
        ( "hybrid",
          fun cfg ->
            Midway_apps.Hybrid.run cfg
              { Midway_apps.Hybrid.default with Midway_apps.Hybrid.rounds = rounds 48. } );
        ( "kv/migrate",
          fun cfg -> snd (kv_run ~requests:(max 100 (int_of_float (4_000. *. scale))) cfg) );
      ]
  in
  let row (name, f) =
    Printf.eprintf "running %s...\n%!" name;
    let run backend ~adaptive =
      (Suite.check (f { (Config.make backend ~nprocs) with Config.adaptive })).Outcome.machine
    in
    let rt = Midway.Runtime.elapsed_ns (run Config.Rt ~adaptive:false) in
    let vm = Midway.Runtime.elapsed_ns (run Config.Vm ~adaptive:false) in
    let ad = run Config.Rt ~adaptive:true in
    let ad_ns = Midway.Runtime.elapsed_ns ad in
    let best =
      if ad_ns < min rt vm then
        Printf.sprintf "**adaptive** (%.2fx best pure)"
          (float_of_int (min rt vm) /. float_of_int ad_ns)
      else if rt <= vm then "rt"
      else "vm"
    in
    Printf.sprintf "| %s | %d | %d | %d | %d | %s |" name rt vm ad_ns
      (Midway.Runtime.backend_switches ad) best
  in
  String.concat "\n"
    ([
       "# Per-region hybrid write detection";
       "";
       Printf.sprintf "Generated by `experiments --only hybrid --scale %g --nprocs %d`." scale
         nprocs;
       "";
       "Each workload runs under pure RT, pure VM, and the adaptive per-region";
       "controller (machine default `rt` with `Config.adaptive` on).  Numbers are";
       "simulated elapsed nanoseconds; `sw` counts committed per-region backend";
       "switches; every run passed its oracle and the protocol invariants.";
       "";
       "| workload | rt (ns) | vm (ns) | adaptive (ns) | sw | best |";
       "|---|---:|---:|---:|---:|---|";
     ]
    @ List.map row workloads)

(* A section's renderer, and the (apps, processor count, scale) sizes it
   runs apps at, which [run] checks with [Suite.fits] before any machine
   runs. *)
type section = { runs : ctx -> (Suite.app list * int * float) list; render : ctx -> string }

(* The speedup section's processor counts and scale. *)
let speedup_procs = [ 1; 2; 4; 8 ]

let speedup_scale scale = Float.min scale 0.5

(* In print order.  [paper] is the default selection; the others are
   extensions. *)
let sections =
  let suite render =
    {
      runs = (fun c -> [ (c.apps, c.nprocs, c.scale) ]);
      render = (fun c -> render (Lazy.force c.suite));
    }
  in
  let sweep title lines =
    suite (fun s -> Midway_report.Sweep.render ~title s (lines s))
  in
  let every_app render = { runs = (fun c -> [ (Suite.apps, c.nprocs, c.scale) ]); render } in
  let no_app render = { runs = (fun _ -> []); render } in
  [
    ("table1", no_app (fun _ -> Midway_report.Table1.render Midway_stats.Cost_model.default));
    ("fig2", suite Midway_report.Fig2.render);
    ("table2", suite Midway_report.Tables.(render table2));
    ("table3", suite Midway_report.Tables.(render table3));
    ( "fig3",
      sweep "Figure 3: write trapping cost vs page-fault time"
        Midway_report.Sweep.trapping_lines );
    ("table4", suite Midway_report.Tables.(render table4));
    ( "fig4",
      sweep "Figure 4: total write detection cost vs page-fault time"
        Midway_report.Sweep.total_lines );
    ("table5", suite Midway_report.Tables.(render table5));
    ( "speedup",
      {
        runs = (fun c -> List.map (fun n -> (c.apps, n, speedup_scale c.scale)) speedup_procs);
        render =
          (fun c ->
            "Scaling sweep (extension; not a paper figure)\n"
            ^ String.concat "\n"
                (List.map
                   (fun app ->
                     Midway_report.Speedup.render ~app ~scale:(speedup_scale c.scale)
                       ~procs:speedup_procs)
                   c.apps));
      } );
    ( "ablations",
      every_app (fun c -> Midway_report.Ablations.render ~scale:c.scale ~nprocs:c.nprocs) );
    ("kv", no_app kv);
    ("hybrid", every_app hybrid);
  ]

let paper = [ "table1"; "fig2"; "table2"; "table3"; "fig3"; "table4"; "fig4"; "table5" ]

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  Printf.eprintf "wrote %s\n" path

(* Refuse, before any machine runs, a size at which an app this
   invocation runs cannot be partitioned: [runs] lists the apps with the
   processor count and scale they run at. *)
let check_sizes runs =
  List.iter
    (fun (apps, nprocs, scale) ->
      List.iter
        (fun app ->
          match Suite.fits app ~nprocs ~scale with
          | Ok () -> ()
          | Error msg ->
              Printf.eprintf "%s: lower --nprocs or raise --scale\n" msg;
              exit 2)
        apps)
    runs

let run only scale nprocs apps csv_file md_file faults crash_spec ecsan
    { Midway_cli.Cli.obs; trace_out; metrics_out } =
  let crash = Midway_cli.Cli.crash_plan ~nprocs crash_spec in
  let apps =
    match apps with
    | [] -> Suite.apps
    | names ->
        List.map
          (fun n ->
            match Suite.app_of_string n with
            | Ok a -> a
            | Error msg ->
                Printf.eprintf "%s\n" msg;
                exit 2)
          names
  in
  let suite_size = [ (apps, nprocs, scale) ] in
  match (faults, crash) with
  | Some spec, _ ->
      check_sizes suite_size;
      if ecsan then
        Printf.eprintf "note: --ecsan does not apply to the fault sweep; ignoring it\n%!";
      run_fault_sweep spec crash scale nprocs apps
  | None, Some _ ->
      (* --crash alone routes to the sweep too: the paper tables assume
         a full-membership run, so node faults only make sense against
         the sweep's per-run verification and availability reporting *)
      check_sizes suite_size;
      run_fault_sweep "" crash scale nprocs apps
  | None, None -> (
      let only = if only = [] then paper else only in
      let suite =
        lazy
          (Printf.eprintf
             "Running the application suite (RT, VM and standalone per application)...\n%!";
           let t0 = Unix.gettimeofday () in
           let suite = Suite.run ~apps ~ecsan ~obs ~nprocs ~scale () in
           Printf.eprintf "...suite complete in %.1f s of host time.\n%!"
             (Unix.gettimeofday () -. t0);
           suite)
      in
      let c = { suite; apps; scale; nprocs } in
      (* an export or table file runs the suite whatever the sections *)
      let exports = List.exists Option.is_some [ csv_file; md_file; trace_out; metrics_out ] in
      check_sizes
        ((if exports then suite_size else [])
        @ List.concat_map (fun (name, s) -> if List.mem name only then s.runs c else []) sections);
      try
        if List.exists (fun s -> List.mem s paper) only then
          Printf.printf
            "Midway write-detection experiments (scale %.2f, %d processors)\n\
             Reproduction of: Software Write Detection for a Distributed Shared Memory (OSDI \
             '94)\n\n"
            scale nprocs;
        List.iter
          (fun (name, s) -> if List.mem name only then print_endline (s.render c))
          sections;
        if trace_out <> None || metrics_out <> None then
          export_obs (Lazy.force suite) trace_out metrics_out;
        Option.iter
          (fun path -> write_file path (Midway_report.Csv.of_suite (Lazy.force suite)))
          csv_file;
        Option.iter
          (fun path -> write_file path (Midway_report.Markdown.of_suite (Lazy.force suite)))
          md_file
      with Failure msg ->
        Printf.eprintf "%s\n" msg;
        exit 1)

open Cmdliner
module Cli = Midway_cli.Cli

let only =
  Arg.(
    value
    & opt (list (enum (List.map (fun (name, _) -> (name, name)) sections))) []
    & info [ "only" ] ~docv:"SECTIONS"
        ~doc:
          ("Comma-separated sections to print, each "
          ^ Arg.doc_alts_enum sections
          ^ ".  Without it the paper's eight tables and figures print.  The others are \
             extensions: $(b,speedup) sweeps 1 to 8 processors per \
             application; $(b,ablations) runs the design-choice ablations of DESIGN.md \
             section 5; $(b,kv) runs the sharded KV store (YCSB A at zipfian 0.99 with \
             bucket migrations) on rt and vm; $(b,hybrid) runs every workload under pure rt, \
             pure vm and the adaptive per-region controller and prints the markdown table \
             of BENCH_hybrid.md.  Every run of every section passes its oracle and the \
             protocol invariants, or the command exits 1."))

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
           0%..5% grid runs), $(b,dup) (probability), $(b,jitter) (ns) and $(b,seed).  \
           Example: $(b,--faults drop=0.02,seed=42).")

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

let cmd =
  let doc = "regenerate the paper's tables and figures" in
  Cmd.v
    (Cmd.info "midway-experiments" ~doc)
    Term.(
      const run $ only $ scale $ nprocs $ apps $ csv_file $ md_file $ faults $ crash_spec
      $ ecsan $ obs)

let () = exit (Cmd.eval cmd)
