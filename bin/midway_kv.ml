(* Drive the sharded KV store with a YCSB-style open-loop workload and
   report throughput and latency percentiles, checked end to end by the
   refinement oracle.

   Usage:
     midway-kv --backend rt --nprocs 4 --keys 1024 --buckets 32 \
               --requests 1000000 --workload a --theta 0.99
     midway-kv --migrate-every 50 --crash 'stop@2ms:p1'
     midway-kv --obs --trace-out kv.json --metrics-out kv-metrics.json

   Exit status: 1 on a refinement violation or (with --ecsan) a
   sanitizer finding, 0 otherwise. *)

module Config = Midway.Config
module R = Midway.Runtime
module Metrics = Midway_obs.Metrics
module Kvstore = Midway_kv.Kvstore
module Ycsb = Midway_explore.Ycsb
module Kv_workload = Midway_explore.Kv_workload

let die fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 2) fmt

(* Merge one metric's histograms across labels (identical layouts — one
   metric name has one bucket spec) for the all-operations row. *)
let merged_hist snap ~name =
  let views =
    List.filter_map (fun l -> Metrics.find_hist snap ~name ~label:l) (Metrics.labels_of snap ~name)
  in
  match views with
  | [] -> None
  | first :: rest ->
      Some
        (List.fold_left
           (fun (acc : Metrics.hist_view) (h : Metrics.hist_view) ->
             {
               acc with
               Metrics.h_counts = Array.mapi (fun i c -> c + h.Metrics.h_counts.(i)) acc.Metrics.h_counts;
               h_sum = acc.Metrics.h_sum + h.Metrics.h_sum;
               h_count = acc.Metrics.h_count + h.Metrics.h_count;
               h_min = min acc.Metrics.h_min h.Metrics.h_min;
               h_max = max acc.Metrics.h_max h.Metrics.h_max;
             })
           first rest)

let latency_row label (h : Metrics.hist_view) =
  Printf.printf "  %-8s %9d  %9.1f  %9d  %9d  %9d  %9d\n" label h.Metrics.h_count
    (float_of_int h.Metrics.h_sum /. float_of_int (max 1 h.Metrics.h_count))
    (Metrics.quantile_le h 0.50) (Metrics.quantile_le h 0.95) (Metrics.quantile_le h 0.99)
    h.Metrics.h_max

let run backend_name nprocs keys buckets requests workload_name dist_name theta arrival_ns
    max_scan seed service_ns preload migrate_every broken crash_spec ecsan
    { Midway_cli.Cli.obs; trace_out; metrics_out } =
  let backend =
    match Config.backend_of_string backend_name with Ok b -> b | Error msg -> die "%s" msg
  in
  if backend = Config.Standalone then die "midway-kv needs a distributed backend";
  if keys mod buckets <> 0 then die "--buckets %d must divide --keys %d" buckets keys;
  if requests mod nprocs <> 0 then
    die "--requests %d must be a multiple of --nprocs %d (requests are split evenly)" requests
      nprocs;
  let mix =
    match String.lowercase_ascii workload_name with
    | "a" -> Ycsb.mix_a
    | "b" -> Ycsb.mix_b
    | "c" -> Ycsb.mix_c
    | "e" -> Ycsb.mix_e
    | "crud" -> Ycsb.mix_crud
    | s -> die "unknown workload mix %S (expected a|b|c|e|crud)" s
  in
  let dist =
    match String.lowercase_ascii dist_name with
    | "uniform" -> Ycsb.Uniform
    | "zipfian" -> Ycsb.Zipfian theta
    | "scrambled" -> Ycsb.Scrambled_zipfian theta
    | s -> die "unknown distribution %S (expected uniform|zipfian|scrambled)" s
  in
  let arrival = if arrival_ns = 0 then Ycsb.Closed else Ycsb.Poisson arrival_ns in
  let per_client = requests / nprocs in
  let preload =
    match preload with
    | None -> keys / 2
    | Some p when p > keys -> die "--preload %d exceeds --keys %d" p keys
    | Some p -> p
  in
  let cfg = { (Config.make backend ~nprocs) with Config.ecsan; obs } in
  let cfg =
    match Midway_cli.Cli.crash_plan ~nprocs crash_spec with
    | None -> cfg
    | Some plan -> Config.with_crash plan cfg
  in
  (match R.validate cfg with Ok () -> () | Error msg -> die "%s" msg);
  let kv_cfg =
    {
      Kv_workload.ycsb =
        { Ycsb.keys; requests = per_client; mix; dist; arrival; max_scan; seed };
      buckets;
      service_ns;
      preload;
      migrate_every;
      broken_migration = broken;
    }
  in
  let machine = R.create cfg in
  let store, prog = Kv_workload.build machine kv_cfg in
  let t0 = Unix.gettimeofday () in
  R.run machine prog;
  let host = Unix.gettimeofday () -. t0 in
  let elapsed = R.elapsed_ns machine in
  let n_req = Kvstore.request_count store in
  Printf.printf "workload            : %s, %s, %d clients x %d requests, %d keys / %d buckets\n"
    (Ycsb.mix_name mix) dist_name nprocs per_client keys buckets;
  Printf.printf "backend             : %s\n" backend_name;
  Printf.printf "simulated time      : %s\n" (Midway_util.Units.pp_time elapsed);
  Printf.printf "requests completed  : %d\n" n_req;
  Printf.printf "throughput          : %.0f req/s (simulated)\n"
    (float_of_int n_req /. (float_of_int (max 1 elapsed) /. 1e9));
  Printf.printf "host time           : %.2f s (%.0f req/s)\n" host (float_of_int n_req /. host);
  let snap = Metrics.snapshot (Kvstore.metrics store) in
  Printf.printf "\nsojourn latency (ns, p* are bucket upper bounds):\n";
  Printf.printf "  %-8s %9s  %9s  %9s  %9s  %9s  %9s\n" "op" "count" "mean" "p50" "p95" "p99"
    "max";
  (match merged_hist snap ~name:"kv_latency_ns" with
  | Some h -> latency_row "all" h
  | None -> ());
  List.iter
    (fun label ->
      match Metrics.find_hist snap ~name:"kv_latency_ns" ~label with
      | Some h -> latency_row label h
      | None -> ())
    (Metrics.labels_of snap ~name:"kv_latency_ns");
  (match (R.killed_procs machine, cfg.Config.crash) with
  | [], None -> ()
  | killed, _ ->
      Printf.printf "\ncrashed processors  : %s\n"
        (if killed = [] then "none"
         else String.concat "," (List.map (Printf.sprintf "p%d") killed));
      Printf.printf "quorum failovers    : %d\n" (R.failover_count machine);
      Printf.printf "availability        : %.2f\n" (R.availability machine));
  (* exports *)
  (match R.obs machine with
  | None -> ()
  | Some o ->
      let run_name = Printf.sprintf "kv/%s n=%d" backend_name nprocs in
      (match trace_out with
      | Some file ->
          Midway_obs.Trace_export.write file
            (Midway_obs.Trace_export.to_json ~name:run_name (Midway_obs.Obs.spans o));
          Printf.printf "\nwrote %d span(s) to %s\n" (Midway_obs.Obs.span_count o) file
      | None -> ());
      match metrics_out with
      | Some file ->
          let machine_snap = Metrics.snapshot (Midway_obs.Obs.metrics o) in
          Midway_obs.Trace_export.write file
            (Midway_util.Json.Obj
               [ ("machine", Metrics.to_json machine_snap); ("kv", Metrics.to_json snap) ]);
          Printf.printf "wrote metrics to %s\n" file
      | None -> ());
  (* the refinement oracle *)
  let violations = Kvstore.check store in
  (match violations with
  | [] -> Printf.printf "\nrefinement oracle   : ok (%d observation(s) linearized)\n"
            (Array.length (Kvstore.observations store))
  | v ->
      Printf.printf "\nrefinement oracle   : %d violation(s)\n" (List.length v);
      List.iteri (fun i msg -> if i < 10 then Printf.printf "  %s\n" msg) v);
  let invariants = R.check_invariants machine in
  if invariants <> [] then begin
    Printf.printf "invariant violations:\n";
    List.iter (Printf.printf "  %s\n") invariants
  end;
  let ecsan_bad =
    if ecsan then begin
      let rep = R.check_report machine in
      print_string (Midway_check.Report.render rep);
      Midway_check.Report.has_violations rep
    end
    else false
  in
  if violations <> [] || invariants <> [] || ecsan_bad then exit 1

open Cmdliner
module Cli = Midway_cli.Cli

let backend =
  Arg.(
    value & opt string "rt"
    & info [ "backend"; "b" ] ~docv:"BACKEND"
        ~doc:
          ("Write-detection backend: "
          ^ String.concat ", " (List.filter (( <> ) "standalone") Config.backend_names)
          ^ "."))

let keys = Arg.(value & opt Cli.positive 1024 & info [ "keys" ] ~docv:"K" ~doc:"Keyspace size.")

let buckets =
  Arg.(
    value & opt Cli.positive 32 & info [ "buckets" ] ~docv:"B" ~doc:"Shards (must divide --keys).")

let requests =
  Arg.(
    value & opt Cli.positive 20_000
    & info [ "requests" ] ~docv:"R"
        ~doc:"Total requests, split evenly across clients (a multiple of --nprocs).")

let workload =
  Arg.(
    value & opt string "a"
    & info [ "workload"; "w" ] ~docv:"MIX"
        ~doc:
          "Operation mix: $(b,a) (50/50 get/put), $(b,b) (95/5), $(b,c) (read-only), $(b,e) \
           (95% scan), $(b,crud) (70/20/5/5 get/put/delete/scan).")

let dist =
  Arg.(
    value & opt string "zipfian"
    & info [ "dist" ] ~docv:"D"
        ~doc:"Key popularity: uniform, zipfian (rank-ordered) or scrambled (hashed ranks).")

let theta =
  let skew =
    Cli.bounded Arg.float ~ok:(fun x -> x > 0. && x < 1.) ~expect:"expected a number in (0, 1)"
  in
  Arg.(
    value & opt skew 0.99
    & info [ "theta" ] ~docv:"T" ~doc:"Zipfian skew in (0, 1); YCSB's default is 0.99.")

let arrival_ns =
  Arg.(
    value & opt Cli.non_negative 2_000
    & info [ "arrival-ns" ] ~docv:"NS"
        ~doc:
          "Mean Poisson inter-arrival per client (open loop: latency counts from the \
           schedule).  0 = closed loop.")

let max_scan =
  Arg.(
    value & opt Cli.positive 16
    & info [ "max-scan" ] ~docv:"L" ~doc:"Scan lengths uniform in [1, L].")

let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"Workload seed.")

let service_ns =
  Arg.(
    value & opt Cli.non_negative 300
    & info [ "service-ns" ] ~docv:"NS" ~doc:"Simulated service time inside each critical section.")

let preload =
  Arg.(
    value
    & opt (some Cli.non_negative) None
    & info [ "preload" ] ~docv:"P"
        ~doc:"Keys preloaded before the run, at most $(b,--keys) (default: half of them).")

let migrate_every =
  Arg.(
    value & opt Cli.non_negative 0
    & info [ "migrate-every" ] ~docv:"M"
        ~doc:
          "Each client re-homes one bucket to itself (by lock re-binding) after every M-th \
           request.  0 = never.")

let broken =
  Arg.(
    value & flag
    & info [ "broken-migration" ]
        ~doc:"Demo bug: migrations drop the presence flags (the oracle must catch it).")

let cmd =
  let doc = "YCSB-style open-loop benchmark of the sharded KV store over Midway EC" in
  Cmd.v (Cmd.info "midway-kv" ~doc)
    Term.(
      const run $ backend
      $ Cli.nprocs ~doc:"Client processors." 4
      $ keys $ buckets $ requests $ workload $ dist $ theta $ arrival_ns $ max_scan $ seed
      $ service_ns $ preload $ migrate_every $ broken
      $ Cli.crash
          ~doc:
            "Arm node-level faults: scripted ($(i,stop@2ms:p1)) or seeded ($(i,n=1,seed=7)); \
             the store's buckets fail over by majority quorum and the oracle checks the \
             survivors' view."
      $ Cli.ecsan ~doc:"Run under the entry-consistency sanitizer."
      $ Cli.obs
          ~doc:
            "Arm the observability layer: per-request spans on the simulated timeline.  Implied \
             by $(b,--trace-out) / $(b,--metrics-out)."
          ~trace_doc:"Write protocol + kv_request spans as Chrome trace-event JSON to $(docv)."
          ~metrics_doc:
            "Write the machine and store registries as JSON ($(i,{\"machine\": .., \"kv\": ..})) \
             to $(docv).")

let () = exit (Cmd.eval cmd)
