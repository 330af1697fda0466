(* Deterministic behavioral fingerprint of the simulator.

   Runs the five applications across every detection backend (and every
   RT trapping organization) and prints the simulated elapsed time plus
   every per-processor counter, one line per processor.  The output is a
   pure function of the simulated machine: any host-side optimization of
   the simulator's hot paths must leave it byte-identical.

   Usage:
     midway-fingerprint [--scale F] [--nprocs N]

   Capture before and after a perf change and diff:
     dune exec bin/fingerprint.exe > before.txt
     ... optimize ...
     dune exec bin/fingerprint.exe > after.txt && diff before.txt after.txt *)

module Config = Midway.Config
module Counters = Midway_stats.Counters

let counter_fields (c : Counters.t) =
  [
    ("set", c.Counters.dirtybits_set);
    ("mis", c.Counters.dirtybits_misclassified);
    ("rdc", c.Counters.clean_dirtybits_read);
    ("rdd", c.Counters.dirty_dirtybits_read);
    ("upd", c.Counters.dirtybits_updated);
    ("flt", c.Counters.write_faults);
    ("dif", c.Counters.pages_diffed);
    ("pro", c.Counters.pages_write_protected);
    ("twu", c.Counters.twin_update_bytes);
    ("twc", c.Counters.twin_compare_bytes);
    ("rxb", c.Counters.data_received_bytes);
    ("txb", c.Counters.data_sent_bytes);
    ("msg", c.Counters.messages);
    ("bnd", c.Counters.bound_bytes_scanned);
    ("dty", c.Counters.dirty_bytes_found);
    ("lkl", c.Counters.lock_acquires_local);
    ("lkr", c.Counters.lock_acquires_remote);
    ("bar", c.Counters.barrier_crossings);
    ("tns", c.Counters.trap_time_ns);
    ("cns", c.Counters.collect_time_ns);
    ("rtx", c.Counters.retransmits);
    ("drp", c.Counters.drops_observed);
    ("dup", c.Counters.duplicates_suppressed);
    ("bkf", c.Counters.backoff_time_ns);
  ]

let print_outcome label (o : Midway_apps.Outcome.t) =
  let machine = o.Midway_apps.Outcome.machine in
  Printf.printf "%s ok=%b elapsed=%d\n" label o.Midway_apps.Outcome.ok
    (Midway.Runtime.elapsed_ns machine);
  Array.iteri
    (fun i c ->
      Printf.printf "  p%d %s\n" i
        (String.concat " "
           (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) (counter_fields c))))
    (Midway.Runtime.all_counters machine)

let run scale nprocs =
  Printf.printf "fingerprint scale=%.3f nprocs=%d\n" scale nprocs;
  let rt_mode_cfgs =
    List.map
      (fun mode ->
        ( "rt-" ^ Config.rt_mode_name mode,
          { (Config.make Config.Rt ~nprocs) with Config.rt_mode = mode } ))
      [ Config.Plain; Config.Two_level; Config.Update_queue ]
  in
  let backend_cfgs =
    List.map
      (fun backend -> (Config.backend_name backend, Config.make backend ~nprocs))
      [ Config.Vm; Config.Twin; Config.Vm_fine ]
  in
  let faulted name cfg = (name ^ "+faults", Config.with_faults ~drop:0.02 ~seed:42 cfg) in
  List.iter
    (fun app ->
      let name = Midway_report.Suite.app_name app in
      List.iter
        (fun (cname, cfg) ->
          print_outcome
            (Printf.sprintf "%s/%s" name cname)
            (Midway_report.Suite.run_app app cfg ~scale))
        (rt_mode_cfgs @ backend_cfgs
        @ [
            ("standalone", Config.make Config.Standalone ~nprocs:1);
            faulted "rt-plain" (Config.make Config.Rt ~nprocs);
            faulted "vm" (Config.make Config.Vm ~nprocs);
          ]))
    Midway_report.Suite.apps;
  (* Blast has no write detection at all: lock-bound data only, so only
     the lock-based application runs under it. *)
  print_outcome "quicksort/blast"
    (Midway_report.Suite.run_app Midway_report.Suite.Quicksort
       (Config.make Config.Blast ~nprocs)
       ~scale)

open Cmdliner
module Cli = Midway_cli.Cli

let cmd =
  Cmd.v
    (Cmd.info "midway-fingerprint"
       ~doc:"print the simulated time and every counter of every scheme's runs")
    Term.(
      const run
      $ Cli.scale ~names:[ "scale" ] ~doc:"Application problem scale." 0.1
      $ Cli.nprocs ~names:[ "nprocs" ] ~doc:"Simulated processors." 8)

let () = exit (Cmd.eval cmd)
