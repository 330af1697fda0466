module Config = Midway.Config
module Counters = Midway_stats.Counters
module Outcome = Midway_apps.Outcome
module Runtime = Midway.Runtime
module Texttab = Midway_util.Texttab
module Units = Midway_util.Units

(* [title] is the heading line followed by any notes. *)
type table = {
  title : string list;
  columns : (string * Texttab.align) list;
  rows : string list list;
}

let run f cfg = Suite.check (f cfg)
let exec_time o = Units.pp_time (Runtime.elapsed_ns o.Outcome.machine)
let kb_moved o = Texttab.fmt_float ~decimals:1 (Outcome.data_received_kb_per_proc o)

(* where an RT trapping organization spends its time *)
let rt_cost_columns =
  [
    ("exec time", Texttab.Right);
    ("trapping", Texttab.Right);
    ("collection", Texttab.Right);
    ("dirtybit reads", Texttab.Right);
  ]

let rt_costs o =
  let avg = Outcome.avg_counters o in
  [
    exec_time o;
    Units.pp_time avg.Counters.trap_time_ns;
    Units.pp_time avg.Counters.collect_time_ns;
    Texttab.fmt_int (avg.Counters.clean_dirtybits_read + avg.Counters.dirty_dirtybits_read);
  ]

let rt_modes = [ Config.Plain; Config.Two_level; Config.Update_queue ]

(* A lock-based microworkload over a large, mostly idle shared space: two
   processors take turns rewriting 32 words of a 4 KB hot region, 20
   rounds each.  The last holder must end with its own final round. *)
let untargetted cfg =
  let machine = Runtime.create cfg in
  ignore (Runtime.alloc machine (1024 * 1024));
  let hot = Runtime.alloc machine ~line_size:8 4096 in
  let lock = Runtime.new_lock machine [ Midway.Range.v hot 4096 ] in
  let rounds = 20 and words = 32 in
  Runtime.run machine (fun c ->
      for round = 1 to rounds do
        Runtime.acquire c lock;
        for w = 0 to words - 1 do
          Runtime.write_int c (hot + (w * 8)) ((round * 100) + w)
        done;
        Runtime.release c lock;
        Runtime.work_ns c (1_000 * (Runtime.id c + 1))
      done);
  let final w =
    Midway_apps.Common.read_int_direct machine ~proc:lock.Midway.Sync.owner (hot + (w * 8))
  in
  let ok = List.for_all (fun w -> final w = (rounds * 100) + w) (List.init words Fun.id) in
  Outcome.v ~app:"untargetted" ~machine ~ok ~notes:[]

let tables ~scale ~nprocs =
  let make backend = Config.make backend ~nprocs in
  let sor cfg = Midway_apps.Sor.run cfg (Midway_apps.Sor.scaled scale) in
  let quicksort cfg = Midway_apps.Quicksort.run cfg (Midway_apps.Quicksort.scaled scale) in
  [
    {
      title = [ "Ablation: RT trapping organizations (section 3.5) on sor" ];
      columns = ("mode", Texttab.Left) :: rt_cost_columns;
      rows =
        List.map
          (fun mode ->
            Config.rt_mode_name mode
            :: rt_costs (run sor { (make Config.Rt) with Config.rt_mode = mode }))
          rt_modes;
    };
    {
      title = [ "Ablation: detection backends on quicksort (incl. blast strawman)" ];
      columns =
        [
          ("backend", Texttab.Left);
          ("exec time", Texttab.Right);
          ("KB/proc moved", Texttab.Right);
          ("messages", Texttab.Right);
        ];
      rows =
        List.map
          (fun backend ->
            let o = run quicksort (make backend) in
            [
              Config.backend_name backend;
              exec_time o;
              kb_moved o;
              Texttab.fmt_int (Midway_simnet.Net.total_messages (Runtime.net o.Outcome.machine));
            ])
          [ Config.Rt; Config.Vm; Config.Vm_fine; Config.Twin; Config.Blast ];
    };
    {
      title = [ "Ablation: VM update-log window (incarnation history) on quicksort" ];
      columns =
        [
          ("window", Texttab.Right);
          ("exec time", Texttab.Right);
          ("KB/proc moved", Texttab.Right);
        ];
      rows =
        List.map
          (fun window ->
            let o = run quicksort { (make Config.Vm) with Config.update_log_window = window } in
            [ string_of_int window; exec_time o; kb_moved o ])
          [ 1; 4; 16; 64 ];
    };
    {
      title =
        [
          "Ablation: detection cost vs sharing granularity (256 KB ping-ponged, 3 rounds)";
          "(the paper's conclusion: RT overhead does not depend on the granularity of sharing)";
        ];
      columns =
        [
          ("items", Texttab.Right);
          ("item size", Texttab.Right);
          ("RT detect (ms)", Texttab.Right);
          ("VM detect (ms)", Texttab.Right);
          ("Twin detect (ms)", Texttab.Right);
        ];
      rows =
        List.map
          (fun items ->
            let detect backend =
              let o =
                run
                  (fun cfg ->
                    Midway_apps.Granularity.run cfg
                      { total_bytes = 256 * 1024; items; rounds = 3 })
                  (Config.make backend ~nprocs:2)
              in
              let avg = Outcome.avg_counters o in
              Texttab.fmt_float ~decimals:1
                (Units.ms_of_ns (avg.Counters.trap_time_ns + avg.Counters.collect_time_ns))
            in
            [
              string_of_int items;
              Units.pp_bytes (256 * 1024 / items);
              detect Config.Rt;
              detect Config.Vm;
              detect Config.Twin;
            ])
          [ 8; 32; 128; 512; 2048 ];
    };
    {
      title =
        [
          "Ablation: untargetted consistency (section 3.5 'other memory models')";
          "(every transfer scans the whole shared space: the two-level and update-queue";
          " trapping organizations exist for this case)";
        ];
      columns = ("trapping mode", Texttab.Left) :: rt_cost_columns;
      rows =
        List.map
          (fun mode ->
            Config.rt_mode_name mode
            :: rt_costs
                 (run untargetted
                    {
                      (Config.make Config.Rt ~nprocs:2) with
                      Config.untargetted = true;
                      rt_mode = mode;
                    }))
          rt_modes;
    };
    {
      title = [ "Ablation: water synchronization styles (barrier phases vs molecule locks)" ];
      columns =
        [
          ("style", Texttab.Left);
          ("backend", Texttab.Left);
          ("exec time", Texttab.Right);
          ("KB/proc moved", Texttab.Right);
          ("remote acquires", Texttab.Right);
        ];
      rows =
        List.concat_map
          (fun (sync, style) ->
            List.map
              (fun backend ->
                let water cfg =
                  Midway_apps.Water.run cfg
                    { (Midway_apps.Water.scaled scale) with Midway_apps.Water.sync }
                in
                let o = run water (make backend) in
                [
                  style;
                  Config.backend_name backend;
                  exec_time o;
                  kb_moved o;
                  Texttab.fmt_int (Outcome.avg_counters o).Counters.lock_acquires_remote;
                ])
              [ Config.Rt; Config.Vm ])
          [
            (Midway_apps.Water.Barrier_phases, "barrier-phases");
            (Midway_apps.Water.Molecule_locks, "molecule-locks");
          ];
    };
  ]

let render_table t =
  let tab = Texttab.create ~columns:t.columns in
  List.iter (Texttab.row tab) t.rows;
  String.concat "\n" t.title ^ "\n" ^ Texttab.render tab

let render ~scale ~nprocs = String.concat "\n" (List.map render_table (tables ~scale ~nprocs))
