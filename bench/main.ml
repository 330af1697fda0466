(* The benchmark harness.

   Three parts:

   1. Bechamel micro-benchmarks of the software analogues of the paper's
      primitive operations (our Table 1, measured on the host) — one
      [Test.make] per primitive, grouped per table.
   2. Regeneration of every table and figure in the paper's evaluation
      (Tables 1-5, Figures 2-4) via the experiment suite.
   3. Ablations of the design choices DESIGN.md calls out: the RT
      trapping organizations of section 3.5, the VM update-log window,
      and the "blast" no-detection strawman.

   Host-time measurement of the simulator itself lives in perfbench/
   (see perfbench/README.md).

   The experiment scale can be set with BENCH_SCALE (default 0.1; use
   1.0 for the paper's problem sizes) and BENCH_NPROCS (default 8). *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Part 1: primitive-operation micro-benchmarks                        *)
(* ------------------------------------------------------------------ *)

module Region = Midway_memory.Region
module Space = Midway_memory.Space
module Diff = Midway_vmem.Diff
module Page_table = Midway_vmem.Page_table

let rt_primitives () =
  let region =
    Region.create ~index:1 ~kind:Region.Shared ~line_size:8 ~region_size:65536 ~nprocs:1
  in
  let db = Midway.Dirtybits.create ~mode:Midway.Config.Plain ~group:64 in
  let base = Region.base region in
  let addr = ref base in
  let dirtybit_set =
    Test.make ~name:"dirtybit-set (word write)"
      (Staged.stage (fun () ->
           Midway.Dirtybits.note_write db ~region ~addr:!addr ~len:8;
           addr := base + ((!addr - base + 8) land 0xFFF)))
  in
  let stamp = ref 2 in
  let scan =
    Test.make ~name:"dirtybit-scan (512 lines)"
      (Staged.stage (fun () ->
           incr stamp;
           ignore
             (Midway.Dirtybits.scan db
                ~region_of:(fun _ -> region)
                ~ranges:[ Midway.Range.v base 4096 ]
                ~stamp:!stamp ~select:(Midway.Dirtybits.Transfer 0)
                ~emit:(fun ~addr:_ ~len:_ ~ts:_ ~fresh:_ ~lines:_ -> ()))))
  in
  let install =
    Test.make ~name:"dirtybit-update (timestamp install)"
      (Staged.stage (fun () ->
           incr stamp;
           Midway.Dirtybits.set_ts db ~region ~addr:base ~ts:!stamp))
  in
  Test.make_grouped ~name:"rt" [ dirtybit_set; scan; install ]

let vm_primitives () =
  let page = Bytes.make 4096 'a' in
  let twin_same = Bytes.copy page in
  let twin_alt = Bytes.copy page in
  for w = 0 to 1023 do
    if w mod 2 = 0 then Bytes.set twin_alt (w * 4) 'b'
  done;
  let pt = Page_table.create ~page_size:4096 in
  let protection_check =
    (* the fast path VM-DSM takes on every instrumented store *)
    Test.make ~name:"protection-check (no fault)"
      (Staged.stage (fun () -> ignore (Page_table.page_of_addr pt 12_345)))
  in
  let fault =
    let pt2 = Page_table.create ~page_size:4096 in
    Test.make ~name:"write-fault (twin + protect)"
      (Staged.stage (fun () ->
           match Page_table.fault_on_write pt2 ~addr:100 ~contents:page with
           | Some p -> Page_table.clean pt2 p
           | None -> assert false))
  in
  let diff_uniform =
    Test.make ~name:"page-diff (uniform)"
      (Staged.stage (fun () -> ignore (Diff.diff ~old_:twin_same ~new_:page ~off:0 ~len:4096)))
  in
  let diff_alternating =
    Test.make ~name:"page-diff (every other word)"
      (Staged.stage (fun () -> ignore (Diff.diff ~old_:twin_alt ~new_:page ~off:0 ~len:4096)))
  in
  let copy =
    Test.make ~name:"page-copy (4 KB twin)"
      (Staged.stage (fun () -> ignore (Bytes.copy page)))
  in
  let twin_compare =
    (* the twin-backend primitive: compare a 4 KB bound range, no
       modifications *)
    let space = Space.create ~nprocs:1 () in
    let a = Space.alloc space ~kind:Region.Shared 4096 in
    let tw = Midway.Twin_state.create () in
    let counters = Midway_stats.Counters.create () in
    Test.make ~name:"twin-compare (4 KB, clean)"
      (Staged.stage (fun () ->
           ignore
             (Midway.Twin_state.collect tw ~space ~proc:0 ~counters
                ~cost:Midway_stats.Cost_model.default ~id:0
                ~ranges:[ Midway.Range.v a 4096 ])))
  in
  Test.make_grouped ~name:"vm"
    [ protection_check; fault; diff_uniform; diff_alternating; copy; twin_compare ]

let substrate_primitives () =
  let heap = Midway_util.Minheap.create () in
  let i = ref 0 in
  let heap_ops =
    Test.make ~name:"event-heap push+pop"
      (Staged.stage (fun () ->
           incr i;
           Midway_util.Minheap.push heap ~key:(!i * 7919 mod 1000) ();
           ignore (Midway_util.Minheap.pop heap)))
  in
  let prng = Midway_util.Prng.create ~seed:1 in
  let prng_ops =
    Test.make ~name:"prng next" (Staged.stage (fun () -> ignore (Midway_util.Prng.bits64 prng)))
  in
  let space = Space.create ~nprocs:1 () in
  let a = Space.alloc space ~kind:Region.Shared 4096 in
  let mem =
    Test.make ~name:"space f64 read+write"
      (Staged.stage (fun () ->
           Space.set_f64 space ~proc:0 a (Space.get_f64 space ~proc:0 a +. 1.0)))
  in
  Test.make_grouped ~name:"substrate" [ heap_ops; prng_ops; mem ]

let run_microbenchmarks () =
  print_endline "=== Part 1: primitive-operation micro-benchmarks (host-native) ===";
  print_endline "(the simulator charges the paper's Table 1 costs; these measure our";
  print_endline " software analogues on this machine)";
  print_newline ();
  let test =
    Test.make_grouped ~name:"primitives"
      [ rt_primitives (); vm_primitives (); substrate_primitives () ]
  in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:(Some 500) () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] test in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> Float.nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort compare
  in
  let t =
    Midway_util.Texttab.create
      ~columns:
        [ ("benchmark", Midway_util.Texttab.Left); ("ns/run", Midway_util.Texttab.Right) ]
  in
  List.iter
    (fun (name, ns) ->
      Midway_util.Texttab.row t [ name; Midway_util.Texttab.fmt_float ~decimals:1 ns ])
    rows;
  print_endline (Midway_util.Texttab.render t)

(* ------------------------------------------------------------------ *)
(* Part 2: the paper's tables and figures                              *)
(* ------------------------------------------------------------------ *)

let run_experiments ~scale ~nprocs =
  Printf.printf "=== Part 2: reproducing the paper's tables and figures (scale %.2f) ===\n\n"
    scale;
  print_endline (Midway_report.Table1.render Midway_stats.Cost_model.default);
  let suite = Midway_report.Suite.run ~nprocs ~scale () in
  print_endline (Midway_report.Fig2.render suite);
  print_endline (Midway_report.Table2.render suite);
  print_endline (Midway_report.Table3.render suite);
  print_endline
    (Midway_report.Sweep.render ~title:"Figure 3: write trapping cost vs page-fault time"
       suite
       (Midway_report.Sweep.trapping_lines suite));
  print_endline (Midway_report.Table4.render suite);
  print_endline
    (Midway_report.Sweep.render
       ~title:"Figure 4: total write detection cost vs page-fault time" suite
       (Midway_report.Sweep.total_lines suite));
  print_endline (Midway_report.Table5.render suite)

(* ------------------------------------------------------------------ *)
(* Part 3: ablations                                                   *)
(* ------------------------------------------------------------------ *)

let ablation_rt_modes ~scale =
  print_endline "=== Part 3a: RT trapping organizations (section 3.5) on sor ===";
  let t =
    Midway_util.Texttab.create
      ~columns:
        [
          ("mode", Midway_util.Texttab.Left);
          ("exec time", Midway_util.Texttab.Right);
          ("trapping", Midway_util.Texttab.Right);
          ("collection", Midway_util.Texttab.Right);
          ("dirtybit reads", Midway_util.Texttab.Right);
        ]
  in
  List.iter
    (fun mode ->
      let cfg =
        { (Midway.Config.make Midway.Config.Rt ~nprocs:8) with Midway.Config.rt_mode = mode }
      in
      let o = Midway_apps.Sor.run cfg (Midway_apps.Sor.scaled scale) in
      assert o.Midway_apps.Outcome.ok;
      let avg = Midway_apps.Outcome.avg_counters o in
      Midway_util.Texttab.row t
        [
          Midway.Config.rt_mode_name mode;
          Midway_util.Units.pp_time (Midway.Runtime.elapsed_ns o.Midway_apps.Outcome.machine);
          Midway_util.Units.pp_time avg.Midway_stats.Counters.trap_time_ns;
          Midway_util.Units.pp_time avg.Midway_stats.Counters.collect_time_ns;
          Midway_util.Texttab.fmt_int
            (avg.Midway_stats.Counters.clean_dirtybits_read
            + avg.Midway_stats.Counters.dirty_dirtybits_read);
        ])
    [ Midway.Config.Plain; Midway.Config.Two_level; Midway.Config.Update_queue ];
  print_endline (Midway_util.Texttab.render t)

let ablation_backends ~scale =
  print_endline "=== Part 3b: detection backends on quicksort (incl. blast strawman) ===";
  let t =
    Midway_util.Texttab.create
      ~columns:
        [
          ("backend", Midway_util.Texttab.Left);
          ("exec time", Midway_util.Texttab.Right);
          ("KB/proc moved", Midway_util.Texttab.Right);
          ("messages", Midway_util.Texttab.Right);
        ]
  in
  List.iter
    (fun backend ->
      let cfg = Midway.Config.make backend ~nprocs:8 in
      let o = Midway_apps.Quicksort.run cfg (Midway_apps.Quicksort.scaled scale) in
      assert o.Midway_apps.Outcome.ok;
      Midway_util.Texttab.row t
        [
          Midway.Config.backend_name backend;
          Midway_util.Units.pp_time (Midway.Runtime.elapsed_ns o.Midway_apps.Outcome.machine);
          Midway_util.Texttab.fmt_float ~decimals:1
            (Midway_apps.Outcome.data_received_kb_per_proc o);
          Midway_util.Texttab.fmt_int
            (Midway_simnet.Net.total_messages
               (Midway.Runtime.net o.Midway_apps.Outcome.machine));
        ])
    [ Midway.Config.Rt; Midway.Config.Vm; Midway.Config.Vm_fine; Midway.Config.Twin; Midway.Config.Blast ];
  print_endline (Midway_util.Texttab.render t)

let ablation_update_log ~scale =
  print_endline "=== Part 3c: VM update-log window (incarnation history) on quicksort ===";
  let t =
    Midway_util.Texttab.create
      ~columns:
        [
          ("window", Midway_util.Texttab.Right);
          ("exec time", Midway_util.Texttab.Right);
          ("KB/proc moved", Midway_util.Texttab.Right);
        ]
  in
  List.iter
    (fun window ->
      let cfg =
        {
          (Midway.Config.make Midway.Config.Vm ~nprocs:8) with
          Midway.Config.update_log_window = window;
        }
      in
      let o = Midway_apps.Quicksort.run cfg (Midway_apps.Quicksort.scaled scale) in
      assert o.Midway_apps.Outcome.ok;
      Midway_util.Texttab.row t
        [
          string_of_int window;
          Midway_util.Units.pp_time (Midway.Runtime.elapsed_ns o.Midway_apps.Outcome.machine);
          Midway_util.Texttab.fmt_float ~decimals:1
            (Midway_apps.Outcome.data_received_kb_per_proc o);
        ])
    [ 1; 4; 16; 64 ];
  print_endline (Midway_util.Texttab.render t)

let ablation_granularity () =
  print_endline
    "=== Part 3d: detection cost vs sharing granularity (256 KB ping-ponged, 3 rounds) ===";
  print_endline
    "(the paper's conclusion: RT overhead does not depend on the granularity of sharing)";
  let t =
    Midway_util.Texttab.create
      ~columns:
        [
          ("items", Midway_util.Texttab.Right);
          ("item size", Midway_util.Texttab.Right);
          ("RT detect (ms)", Midway_util.Texttab.Right);
          ("VM detect (ms)", Midway_util.Texttab.Right);
          ("Twin detect (ms)", Midway_util.Texttab.Right);
        ]
  in
  List.iter
    (fun items ->
      let detect backend =
        let cfg = Midway.Config.make backend ~nprocs:2 in
        let o =
          Midway_apps.Granularity.run cfg { total_bytes = 256 * 1024; items; rounds = 3 }
        in
        assert o.Midway_apps.Outcome.ok;
        let avg = Midway_apps.Outcome.avg_counters o in
        Midway_util.Units.ms_of_ns
          (avg.Midway_stats.Counters.trap_time_ns + avg.Midway_stats.Counters.collect_time_ns)
      in
      Midway_util.Texttab.row t
        [
          string_of_int items;
          Midway_util.Units.pp_bytes (256 * 1024 / items);
          Midway_util.Texttab.fmt_float ~decimals:1 (detect Midway.Config.Rt);
          Midway_util.Texttab.fmt_float ~decimals:1 (detect Midway.Config.Vm);
          Midway_util.Texttab.fmt_float ~decimals:1 (detect Midway.Config.Twin);
        ])
    [ 8; 32; 128; 512; 2048 ];
  print_endline (Midway_util.Texttab.render t)

let ablation_untargetted () =
  print_endline "=== Part 3e: untargetted consistency (section 3.5 'other memory models') ===";
  print_endline
    "(every transfer scans the whole shared space: the two-level and update-queue";
  print_endline " trapping organizations exist for this case)";
  let t =
    Midway_util.Texttab.create
      ~columns:
        [
          ("trapping mode", Midway_util.Texttab.Left);
          ("exec time", Midway_util.Texttab.Right);
          ("trapping", Midway_util.Texttab.Right);
          ("collection", Midway_util.Texttab.Right);
          ("dirtybit reads", Midway_util.Texttab.Right);
        ]
  in
  List.iter
    (fun mode ->
      (* a lock-based microworkload with a large mostly-idle shared space *)
      let cfg =
        {
          (Midway.Config.make Midway.Config.Rt ~nprocs:2) with
          Midway.Config.untargetted = true;
          rt_mode = mode;
        }
      in
      let machine = Midway.Runtime.create cfg in
      let idle = Midway.Runtime.alloc machine (1024 * 1024) in
      ignore idle;
      let hot = Midway.Runtime.alloc machine ~line_size:8 4096 in
      let lock = Midway.Runtime.new_lock machine [ Midway.Range.v hot 4096 ] in
      Midway.Runtime.run machine (fun c ->
          for round = 1 to 20 do
            Midway.Runtime.acquire c lock;
            for w = 0 to 31 do
              Midway.Runtime.write_int c (hot + (w * 8)) ((round * 100) + w)
            done;
            Midway.Runtime.release c lock;
            Midway.Runtime.work_ns c (1_000 * (Midway.Runtime.id c + 1))
          done);
      let avg = Midway_stats.Counters.average (Midway.Runtime.all_counters machine) in
      Midway_util.Texttab.row t
        [
          Midway.Config.rt_mode_name mode;
          Midway_util.Units.pp_time (Midway.Runtime.elapsed_ns machine);
          Midway_util.Units.pp_time avg.Midway_stats.Counters.trap_time_ns;
          Midway_util.Units.pp_time avg.Midway_stats.Counters.collect_time_ns;
          Midway_util.Texttab.fmt_int
            (avg.Midway_stats.Counters.clean_dirtybits_read
            + avg.Midway_stats.Counters.dirty_dirtybits_read);
        ])
    [ Midway.Config.Plain; Midway.Config.Two_level; Midway.Config.Update_queue ];
  print_endline (Midway_util.Texttab.render t)

let ablation_water_styles ~scale =
  print_endline "=== Part 3f: water synchronization styles (barrier phases vs molecule locks) ===";
  let t =
    Midway_util.Texttab.create
      ~columns:
        [
          ("style", Midway_util.Texttab.Left);
          ("backend", Midway_util.Texttab.Left);
          ("exec time", Midway_util.Texttab.Right);
          ("KB/proc moved", Midway_util.Texttab.Right);
          ("remote acquires", Midway_util.Texttab.Right);
        ]
  in
  List.iter
    (fun (style, style_name) ->
      List.iter
        (fun backend ->
          let cfg = Midway.Config.make backend ~nprocs:8 in
          let p = Midway_apps.Water.scaled scale in
          let o = Midway_apps.Water.run cfg { p with Midway_apps.Water.sync = style } in
          assert o.Midway_apps.Outcome.ok;
          let avg = Midway_apps.Outcome.avg_counters o in
          Midway_util.Texttab.row t
            [
              style_name;
              Midway.Config.backend_name backend;
              Midway_util.Units.pp_time
                (Midway.Runtime.elapsed_ns o.Midway_apps.Outcome.machine);
              Midway_util.Texttab.fmt_float ~decimals:1
                (Midway_apps.Outcome.data_received_kb_per_proc o);
              Midway_util.Texttab.fmt_int avg.Midway_stats.Counters.lock_acquires_remote;
            ])
        [ Midway.Config.Rt; Midway.Config.Vm ])
    [
      (Midway_apps.Water.Barrier_phases, "barrier-phases");
      (Midway_apps.Water.Molecule_locks, "molecule-locks");
    ];
  print_endline (Midway_util.Texttab.render t)

let () =
  let scale =
    match Sys.getenv_opt "BENCH_SCALE" with Some s -> float_of_string s | None -> 0.1
  in
  let nprocs =
    match Sys.getenv_opt "BENCH_NPROCS" with Some s -> int_of_string s | None -> 8
  in
  run_microbenchmarks ();
  run_experiments ~scale ~nprocs;
  ablation_rt_modes ~scale;
  ablation_backends ~scale;
  ablation_update_log ~scale;
  ablation_granularity ();
  ablation_untargetted ();
  ablation_water_styles ~scale
