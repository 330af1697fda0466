(* Tests for the cost model (Table 1 constants and the derived-cost
   formulas behind Tables 3-5) and the per-processor counters. *)

module Cost_model = Midway_stats.Cost_model
module Counters = Midway_stats.Counters
module Derived = Midway_stats.Derived

let qtest = QCheck_alcotest.to_alcotest

(* --- Cost_model -------------------------------------------------------- *)

let test_default_matches_paper () =
  let cm = Cost_model.default in
  Alcotest.(check int) "cycle (25 MHz)" 40 cm.cycle_ns;
  Alcotest.(check int) "dirtybit set = 360 ns (9 cycles)" 360 cm.dirtybit_set_ns;
  Alcotest.(check int) "private set = 240 ns (6 cycles)" 240 cm.dirtybit_set_private_ns;
  Alcotest.(check int) "clean read = 217 ns" 217 cm.dirtybit_read_clean_ns;
  Alcotest.(check int) "dirty read = 187 ns" 187 cm.dirtybit_read_dirty_ns;
  Alcotest.(check int) "dirtybit update = 67 ns" 67 cm.dirtybit_update_ns;
  Alcotest.(check int) "page fault = 1,200 us" 1_200_000 cm.page_fault_ns;
  Alcotest.(check int) "uniform diff = 260 us" 260_000 cm.page_diff_uniform_ns;
  Alcotest.(check int) "alternating diff = 1,870 us" 1_870_000 cm.page_diff_alternating_ns;
  Alcotest.(check int) "protect rw = 125 us" 125_000 cm.page_protect_rw_ns;
  Alcotest.(check int) "protect ro = 127 us" 127_000 cm.page_protect_ro_ns;
  Alcotest.(check int) "copy cold = 84 us/KB" 84_000 cm.copy_kb_cold_ns;
  Alcotest.(check int) "copy warm = 26 us/KB" 26_000 cm.copy_kb_warm_ns;
  Alcotest.(check int) "page = 4 KB" 4096 cm.page_size

let test_with_page_fault_us () =
  let cm = Cost_model.with_page_fault_us Cost_model.default 122.0 in
  Alcotest.(check int) "fast exceptions" 122_000 cm.page_fault_ns;
  (* only the fault cost changes *)
  Alcotest.(check int) "diff untouched" 260_000 cm.page_diff_uniform_ns

let test_diff_cost_endpoints () =
  let cm = Cost_model.default in
  let words = cm.page_size / 4 in
  Alcotest.(check int) "uniform page" 260_000 (Cost_model.diff_cost_ns cm ~words ~transitions:0);
  Alcotest.(check int) "alternating page" 1_870_000
    (Cost_model.diff_cost_ns cm ~words ~transitions:words);
  Alcotest.(check int) "empty diff free" 0 (Cost_model.diff_cost_ns cm ~words:0 ~transitions:0);
  (* half a page with no transitions costs half the uniform diff *)
  Alcotest.(check int) "scales with page fraction" 130_000
    (Cost_model.diff_cost_ns cm ~words:(words / 2) ~transitions:0)

let diff_cost_monotone =
  QCheck.Test.make ~name:"diff cost grows with transitions" ~count:200
    QCheck.(pair (int_bound 1023) (int_bound 1023))
    (fun (a, b) ->
      let cm = Cost_model.default in
      let words = cm.page_size / 4 in
      let lo = min a b and hi = max a b in
      Cost_model.diff_cost_ns cm ~words ~transitions:lo
      <= Cost_model.diff_cost_ns cm ~words ~transitions:hi)

let test_copy_cost () =
  let cm = Cost_model.default in
  Alcotest.(check int) "1 KB warm" 26_000 (Cost_model.copy_cost_ns cm ~bytes:1024 ~warm:true);
  Alcotest.(check int) "1 KB cold" 84_000 (Cost_model.copy_cost_ns cm ~bytes:1024 ~warm:false);
  Alcotest.(check int) "4 KB page warm" 104_000
    (Cost_model.copy_cost_ns cm ~bytes:4096 ~warm:true)

(* --- Counters ----------------------------------------------------------- *)

let test_counters_add_average () =
  let a = Counters.create () and b = Counters.create () in
  a.Counters.dirtybits_set <- 10;
  a.Counters.data_received_bytes <- 100;
  b.Counters.dirtybits_set <- 30;
  b.Counters.data_received_bytes <- 300;
  let total = Counters.total [| a; b |] in
  Alcotest.(check int) "total sets" 40 total.Counters.dirtybits_set;
  let avg = Counters.average [| a; b |] in
  Alcotest.(check int) "avg sets" 20 avg.Counters.dirtybits_set;
  Alcotest.(check int) "avg bytes" 200 avg.Counters.data_received_bytes;
  (* inputs untouched *)
  Alcotest.(check int) "a unchanged" 10 a.Counters.dirtybits_set

let test_percent_dirty () =
  let a = Counters.create () in
  Alcotest.(check (float 1e-9)) "no scans" 0.0 (Counters.percent_dirty_data a);
  a.Counters.bound_bytes_scanned <- 1000;
  a.Counters.dirty_bytes_found <- 557;
  Alcotest.(check (float 1e-9)) "ratio" 55.7 (Counters.percent_dirty_data a)

let test_average_empty () =
  let avg = Counters.average [||] in
  Alcotest.(check int) "zero" 0 avg.Counters.dirtybits_set

(* --- Derived: the Tables 3-5 formulas, checked against the paper's own
   worked example (water) --------------------------------------------- *)

let water_rt () =
  let c = Counters.create () in
  c.Counters.dirtybits_set <- 43_180;
  c.Counters.clean_dirtybits_read <- 48_552;
  c.Counters.dirty_dirtybits_read <- 11_280;
  c.Counters.dirtybits_updated <- 35_676;
  c

let water_vm () =
  let c = Counters.create () in
  c.Counters.write_faults <- 258;
  c.Counters.pages_diffed <- 253;
  c.Counters.pages_write_protected <- 253;
  c.Counters.twin_update_bytes <- 976 * 1024;
  c

let test_table3_water () =
  (* Paper: "each processor set 43,180 dirtybits ... for a total time of
     16 msecs; ... 258 write faults ... for a total time of 310 msecs." *)
  let d = Derived.trapping Cost_model.default ~rt:(water_rt ()) ~vm:(water_vm ()) in
  Alcotest.(check int) "RT trapping = counts x 360 ns" (43_180 * 360) d.Derived.rt_ns;
  Alcotest.(check int) "VM trapping = faults x 1.2 ms" (258 * 1_200_000) d.Derived.vm_ns;
  Alcotest.(check bool) "RT ~ 15.6 ms" true
    (let ms = float_of_int d.Derived.rt_ns /. 1e6 in
     ms > 15.0 && ms < 16.0);
  Alcotest.(check bool) "VM ~ 310 ms" true
    (let ms = float_of_int d.Derived.vm_ns /. 1e6 in
     ms > 309.0 && ms < 310.0)

let test_table4_water () =
  let d = Derived.collection Cost_model.default ~rt:(water_rt ()) ~vm:(water_vm ()) in
  let ms ns = float_of_int ns /. 1e6 in
  (* Paper Table 4, water column: 10.5 / 2.0 / 2.4 => 14.9; 65.8 / 32.1 /
     25.4 => 123.3. *)
  Alcotest.(check bool) "clean reads ~10.5" true (abs_float (ms d.Derived.rt_clean_reads_ns -. 10.5) < 0.1);
  Alcotest.(check bool) "dirty reads ~2.1" true (abs_float (ms d.Derived.rt_dirty_reads_ns -. 2.1) < 0.1);
  Alcotest.(check bool) "updates ~2.4" true (abs_float (ms d.Derived.rt_updates_ns -. 2.4) < 0.1);
  Alcotest.(check bool) "rt total ~14.9" true (abs_float (ms d.Derived.rt_total_ns -. 14.9) < 0.2);
  Alcotest.(check bool) "diff ~65.8" true (abs_float (ms d.Derived.vm_diff_ns -. 65.8) < 0.1);
  Alcotest.(check bool) "protect ~32.1" true (abs_float (ms d.Derived.vm_protect_ns -. 32.1) < 0.1);
  Alcotest.(check bool) "twin ~25.4" true (abs_float (ms d.Derived.vm_twin_update_ns -. 25.4) < 0.1);
  Alcotest.(check bool) "vm total ~123.3" true (abs_float (ms d.Derived.vm_total_ns -. 123.3) < 0.3)

let test_table5_water () =
  let d = Derived.references Cost_model.default ~rt:(water_rt ()) ~vm:(water_vm ()) in
  (* Paper Table 5, water: RT 43/96 (we compute 95.5k), VM 510 (we
     compute 528k: 258 faults x 2048 refs) / 768. *)
  Alcotest.(check int) "rt trap refs" 43_180 d.Derived.rt_trap_refs;
  Alcotest.(check int) "rt collect refs" (48_552 + 11_280 + 35_676) d.Derived.rt_collect_refs;
  Alcotest.(check int) "vm trap refs" (258 * 2 * 1024) d.Derived.vm_trap_refs;
  Alcotest.(check int) "vm collect refs"
    ((253 * 2 * 1024) + (976 * 1024 / 4))
    d.Derived.vm_collect_refs

let trapping_linear_in_fault_cost =
  QCheck.Test.make ~name:"VM trapping is linear in the fault cost" ~count:100
    QCheck.(pair (int_range 1 5_000) (int_range 1 2_000))
    (fun (faults, fault_us) ->
      let vm = Counters.create () in
      vm.Counters.write_faults <- faults;
      let cm = Cost_model.with_page_fault_us Cost_model.default (float_of_int fault_us) in
      let d = Derived.trapping cm ~rt:(Counters.create ()) ~vm in
      d.Derived.vm_ns = faults * fault_us * 1_000)

let () =
  Alcotest.run "stats"
    [
      ( "cost_model",
        [
          Alcotest.test_case "paper Table 1 values" `Quick test_default_matches_paper;
          Alcotest.test_case "fault sweep knob" `Quick test_with_page_fault_us;
          Alcotest.test_case "diff cost endpoints" `Quick test_diff_cost_endpoints;
          Alcotest.test_case "copy cost" `Quick test_copy_cost;
          qtest diff_cost_monotone;
        ] );
      ( "counters",
        [
          Alcotest.test_case "add/average/total" `Quick test_counters_add_average;
          Alcotest.test_case "percent dirty" `Quick test_percent_dirty;
          Alcotest.test_case "empty average" `Quick test_average_empty;
        ] );
      ( "derived",
        [
          Alcotest.test_case "Table 3 worked example (water)" `Quick test_table3_water;
          Alcotest.test_case "Table 4 worked example (water)" `Quick test_table4_water;
          Alcotest.test_case "Table 5 worked example (water)" `Quick test_table5_water;
          qtest trapping_linear_in_fault_cost;
        ] );
    ]
