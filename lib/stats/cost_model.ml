type t = {
  cycle_ns : int;
  dirtybit_set_ns : int;
  dirtybit_set_private_ns : int;
  dirtybit_read_clean_ns : int;
  dirtybit_read_dirty_ns : int;
  dirtybit_update_ns : int;
  page_fault_ns : int;
  page_diff_uniform_ns : int;
  page_diff_alternating_ns : int;
  page_protect_rw_ns : int;
  page_protect_ro_ns : int;
  copy_kb_cold_ns : int;
  copy_kb_warm_ns : int;
  page_size : int;
}

let default =
  {
    cycle_ns = 40;
    dirtybit_set_ns = 360;
    dirtybit_set_private_ns = 240;
    dirtybit_read_clean_ns = 217;
    dirtybit_read_dirty_ns = 187;
    dirtybit_update_ns = 67;
    page_fault_ns = 1_200_000;
    page_diff_uniform_ns = 260_000;
    page_diff_alternating_ns = 1_870_000;
    page_protect_rw_ns = 125_000;
    page_protect_ro_ns = 127_000;
    copy_kb_cold_ns = 84_000;
    copy_kb_warm_ns = 26_000;
    page_size = 4096;
  }

(* The simulator's own assumptions, not Table 1 measurements. *)
let local_lock_ns = 2_000

let release_ns = 1_000

let apply_line_ns = 100

let with_page_fault_us t us = { t with page_fault_ns = int_of_float (us *. 1_000.0) }

let fast_exception_page_fault_us = 122.0

let mach_page_fault_us = 1_200.0

let diff_cost_ns t ~words ~transitions =
  if words <= 0 then 0
  else begin
    let words_per_page = t.page_size / 4 in
    let page_fraction = float_of_int words /. float_of_int words_per_page in
    let alternation = float_of_int transitions /. float_of_int words in
    let alternation = if alternation > 1.0 then 1.0 else alternation in
    let full_page_cost =
      float_of_int t.page_diff_uniform_ns
      +. (alternation
          *. float_of_int (t.page_diff_alternating_ns - t.page_diff_uniform_ns))
    in
    int_of_float (full_page_cost *. page_fraction)
  end

let copy_cost_ns t ~bytes ~warm =
  let per_kb = if warm then t.copy_kb_warm_ns else t.copy_kb_cold_ns in
  (* Round up to whole cache-resident KBs so a short copy still pays a
     proportional cost. *)
  bytes * per_kb / 1024
