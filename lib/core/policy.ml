(* Online per-region backend election (the adaptive half of hybrid write
   detection).

   The controller never inspects memory: it is fed the same quantities
   the observability layer exports for every transfer — payload bytes,
   bound bytes, the pages and runs the payload covers, and whether the
   transfer was a rebinding-forced full — and folds them into two
   running per-region cost estimates priced from the machine's
   {!Midway_stats.Cost_model}:

   - [est_rt]: what the window's transfers would have cost under
     software (dirtybit) detection — a store template per dirtied line
     plus a scan of the bound lines at each collection.
   - [est_vm]: what they would have cost under virtual-memory detection
     — a write fault and re-protection per touched page plus a word-wise
     page diff at each collection, except for rebinding-forced fulls,
     which VM-DSM ships diff-free (and whose pages stay writable, so
     they cost VM nothing at all).

   Both estimates are computed on every transfer regardless of which
   backend is actually live, so the controller can price the road not
   taken.  Decisions happen at safe points the runtime chooses (a
   release with no outstanding holders); [decide] closes the window and
   recommends the cheaper backend when it undercuts the current one by
   more than the hysteresis margin.  A cooldown of full windows after
   each switch keeps a workload sitting near the break-even point from
   thrashing (every switch costs the protocol a round of full
   transfers).

   Everything here is deterministic arithmetic over deterministic
   inputs, so adaptive runs replay bit-identically under the fuzzer's
   schedule/fault/crash exploration. *)

module Cost_model = Midway_stats.Cost_model

type stats = {
  mutable collects : int;  (* transfers observed this window *)
  mutable est_rt_ns : int;
  mutable est_vm_ns : int;
  mutable cooldown : int;  (* windows to sit out after a switch *)
}

type t = { cost : Cost_model.t; regions : (int, stats) Hashtbl.t }

(* Transfers a window needs before [decide] speaks. *)
let min_window = 8

(* The challenger must undercut the incumbent's estimate by this margin. *)
let hysteresis_pct = 25

(* Decision windows sat out after each switch. *)
let cooldown_windows = 2

let create ~cost () = { cost; regions = Hashtbl.create 8 }

let stats_for t region =
  match Hashtbl.find_opt t.regions region with
  | Some s -> s
  | None ->
      let s = { collects = 0; est_rt_ns = 0; est_vm_ns = 0; cooldown = 0 } in
      Hashtbl.replace t.regions region s;
      s

let ceil_div a b = (a + b - 1) / b

let note_collect t ~region ~line_size ~bound_bytes ~payload_bytes ~payload_pages
    ~payload_runs ~rebound =
  let c = t.cost in
  let s = stats_for t region in
  s.collects <- s.collects + 1;
  let dirty_lines = ceil_div payload_bytes line_size in
  let bound_lines = ceil_div bound_bytes line_size in
  (* One dirtied word is at least one instrumented store, so payload
     words lower-bound RT's trap cost (re-writes of the same word are
     invisible here, biasing the estimate in RT's favour); the collection
     then scans the bound lines, with dirty ones costing the dirty-read
     path.  RT prices rebound fulls like any other transfer — rebinding
     gives it no diff-free shortcut (paper, section 4, quicksort). *)
  s.est_rt_ns <-
    s.est_rt_ns
    + (payload_bytes / 8 * c.Cost_model.dirtybit_set_ns)
    + (bound_lines * c.Cost_model.dirtybit_read_clean_ns)
    + (dirty_lines * c.Cost_model.dirtybit_read_dirty_ns);
  (* VM pays page machinery per touched page and a word-wise diff per
     collection — unless the transfer was a rebinding-forced full, which
     ships without diffing and leaves the pages writable. *)
  if not rebound then begin
    let psize = c.Cost_model.page_size in
    let pages = max payload_pages (if payload_bytes > 0 then 1 else 0) in
    s.est_vm_ns <-
      s.est_vm_ns
      + (pages * (c.Cost_model.page_fault_ns + c.Cost_model.page_protect_ro_ns))
      + Cost_model.diff_cost_ns c ~words:(pages * (psize / 4))
          ~transitions:(2 * max payload_runs 1)
  end

let window t ~region =
  let s = stats_for t region in
  (s.collects, s.est_rt_ns, s.est_vm_ns)

let reset_window s =
  s.collects <- 0;
  s.est_rt_ns <- 0;
  s.est_vm_ns <- 0

let manages = function Config.Rt | Config.Vm -> true | _ -> false

let decide t ~region ~current =
  let s = stats_for t region in
  if s.collects < min_window then None
  else if s.cooldown > 0 then begin
    (* Sitting out a post-switch window: consume it and start fresh so
       the next decision prices only post-switch behaviour. *)
    s.cooldown <- s.cooldown - 1;
    reset_window s;
    None
  end
  else begin
    let cur_ns, other, other_ns =
      match current with
      | Config.Rt -> (s.est_rt_ns, Config.Vm, s.est_vm_ns)
      | Config.Vm -> (s.est_vm_ns, Config.Rt, s.est_rt_ns)
      | _ -> invalid_arg "Policy.decide: only rt and vm regions are managed"
    in
    reset_window s;
    (* A switch is not free: it epoch-bumps every intersecting binding,
       so the next transfers are full.  The window must also save more
       than a page fault: without that floor, a window of empty return
       transfers (est 0 under VM, a few hundred ns of scan under RT)
       recommends a switch to save nothing. *)
    if
      cur_ns * 100 > other_ns * (100 + hysteresis_pct)
      && cur_ns - other_ns > t.cost.Cost_model.page_fault_ns
    then Some other
    else None
  end

let note_switch t ~region =
  let s = stats_for t region in
  s.cooldown <- cooldown_windows;
  reset_window s
