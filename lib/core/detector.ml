module Space = Midway_memory.Space
module Region = Midway_memory.Region
module Counters = Midway_stats.Counters
module Cost_model = Midway_stats.Cost_model
module Page_table = Midway_vmem.Page_table
module Grow = Midway_util.Grow

(* What both history schemes remember of one lock's transfers.  Every
   detector of the machine shares it: in Midway it travels with the
   lock's ownership. *)
type lock_history = {
  rt_last_seen : Timestamp.t array;  (* timestamp history: per-processor cursor *)
  rt_history : (int, Timestamp.t) Hashtbl.t;
      (* update-queue mode only: line address -> newest stamp, the sparse
         update history that replaces full scans *)
  log : Update_log.t;  (* the incarnation log, and the lock's incarnation *)
  vm_inc_seen : int array;  (* incarnation log: per-processor last incarnation observed *)
  mutable switch_inc : int;
      (* the incarnation as of the last per-region backend switch (0 if
         never switched).  Epoch bumps up to it were forced by a switch;
         only [incarnation > switch_inc] means the application rebound
         the lock *)
}

type env = {
  cfg : Config.t;
  space : Space.t;
  counters : Counters.t array;
  lamport : int array;  (* per processor *)
  global_seen : Timestamp.t array;
      (* untargetted model: per processor, everything-consistent-as-of cursor *)
  global_history : (int, Timestamp.t) Hashtbl.t;
      (* untargetted update-queue mode: global line -> stamp history *)
  guard_stale : bool;
  mutable histories : lock_history array;
      (* by lock id, [no_history] until the lock's first use *)
}

let env (cfg : Config.t) space ~counters ~reliable =
  {
    cfg;
    space;
    counters;
    lamport = Array.make cfg.nprocs 1;
    global_seen = Array.make cfg.nprocs Timestamp.never_seen;
    global_history = Hashtbl.create 64;
    guard_stale = reliable;
    histories = [||];
  }

let fresh_history nprocs ~lines ~window =
  {
    rt_last_seen = Array.make nprocs Timestamp.never_seen;
    rt_history = lines;
    log = Update_log.create ~window;
    vm_inc_seen = Array.make nprocs (-1);
    switch_inc = 0;
  }

let no_history = fresh_history 0 ~lines:(Hashtbl.create 16) ~window:1

let new_history env lid =
  env.histories <- Grow.array env.histories lid ~fill:no_history;
  (* Only update-queue mode fills a line table: the other modes share
     [no_history]'s, which stays empty. *)
  let lines =
    if env.cfg.rt_mode = Config.Update_queue then Hashtbl.create 16 else no_history.rt_history
  in
  let h = fresh_history env.cfg.nprocs ~lines ~window:env.cfg.update_log_window in
  env.histories.(lid) <- h;
  h

(* A lock's history, created at its first use.  Lock ids are dense, so
   a transfer finds it by index; only the creation is out of line. *)
let[@inline] lock_history env (l : Sync.lock) =
  let lid = l.Sync.lid and hs = env.histories in
  let h = if lid < Array.length hs then hs.(lid) else no_history in
  if h != no_history then h else new_history env lid

let rebind env ?(switch = false) (l : Sync.lock) ~ranges =
  l.Sync.ranges <- Range.normalize ranges;
  let h = lock_history env l in
  (* RT: every processor must refetch the newly bound data. *)
  Array.fill h.rt_last_seen 0 (Array.length h.rt_last_seen) Timestamp.never_seen;
  Hashtbl.reset h.rt_history;
  (* VM: bump the incarnation and force a diff-free full transfer. *)
  Update_log.rebind h.log;
  if switch then h.switch_inc <- Update_log.incarnation h.log

let incarnation env l = Update_log.incarnation (lock_history env l).log

let electable = function
  | Config.Rt | Config.Vm | Config.Twin | Config.Blast -> true
  | Config.Vm_fine | Config.Standalone -> false

let lock_fallback = Config.Blast

let barrier_fallback = Config.Twin

(* The trapping half and the history half of each scheme.  A timestamp
   history keeps its stamps in a dirtybit table whether or not the
   templates fill it: vm-fine traps with page faults and folds each diff
   into the table before scanning it. *)
type stamps = {
  db : Dirtybits.t;
  faults : Vm_state.t option;
  gather : Gather.t;
  (* the scan → gather path's callbacks, built once *)
  region_of : int -> Region.t;
  push_run : addr:int -> len:int -> ts:Timestamp.t -> fresh:bool -> lines:int -> unit;
  lock_payload : Payload.t;
      (* a lock transfer's payload, built once: the gathered runs, whose
         bytes the requester copies out of this processor's memory *)
}

type log = Pages of Vm_state.t | Twins of Twin_state.t

type history = Stamps of stamps | Log of log | Blast

type t = { env : env; proc : int; counters : Counters.t; history : history }

type cursor = int

(* Lines covered by one first-level bit of a two-level table. *)
let two_level_group = 64

let stamps env ~proc ~mode ~faults =
  let gather = Gather.create () in
  {
    db = Dirtybits.create ~mode ~group:two_level_group;
    faults;
    gather;
    region_of = Space.region_of_addr env.space;
    push_run =
      (fun ~addr ~len ~ts ~fresh:_ ~lines -> Gather.push_run gather ~addr ~len ~ts ~descs:lines);
    lock_payload = Payload.Rt_runs [ { Payload.runs = gather; source = Payload.Copy proc } ];
  }

let create env ~proc backend =
  let cfg = env.cfg in
  let history =
    match backend with
    | Config.Rt -> Stamps (stamps env ~proc ~mode:cfg.rt_mode ~faults:None)
    | Config.Vm_fine ->
        Stamps
          (stamps env ~proc ~mode:Config.Plain
             ~faults:(Some (Vm_state.create ~page_size:cfg.cost.page_size)))
    | Config.Vm -> Log (Pages (Vm_state.create ~page_size:cfg.cost.page_size))
    | Config.Twin -> Log (Twins (Twin_state.create ()))
    | Config.Blast | Config.Standalone -> Blast
  in
  { env; proc; counters = env.counters.(proc); history }

let region_of d addr = Space.region_of_addr d.env.space addr

let read_bound d ranges = Payload.read_pieces d.env.space ~proc:d.proc ranges

(* ------------------------------------------------------------------ *)
(* Trapping                                                            *)
(* ------------------------------------------------------------------ *)

(* Regions are aligned to their size, which is a multiple of the line
   size, so lines can be counted from the absolute address. *)
let[@inline] lines_touched (region : Region.t) addr len =
  let shift = region.Region.line_shift in
  ((addr + Int.max len 1 - 1) lsr shift) - (addr lsr shift) + 1

let[@inline] trap_template d db (region : Region.t) addr len =
  let cfg = d.env.cfg in
  let cost = cfg.cost in
  match region.Region.kind with
  | Region.Private ->
      (* Misclassified write: the region's null template returns after
         six instructions. *)
      d.counters.dirtybits_misclassified <- d.counters.dirtybits_misclassified + 1;
      cost.dirtybit_set_private_ns
  | Region.Shared ->
      let n = lines_touched region addr len in
      Dirtybits.note_write db ~region ~addr ~len;
      d.counters.dirtybits_set <- d.counters.dirtybits_set + n;
      let per_line =
        match cfg.rt_mode with
        | Config.Plain -> cost.dirtybit_set_ns
        | Config.Two_level -> cost.dirtybit_set_ns + cost.cycle_ns
        | Config.Update_queue -> 3 * cost.dirtybit_set_ns
      in
      n * per_line

let[@inline] trap_fault d vm (region : Region.t) addr len =
  match region.Region.kind with
  | Region.Private -> 0
  | Region.Shared ->
      Vm_state.on_store vm ~space:d.env.space ~proc:d.proc ~counters:d.counters
        ~cost:d.env.cfg.cost ~addr ~len

(* Inlined, with the templates, into [Runtime.trap]. *)
let[@inline] trap d ~region ~addr ~len =
  match d.history with
  | Stamps { db; faults = None; _ } -> trap_template d db region addr len
  | Stamps { faults = Some vm; _ } | Log (Pages vm) -> trap_fault d vm region addr len
  | Log (Twins _) | Blast -> 0

(* ------------------------------------------------------------------ *)
(* Timestamp history (rt, vm-fine)                                     *)
(* ------------------------------------------------------------------ *)

let next_stamp d =
  let env = d.env in
  env.lamport.(d.proc) <- env.lamport.(d.proc) + 1;
  Timestamp.make ~time:env.lamport.(d.proc) ~proc:d.proc ~nprocs:env.cfg.nprocs

let scan_cost (cfg : Config.t) (counts : Dirtybits.scan_counts) =
  let cost = cfg.cost in
  (counts.clean_reads * cost.dirtybit_read_clean_ns)
  + (counts.dirty_reads * cost.dirtybit_read_dirty_ns)
  + (counts.group_checks * cost.dirtybit_read_clean_ns)
  + (counts.queue_entries * cost.dirtybit_read_dirty_ns)

(* Close a gather over the bound [ranges]: account the bound and dirty
   bytes. *)
let gathered d s ~ranges =
  let c = d.counters in
  c.bound_bytes_scanned <- c.bound_bytes_scanned + Range.total_bytes (Range.normalize ranges);
  c.dirty_bytes_found <- c.dirty_bytes_found + Gather.total_bytes s.gather

(* Scan the bound lines, stamping this processor's fresh modifications,
   and gather the selected runs: the scan → gather path.  Returns the
   scan time. *)
let scan_gather d s ~ranges ~stamp ~select =
  Gather.clear s.gather;
  let counts =
    Dirtybits.scan s.db ~region_of:s.region_of ~ranges ~stamp ~select ~emit:s.push_run
  in
  let c = d.counters in
  c.clean_dirtybits_read <- c.clean_dirtybits_read + counts.clean_reads;
  c.dirty_dirtybits_read <- c.dirty_dirtybits_read + counts.dirty_reads;
  gathered d s ~ranges;
  scan_cost d.env.cfg counts

(* Install [stamp] on every line of [ranges], a region's stretch at a
   time; returns the lines stamped. *)
let stamp_ranges d s ranges ~stamp =
  let rec stamp_range lines addr limit =
    if addr >= limit then lines
    else begin
      let region = region_of d addr in
      let stop = Int.min limit (Region.base region + region.Region.region_size) in
      let shift = region.Region.line_shift in
      let n = ((stop - 1) lsr shift) - (addr lsr shift) + 1 in
      Dirtybits.set_ts_run s.db ~region ~addr ~lines:n ~ts:stamp;
      stamp_range (lines + n) stop limit
    end
  in
  let lines =
    List.fold_left
      (fun lines (range : Range.t) -> stamp_range lines range.Range.addr (Range.limit range))
      0 ranges
  in
  d.counters.dirtybits_updated <- d.counters.dirtybits_updated + lines;
  lines

let piece_range (p : Payload.vm_piece) = Range.v p.Payload.addr (Bytes.length p.Payload.data)

(* vm-fine: diff the dirty pages and stamp every modified line, so the
   scan that follows finds them.  The cost is the sum the paper predicts:
   diff + stamp installs (+ the scan). *)
let stamp_diff d s vm ~ranges ~stamp =
  let cost = d.env.cfg.cost in
  let pieces, diff_ns =
    Vm_state.collect vm ~space:d.env.space ~proc:d.proc ~counters:d.counters ~cost ~ranges
  in
  diff_ns + (stamp_ranges d s (List.map piece_range pieces) ~stamp * cost.dirtybit_update_ns)

(* Untargetted consistency: the whole allocated shared space is the
   collection target of every transfer. *)
let shared_ranges d =
  Space.regions d.env.space
  |> List.filter_map (fun (r : Region.t) ->
         match r.Region.kind with
         | Region.Shared when r.Region.used > 0 -> Some (Range.v (Region.base r) r.Region.used)
         | Region.Shared | Region.Private -> None)

(* Update-queue trapping keeps no full scan, so third-party history comes
   from the lock's sparse history table: record the fresh runs' lines,
   then gather the history lines the requester missed after them.
   Under the untargetted model the history spans the whole space, so it
   lives on the machine.  Returns the history read time. *)
let queue_history d s h ~ranges ~last_seen ~stamp =
  let history = if d.env.cfg.untargetted then d.env.global_history else h.rt_history in
  let g = s.gather in
  (* The history is per line; expand each coalesced run back into its
     constituent lines. *)
  for i = 0 to Gather.length g - 1 do
    let addr = Gather.addr g i and descs = Gather.descs g i and ts = Gather.ts g i in
    let line_len = Gather.len g i / descs in
    for k = 0 to descs - 1 do
      Hashtbl.replace history (addr + (k * line_len)) ts
    done
  done;
  let extra_count = ref 0 in
  Hashtbl.iter
    (fun addr ts ->
      incr extra_count;
      if ts > last_seen && ts <> stamp then begin
        let len = (region_of d addr).Region.line_size in
        if Range.clip (Range.v addr len) ~within:ranges <> [] then
          Gather.push_run g ~addr ~len ~ts ~descs:1
      end)
    history;
  d.counters.clean_dirtybits_read <- d.counters.clean_dirtybits_read + !extra_count;
  !extra_count * d.env.cfg.cost.dirtybit_read_clean_ns

(* A lock transfer's payload: the gathered runs, read from this
   processor's memory by the apply that follows in the same host
   step. *)
let lock_payload s = if Gather.length s.gather = 0 then Payload.Empty else s.lock_payload

let stamps_collect_lock d s (l : Sync.lock) ~for_ =
  let env = d.env in
  let untargetted = env.cfg.untargetted in
  let h = lock_history env l in
  let ranges = if untargetted then shared_ranges d else l.Sync.ranges in
  let last_seen = if untargetted then env.global_seen.(for_) else h.rt_last_seen.(for_) in
  let stamp = next_stamp d in
  let diff_ns = match s.faults with None -> 0 | Some vm -> stamp_diff d s vm ~ranges ~stamp in
  let scan_ns = scan_gather d s ~ranges ~stamp ~select:(Dirtybits.Transfer last_seen) in
  match Dirtybits.mode s.db with
  | Config.Plain | Config.Two_level -> (lock_payload s, diff_ns + scan_ns, stamp)
  | Config.Update_queue ->
      let history_ns = queue_history d s h ~ranges ~last_seen ~stamp in
      (lock_payload s, diff_ns + scan_ns + history_ns, stamp)

(* vm-fine barrier arrival: the fresh modifications are exactly the
   diffed pieces, so no scan is needed — stamp them and ship their
   lines. *)
let stamp_pieces d s vm ~ranges ~stamp =
  let cfg = d.env.cfg in
  let pieces, diff_ns =
    Vm_state.collect vm ~space:d.env.space ~proc:d.proc ~counters:d.counters ~cost:cfg.cost
      ~ranges
  in
  let seen = Hashtbl.create 16 in
  let g = s.gather in
  Gather.clear g;
  let extra_ns = ref 0 in
  let last_region = ref (-1) in
  List.iter
    (fun (p : Payload.vm_piece) ->
      let region = region_of d p.Payload.addr in
      if region.Region.index <> !last_region then begin
        (* Runs never span regions (line sizes may differ across them). *)
        Gather.seal g;
        last_region := region.Region.index
      end;
      Range.iter_lines (piece_range p) ~line_size:region.Region.line_size ~f:(fun ~addr ~len ->
          if not (Hashtbl.mem seen addr) then begin
            Hashtbl.replace seen addr ();
            Dirtybits.set_ts s.db ~region ~addr ~ts:stamp;
            d.counters.dirtybits_updated <- d.counters.dirtybits_updated + 1;
            extra_ns := !extra_ns + cfg.cost.dirtybit_update_ns;
            Gather.push_line g ~addr ~len ~ts:stamp
          end))
    pieces;
  gathered d s ~ranges;
  diff_ns + !extra_ns

(* A barrier arrival owns its runs and their bytes: it waits in the
   mailbox while this processor, blocked, may still serve lock requests,
   each of which refills the gather. *)
let stamps_collect_barrier d s (b : Sync.barrier) =
  let ranges = b.Sync.branges in
  let stamp = next_stamp d in
  let ns =
    match s.faults with
    | None -> scan_gather d s ~ranges ~stamp ~select:Dirtybits.Fresh_only
    | Some vm -> stamp_pieces d s vm ~ranges ~stamp
  in
  let payload =
    if Gather.length s.gather = 0 then Payload.Empty
    else Payload.Rt_runs [ Payload.snapshot d.env.space ~proc:d.proc s.gather ]
  in
  (payload, ns, stamp)

let note_history d addr ts =
  let h = d.env.global_history in
  match Hashtbl.find_opt h addr with
  | Some old when old >= ts -> ()
  | _ -> Hashtbl.replace h addr ts

(* rt: install each part's runs and their stamps. *)
let rec apply_runs d db apply_ns = function
  | [] -> apply_ns
  | (part : Payload.rt_runs) :: rest ->
      let cfg = d.env.cfg in
      let cost = cfg.cost in
      let space = d.env.space and proc = d.proc in
      (* With the reliable channel armed, protocol retries can replay a
         logical update: a line whose installed stamp already reaches the
         incoming one is stale and skipped.  The test never runs on a
         fault-free fabric, keeping those runs bit-identical to the seed. *)
      let guard_stale = d.env.guard_stale in
      let track_history = cfg.untargetted && cfg.rt_mode = Config.Update_queue in
      let g = part.Payload.runs in
      let apply_ns = ref apply_ns and off = ref 0 in
      for i = 0 to Gather.length g - 1 do
        let addr = Gather.addr g i and len = Gather.len g i in
        let ts = Gather.ts g i and descs = Gather.descs g i in
        let region = region_of d addr in
        let line_len = len / descs in
        (* Costs are charged per line: copy_cost_ns floors an integer
           division, so charging the run as one block would drift from the
           per-line total. *)
        let per_line_ns =
          cost.dirtybit_update_ns + Cost_model.apply_line_ns
          + Cost_model.copy_cost_ns cost ~bytes:line_len ~warm:true
        in
        if not guard_stale then begin
          (* Fast path: install the whole run with one copy and one
             timestamp fill. *)
          Payload.install space ~proc part ~addr ~off:!off ~len;
          Dirtybits.set_ts_run db ~region ~addr ~lines:descs ~ts;
          if track_history then
            for k = 0 to descs - 1 do
              note_history d (addr + (k * line_len)) ts
            done;
          d.counters.dirtybits_updated <- d.counters.dirtybits_updated + descs;
          apply_ns := !apply_ns + (descs * per_line_ns)
        end
        else
          (* Replays may have installed some of the run's lines already,
             so staleness is decided line by line. *)
          for k = 0 to descs - 1 do
            let line = addr + (k * line_len) in
            let stale =
              let cur = Dirtybits.line_ts db ~region ~addr:line in
              Timestamp.is_stamp cur && cur >= ts
            in
            if stale then
              d.counters.duplicates_suppressed <- d.counters.duplicates_suppressed + 1
            else begin
              Payload.install space ~proc part ~addr:line ~off:(!off + (k * line_len))
                ~len:line_len;
              Dirtybits.set_ts db ~region ~addr:line ~ts;
              if track_history then note_history d line ts;
              d.counters.dirtybits_updated <- d.counters.dirtybits_updated + 1;
              apply_ns := !apply_ns + per_line_ns
            end
          done;
        off := !off + len
      done;
      apply_runs d db !apply_ns rest

(* vm-fine: the data lands in memory and in any twin of a dirty page,
   then the stamps install as at an rt requester.  Runs apply line by
   line, as pieces: the copy cost model floors an integer division per
   piece, so applying a run as one block would drift from the per-line
   total. *)
let rec apply_runs_paged d db vm apply_ns = function
  | [] -> apply_ns
  | (part : Payload.rt_runs) :: rest ->
      let cfg = d.env.cfg in
      let space = d.env.space and proc = d.proc and counters = d.counters in
      let g = part.Payload.runs in
      let apply_ns = ref apply_ns and off = ref 0 in
      for i = 0 to Gather.length g - 1 do
        let addr = Gather.addr g i and len = Gather.len g i and descs = Gather.descs g i in
        let line_len = len / descs in
        for k = 0 to descs - 1 do
          let line = addr + (k * line_len) in
          Payload.install space ~proc part ~addr:line ~off:(!off + (k * line_len)) ~len:line_len;
          apply_ns :=
            !apply_ns
            + Vm_state.applied vm ~space ~proc ~counters ~cost:cfg.cost ~addr:line ~len:line_len
        done;
        Dirtybits.set_ts_run db ~region:(region_of d addr) ~addr ~lines:descs ~ts:(Gather.ts g i);
        counters.dirtybits_updated <- counters.dirtybits_updated + descs;
        apply_ns :=
          !apply_ns + (descs * (cfg.cost.dirtybit_update_ns + Cost_model.apply_line_ns));
        off := !off + len
      done;
      apply_runs_paged d db vm !apply_ns rest

(* A crash replica is authoritative regardless of local stamps (it
   bypasses the staleness guard on purpose): its lines are stamped newer
   than anything any processor has seen, so the new owner's subsequent
   collections ship the recovered data to every requester whose cursor
   the epoch bump reset. *)
let stamps_install d s (l : Sync.lock) pieces =
  let env = d.env in
  let cfg = env.cfg in
  let time = 1 + Array.fold_left max 0 env.lamport in
  env.lamport.(d.proc) <- time;
  let stamp = Timestamp.make ~time ~proc:d.proc ~nprocs:cfg.nprocs in
  Payload.write_pieces env.space ~proc:d.proc pieces;
  let lines = stamp_ranges d s l.Sync.ranges ~stamp in
  (lock_history env l).rt_last_seen.(d.proc) <- stamp;
  (lines * (cfg.cost.dirtybit_update_ns + Cost_model.apply_line_ns))
  + Cost_model.copy_cost_ns cfg.cost ~bytes:(Payload.pieces_bytes pieces) ~warm:false

let stamps_advance d h ~requester:q stamp =
  let env = d.env in
  h.rt_last_seen.(q) <- stamp;
  h.rt_last_seen.(d.proc) <- stamp;
  if env.cfg.untargetted then begin
    env.global_seen.(q) <- Int.max env.global_seen.(q) stamp;
    env.global_seen.(d.proc) <- Int.max env.global_seen.(d.proc) stamp
  end;
  env.lamport.(q) <- Int.max env.lamport.(q) (Timestamp.time stamp ~nprocs:env.cfg.nprocs)

(* Only the owner may have unstamped (locally dirty) lines in a lock's
   bound ranges: a sentinel elsewhere means a processor wrote the data
   without holding the lock. *)
let stamps_invariants d s ~unowned =
  let problems = ref [] in
  List.iter
    (fun (l : Sync.lock) ->
      List.iter
        (fun (range : Range.t) ->
          Range.iter_lines range ~line_size:(region_of d range.Range.addr).Region.line_size
            ~f:(fun ~addr ~len:_ ->
              if Dirtybits.line_ts s.db ~region:(region_of d addr) ~addr = Timestamp.locally_dirty
              then
                problems :=
                  Printf.sprintf "lock %d: p%d has a locally dirty line at %#x without ownership"
                    l.Sync.lid d.proc addr
                  :: !problems))
        l.Sync.ranges)
    unowned;
  List.rev !problems

(* ------------------------------------------------------------------ *)
(* Incarnation log (vm, twin)                                          *)
(* ------------------------------------------------------------------ *)

(* Diff the bound data against the dirty pages' twins or the object's
   twin. *)
let log_diff d log ~id ~ranges =
  let space = d.env.space and cost = d.env.cfg.cost in
  match log with
  | Pages vm -> Vm_state.collect vm ~space ~proc:d.proc ~counters:d.counters ~cost ~ranges
  | Twins tw -> Twin_state.collect tw ~space ~proc:d.proc ~counters:d.counters ~cost ~id ~ranges

(* A rebinding in (seen, current) forces a *diff-free* full transfer:
   the paper's VM-DSM ships all bound data "without performing a diff"
   when the binding changed (section 4, quicksort).  This is decidable
   from the log alone, before any diffing. *)
let log_collect_lock d log (l : Sync.lock) ~for_ =
  let space = d.env.space in
  let h = lock_history d.env l in
  let ul = h.log in
  let bound = Sync.lock_bound_bytes l in
  let this_inc = Update_log.incarnation ul in
  let seen = h.vm_inc_seen.(for_) in
  d.counters.bound_bytes_scanned <- d.counters.bound_bytes_scanned + bound;
  if Update_log.rebound_since ul ~seen then begin
    (* Diff-free full transfer after a rebinding: ship the releaser's
       current bound data as is. *)
    (match log with
    | Pages vm ->
        (* Pages stay dirty and writable (no protection churn) and any
           saved diffs under the ranges are superseded.  The shipped
           words are absorbed into the twins: the full transfer makes
           them the protocol's current state, and leaving them differing
           from their twins would let a later collection (possibly of
           another lock sharing the page) resurrect them with data the
           protocol has since moved past. *)
        Vm_state.absorb vm ~space ~proc:d.proc ~ranges:l.Sync.ranges;
        Vm_state.discard_pending vm ~ranges:l.Sync.ranges
    | Twins tw ->
        (* Re-snapshot the twin so the next comparison starts from the
           shipped state. *)
        Twin_state.refresh tw ~space ~proc:d.proc ~id:l.Sync.lid ~ranges:l.Sync.ranges);
    Update_log.record_full ul;
    d.counters.dirty_bytes_found <- d.counters.dirty_bytes_found + bound;
    (Payload.Vm_full (read_bound d l.Sync.ranges), 0, this_inc)
  end
  else begin
    let pieces, diff_ns = log_diff d log ~id:l.Sync.lid ~ranges:l.Sync.ranges in
    let bytes = Payload.pieces_bytes pieces in
    Update_log.record ul pieces ~bytes;
    d.counters.dirty_bytes_found <- d.counters.dirty_bytes_found + bytes;
    let payload =
      if seen >= this_inc then Payload.Empty
      else if
        (* The log window may no longer reach back to the requester's
           cursor ("Midway's implementation of VM-DSM does not save all
           the updates"): then, or when the concatenated updates exceed
           the bound data, all of the bound data is sent instead. *)
        (not (Update_log.covers ul ~seen)) || Update_log.update_bytes ul ~seen > bound
      then Payload.Vm_full (read_bound d l.Sync.ranges)
      else Payload.Vm_updates (Update_log.updates ul ~seen)
    in
    (payload, diff_ns, this_inc)
  end

let log_collect_barrier d log (b : Sync.barrier) =
  let ranges = b.Sync.branges in
  let pieces, ns = log_diff d log ~id:b.Sync.bid ~ranges in
  d.counters.bound_bytes_scanned <- d.counters.bound_bytes_scanned + Range.total_bytes ranges;
  d.counters.dirty_bytes_found <- d.counters.dirty_bytes_found + Payload.pieces_bytes pieces;
  ((if pieces = [] then Payload.Empty else Payload.Vm_full pieces), ns, 0)

let log_apply_pieces d log ~id ~ranges pieces =
  let space = d.env.space and cost = d.env.cfg.cost in
  match log with
  | Pages vm -> Vm_state.apply_pieces vm ~space ~proc:d.proc ~counters:d.counters ~cost pieces
  | Twins tw ->
      Twin_state.apply_pieces tw ~space ~proc:d.proc ~counters:d.counters ~cost ~id ~ranges pieces

let log_apply d log ~id ~ranges payload =
  match payload with
  | Payload.Vm_updates updates ->
      List.fold_left (fun acc u -> acc + log_apply_pieces d log ~id ~ranges u) 0 updates
  | Payload.Vm_full pieces -> log_apply_pieces d log ~id ~ranges pieces
  | Payload.Empty -> 0
  | Payload.Rt_runs _ -> invalid_arg "Detector.apply: wrong payload kind"

(* Every dirty page must have a twin. *)
let pages_invariants d vm =
  List.filter_map
    (fun (p : Page_table.page) ->
      if p.Page_table.twin = None then
        Some (Printf.sprintf "p%d: dirty page %d without a twin" d.proc p.Page_table.number)
      else None)
    (Page_table.dirty_pages (Vm_state.page_table vm))

(* ------------------------------------------------------------------ *)
(* Blast: no history, the whole bound data at every transfer           *)
(* ------------------------------------------------------------------ *)

let blast_collect d (l : Sync.lock) =
  let bound = Sync.lock_bound_bytes l in
  d.counters.bound_bytes_scanned <- d.counters.bound_bytes_scanned + bound;
  d.counters.dirty_bytes_found <- d.counters.dirty_bytes_found + bound;
  Payload.Vm_full (read_bound d l.Sync.ranges)

let blast_apply d pieces =
  Payload.write_pieces d.env.space ~proc:d.proc pieces;
  Cost_model.copy_cost_ns d.env.cfg.cost ~bytes:(Payload.pieces_bytes pieces) ~warm:true

(* ------------------------------------------------------------------ *)
(* The interface                                                       *)
(* ------------------------------------------------------------------ *)

let collect_lock d l ~for_ =
  match d.history with
  | Stamps s -> stamps_collect_lock d s l ~for_
  | Log log -> log_collect_lock d log l ~for_
  | Blast -> (blast_collect d l, 0, 0)

let collect_barrier d (b : Sync.barrier) =
  match d.history with
  | Stamps s -> stamps_collect_barrier d s b
  | Log log -> log_collect_barrier d log b
  | Blast ->
      if b.Sync.branges <> [] then
        failwith "Runtime.barrier: the blast backend does not support barrier-bound data";
      (Payload.Empty, 0, 0)

let apply d ~id ~ranges payload =
  match (d.history, payload) with
  | _, Payload.Empty -> 0
  | Stamps { db; faults = None; _ }, Payload.Rt_runs parts -> apply_runs d db 0 parts
  | Stamps { db; faults = Some vm; _ }, Payload.Rt_runs parts -> apply_runs_paged d db vm 0 parts
  | Log log, _ -> log_apply d log ~id ~ranges payload
  | Blast, Payload.Vm_full pieces -> blast_apply d pieces
  | _ -> invalid_arg "Detector.apply: payload/scheme mismatch"

let advance d l ~requester cursor =
  let h = lock_history d.env l in
  match d.history with
  | Stamps _ -> stamps_advance d h ~requester cursor
  | Log _ ->
      h.vm_inc_seen.(requester) <- cursor;
      h.vm_inc_seen.(d.proc) <- cursor
  | Blast -> ()

let advance_barrier d cursor =
  match d.history with
  | Stamps _ when cursor > Timestamp.initial ->
      let env = d.env in
      env.lamport.(d.proc) <-
        Int.max env.lamport.(d.proc) (Timestamp.time cursor ~nprocs:env.cfg.nprocs)
  | Stamps _ | Log _ | Blast -> ()

let ships_full d l ~for_ =
  let h = lock_history d.env l in
  Update_log.incarnation h.log > h.switch_inc
  &&
  match d.history with
  | Log _ -> Update_log.rebound_since h.log ~seen:h.vm_inc_seen.(for_)
  | Stamps _ | Blast -> h.rt_last_seen.(for_) = Timestamp.never_seen

let install_full d (l : Sync.lock) pieces =
  match d.history with
  | Stamps s -> stamps_install d s l pieces
  | Log log ->
      let ns = log_apply d log ~id:l.Sync.lid ~ranges:l.Sync.ranges (Payload.Vm_full pieces) in
      let h = lock_history d.env l in
      h.vm_inc_seen.(d.proc) <- Update_log.incarnation h.log;
      ns
  | Blast -> blast_apply d pieces

let forget_region d (region : Region.t) =
  let span = Range.v (Region.base region) region.Region.region_size in
  match d.history with
  | Stamps { db; faults; _ } ->
      Dirtybits.reset_region db region;
      Option.iter (fun vm -> Vm_state.forget vm ~ranges:[ span ]) faults
  | Log (Pages vm) -> Vm_state.forget vm ~ranges:[ span ]
  | Log (Twins _) | Blast -> ()

let label d =
  match d.history with
  | Stamps { faults = None; _ } -> "dirtybit scan"
  | Stamps { faults = Some _; _ } -> "page diff + dirtybit scan"
  | Log (Pages _) -> "page diff"
  | Log (Twins _) -> "twin compare"
  | Blast -> "no detection"

let invariants d ~unowned =
  match d.history with
  | Stamps ({ faults; _ } as s) ->
      stamps_invariants d s ~unowned
      @ Option.fold ~none:[] ~some:(pages_invariants d) faults
  | Log (Pages vm) -> pages_invariants d vm
  | Log (Twins _) | Blast -> []
