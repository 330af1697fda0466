module Region = Midway_memory.Region
module Pow2 = Midway_util.Pow2
module Grow = Midway_util.Grow

type region_table = {
  ts : int array;  (* per line: Timestamp.t *)
  l1 : Bytes.t;  (* two-level: dirty flag per group *)
  group_max : int array;  (* two-level: max stamp installed in the group *)
}

(* Pending run state for coalescing per-line visits into one emit per
   contiguous run of lines sharing a timestamp and freshness. *)
type run_acc = {
  mutable r_addr : int;
  mutable r_len : int;
  mutable r_ts : Timestamp.t;
  mutable r_fresh : bool;
  mutable r_lines : int;
  mutable r_region : int;  (* region index; a run never spans regions *)
  mutable r_active : bool;
}

type t = {
  mode : Config.rt_mode;
  group : int;  (* a power of two, so a line's group is a shift *)
  group_shift : int;  (* log2 group *)
  mutable tables : region_table option array;  (* by region index *)
  mutable queue : Range.t list;  (* update-queue mode, newest first *)
  run : run_acc;  (* the pending run of the scan in progress *)
}

type scan_counts = {
  mutable clean_reads : int;
  mutable dirty_reads : int;
  mutable group_checks : int;
  mutable queue_entries : int;
}

type selection = Transfer of Timestamp.t | Fresh_only

let create ~mode ~group =
  if not (Pow2.is_power_of_two group) then
    invalid_arg "Dirtybits.create: group must be a power of two";
  {
    mode;
    group;
    group_shift = Pow2.log2 group;
    tables = Array.make 16 None;
    queue = [];
    run =
      {
        r_addr = 0;
        r_len = 0;
        r_ts = 0;
        r_fresh = false;
        r_lines = 0;
        r_region = -1;
        r_active = false;
      };
  }

let mode t = t.mode

(* A region's table for this processor, created or grown so that it
   holds [line]: it covers the lines in use, like the processor's copy of
   the region (Region.extent), in whole groups so that no group straddles
   the table's end.  A growth keeps the timestamps, first-level bits and
   group maxima; the lines and groups it adds are clean. *)
let grow_table t (r : Region.t) line =
  let idx = r.index in
  t.tables <- Grow.array t.tables idx ~fill:None;
  match t.tables.(idx) with
  | Some tbl when line < Array.length tbl.ts || Array.length tbl.ts = Region.lines r -> tbl
  | old ->
      let have = match old with Some tbl -> Array.length tbl.ts | None -> 0 in
      let size = r.line_size in
      let bytes = Region.extent r ~have:(have * size) ((line + 1) * size) in
      let lines = (bytes + size - 1) / size in
      let whole_groups = ((lines + t.group - 1) lsr t.group_shift) lsl t.group_shift in
      let lines = min (Region.lines r) whole_groups in
      let groups =
        if t.mode = Config.Two_level then (lines + t.group - 1) lsr t.group_shift else 0
      in
      let tbl =
        {
          ts = Array.make lines Timestamp.initial;
          l1 = Bytes.make groups '\000';
          group_max = Array.make groups Timestamp.initial;
        }
      in
      Option.iter
        (fun o ->
          Array.blit o.ts 0 tbl.ts 0 have;
          Bytes.blit o.l1 0 tbl.l1 0 (Bytes.length o.l1);
          Array.blit o.group_max 0 tbl.group_max 0 (Array.length o.group_max))
        old;
      t.tables.(idx) <- Some tbl;
      tbl

(* The hit path, inlined into the store template: the table exists and
   holds [line].  Everything else is [grow_table]'s. *)
let[@inline] table_reaching t (r : Region.t) line =
  let idx = r.index in
  if idx < Array.length t.tables then
    match Array.unsafe_get t.tables idx with
    | Some tbl -> if line < Array.length tbl.ts then tbl else grow_table t r line
    | None -> grow_table t r line
  else grow_table t r line

(* Regions are aligned to their size, so an address's offset in its
   region is its low bits. *)
let line_index (r : Region.t) addr = (addr land (r.region_size - 1)) lsr r.line_shift

let note_write t ~region ~addr ~len =
  match t.mode with
  | Config.Update_queue ->
      (* Coalesce with the most recent entry when the new write extends or
         repeats it — the sequential-write heuristic from section 3.5. *)
      let entry = Range.v addr (Int.max len 1) in
      (match t.queue with
      | prev :: rest
        when entry.Range.addr <= Range.limit prev && prev.Range.addr <= Range.limit entry
        ->
          let lo = Int.min prev.Range.addr entry.Range.addr in
          let hi = Int.max (Range.limit prev) (Range.limit entry) in
          t.queue <- Range.v lo (hi - lo) :: rest
      | q -> t.queue <- entry :: q)
  | Config.Plain | Config.Two_level ->
      let first = line_index region addr in
      let last = line_index region (addr + Int.max len 1 - 1) in
      let tbl = table_reaching t region last in
      for line = first to last do
        tbl.ts.(line) <- Timestamp.locally_dirty;
        if t.mode = Config.Two_level then Bytes.set tbl.l1 (line lsr t.group_shift) '\001'
      done

let line_ts t ~region ~addr =
  let line = line_index region addr in
  let idx = region.Region.index in
  match if idx < Array.length t.tables then t.tables.(idx) else None with
  | Some tbl when line < Array.length tbl.ts -> tbl.ts.(line)
  | _ -> Timestamp.initial

let bump_group_max t tbl line ts =
  if t.mode = Config.Two_level then begin
    let g = line lsr t.group_shift in
    if ts > tbl.group_max.(g) then tbl.group_max.(g) <- ts
  end

let set_ts t ~region ~addr ~ts =
  let line = line_index region addr in
  let tbl = table_reaching t region line in
  tbl.ts.(line) <- ts;
  bump_group_max t tbl line ts

(* Install one timestamp across [lines] consecutive lines starting at
   [addr] — the apply side of a coalesced run: one table lookup and one
   fill for the whole run, and each group's maximum updated once. *)
let set_ts_run t ~region ~addr ~lines ~ts =
  if lines > 0 then begin
    let first = line_index region addr in
    let last = first + lines - 1 in
    let tbl = table_reaching t region last in
    Array.fill tbl.ts first lines ts;
    if t.mode = Config.Two_level then
      for g = first lsr t.group_shift to last lsr t.group_shift do
        if ts > tbl.group_max.(g) then tbl.group_max.(g) <- ts
      done
  end

let fresh_counts () =
  { clean_reads = 0; dirty_reads = 0; group_checks = 0; queue_entries = 0 }

(* Close the pending run, if any, by emitting it. *)
let flush t emit =
  let r = t.run in
  if r.r_active then begin
    r.r_active <- false;
    emit ~addr:r.r_addr ~len:r.r_len ~ts:r.r_ts ~fresh:r.r_fresh ~lines:r.r_lines
  end

(* Add [lines] lines from [addr] sharing a timestamp and freshness to
   the pending run: they extend it when they continue it in the same
   region, else they close it and start the next.  A line visited twice
   (overlapping unmerged ranges) restarts a run because its address
   does not extend the pending one, so nothing is ever silently
   dropped. *)
let extend_run t emit (region : Region.t) ~addr ~lines ~ts ~fresh =
  let r = t.run in
  let len = lines * region.Region.line_size in
  if
    r.r_active && r.r_addr + r.r_len = addr && r.r_ts = ts && r.r_fresh = fresh
    && r.r_region = region.Region.index
  then begin
    r.r_len <- r.r_len + len;
    r.r_lines <- r.r_lines + lines
  end
  else begin
    flush t emit;
    r.r_active <- true;
    r.r_addr <- addr;
    r.r_len <- len;
    r.r_ts <- ts;
    r.r_fresh <- fresh;
    r.r_lines <- lines;
    r.r_region <- region.Region.index
  end

(* Scan lines [lo, hi] of [tbl] (in [Two_level] mode, lines of one
   group) a maximal stretch of equal timestamps at a time: the stretch
   is found by one compare per line, a locally dirty stretch is stamped
   with one fill (and its group's maximum bumped once), and a selected
   stretch joins the pending run in one step. *)
let scan_lines t tbl counts ~(region : Region.t) ~stamp ~select ~emit lo hi =
  let ts = tbl.ts in
  let i = ref lo in
  while !i <= hi do
    let start = !i in
    let v = Array.unsafe_get ts start in
    let j = ref (start + 1) in
    while !j <= hi && Array.unsafe_get ts !j = v do
      incr j
    done;
    let n = !j - start in
    let addr = Region.base region + (start * region.Region.line_size) in
    if v = Timestamp.locally_dirty then begin
      counts.dirty_reads <- counts.dirty_reads + n;
      Array.fill ts start n stamp;
      bump_group_max t tbl start stamp;
      match select with
      | Transfer last_seen ->
          if stamp > last_seen then extend_run t emit region ~addr ~lines:n ~ts:stamp ~fresh:true
      | Fresh_only -> extend_run t emit region ~addr ~lines:n ~ts:stamp ~fresh:true
    end
    else begin
      counts.clean_reads <- counts.clean_reads + n;
      match select with
      | Transfer last_seen ->
          if v > last_seen then extend_run t emit region ~addr ~lines:n ~ts:v ~fresh:false
      | Fresh_only -> ()
    end;
    i := !j
  done

(* Two-level first-level check: may the whole group be skipped? *)
let group_skippable tbl ~select g =
  Bytes.get tbl.l1 g = '\000'
  &&
  match select with
  | Fresh_only -> true  (* nothing locally dirty in the group *)
  | Transfer last_seen -> tbl.group_max.(g) <= last_seen

let scan_range t counts ~region ~range ~stamp ~select ~emit =
  let first = line_index region range.Range.addr in
  let last = line_index region (Range.limit range - 1) in
  let tbl = table_reaching t region last in
  match t.mode with
  | Config.Plain | Config.Update_queue ->
      scan_lines t tbl counts ~region ~stamp ~select ~emit first last
  | Config.Two_level ->
      for g = first lsr t.group_shift to last lsr t.group_shift do
        let g_first = g lsl t.group_shift in
        let g_last = Int.min (g_first + t.group - 1) (Region.lines region - 1) in
        let lo = Int.max first g_first and hi = Int.min last g_last in
        if lo = g_first && hi = g_last then begin
          (* Group fully covered by the scan: the first level applies. *)
          counts.group_checks <- counts.group_checks + 1;
          if not (group_skippable tbl ~select g) then begin
            scan_lines t tbl counts ~region ~stamp ~select ~emit lo hi;
            (* Every sentinel in the group has been stamped. *)
            Bytes.set tbl.l1 g '\000'
          end
        end
        else scan_lines t tbl counts ~region ~stamp ~select ~emit lo hi
      done

let scan_queue t counts ~region_of ~ranges ~stamp ~emit =
  let keep = ref [] and consumed = ref [] in
  List.iter
    (fun entry ->
      let inside = Range.clip entry ~within:ranges in
      if inside = [] then keep := entry :: !keep
      else begin
        consumed := inside @ !consumed;
        keep := Range.subtract entry ~minus:ranges @ !keep
      end)
    t.queue;
  t.queue <- List.rev !keep;
  List.iter
    (fun (piece : Range.t) ->
      counts.queue_entries <- counts.queue_entries + 1;
      let region = region_of piece.Range.addr in
      let first = line_index region piece.Range.addr in
      let last = line_index region (Range.limit piece - 1) in
      let tbl = table_reaching t region last in
      let ts = tbl.ts in
      let i = ref first in
      while !i <= last do
        if Array.unsafe_get ts !i = stamp then incr i
        else begin
          (* A queued entry means this processor wrote the stretch's
             lines; stamp them and emit (a transfer cursor is always
             below a fresh stamp).  Lines an earlier entry of this scan
             stamped are not read again. *)
          let start = !i in
          while !i <= last && Array.unsafe_get ts !i <> stamp do
            incr i
          done;
          let n = !i - start in
          counts.dirty_reads <- counts.dirty_reads + n;
          Array.fill ts start n stamp;
          extend_run t emit region
            ~addr:(Region.base region + (start * region.Region.line_size))
            ~lines:n ~ts:stamp ~fresh:true
        end
      done)
    !consumed;
  counts

let rec scan_ranges t counts ~region_of ~stamp ~select ~emit = function
  | [] -> ()
  | (range : Range.t) :: rest ->
      if not (Range.is_empty range) then
        scan_range t counts ~region:(region_of range.Range.addr) ~range ~stamp ~select ~emit;
      scan_ranges t counts ~region_of ~stamp ~select ~emit rest

let scan t ~region_of ~ranges ~stamp ~select ~emit =
  let counts = fresh_counts () in
  let ranges = Range.normalize ranges in
  t.run.r_active <- false;
  (match t.mode with
  | Config.Update_queue -> ignore (scan_queue t counts ~region_of ~ranges ~stamp ~emit)
  | Config.Plain | Config.Two_level ->
      scan_ranges t counts ~region_of ~stamp ~select ~emit ranges);
  flush t emit;
  counts

let queue_length t = List.length t.queue

(* Forget everything about one region: detection restarts from the
   initial stamp, exactly as if the region had never been written here.
   Post-reset, [Timestamp.initial] still exceeds a rebound lock's
   [Timestamp.never_seen] cursor, so the data itself is not lost — the
   next transfer ships it in full. *)
let reset_region t (r : Region.t) =
  (if r.Region.index < Array.length t.tables then
     match t.tables.(r.Region.index) with
     | None -> ()
     | Some tbl ->
         Array.fill tbl.ts 0 (Array.length tbl.ts) Timestamp.initial;
         Bytes.fill tbl.l1 0 (Bytes.length tbl.l1) '\000';
         Array.fill tbl.group_max 0 (Array.length tbl.group_max) Timestamp.initial);
  if t.queue <> [] then begin
    let span = Range.v (Region.base r) r.Region.region_size in
    t.queue <- List.concat_map (fun e -> Range.subtract e ~minus:[ span ]) t.queue
  end
