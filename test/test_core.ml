(* Tests for the core Midway building blocks: ranges, timestamps,
   dirtybit tables (all three trapping modes), the VM detection state and
   synchronization objects. *)

module Range = Midway.Range
module Timestamp = Midway.Timestamp
module Dirtybits = Midway.Dirtybits
module Vm_state = Midway.Vm_state
module Payload = Midway.Payload
module Gather = Midway.Gather
module Update_log = Midway.Update_log
module Sync = Midway.Sync
module Detector = Midway.Detector
module Config = Midway.Config
module Region = Midway_memory.Region
module Space = Midway_memory.Space
module Counters = Midway_stats.Counters
module Cost_model = Midway_stats.Cost_model

let qtest = QCheck_alcotest.to_alcotest

(* --- Range --------------------------------------------------------------- *)

let range_list =
  QCheck.make
    ~print:(fun rs ->
      String.concat ";"
        (List.map (fun (r : Range.t) -> Printf.sprintf "[%d,%d)" r.Range.addr (Range.limit r)) rs))
    QCheck.Gen.(list_size (int_range 0 8) (map2 (fun a l -> Range.v a l) (int_range 0 100) (int_range 0 30)))

let covers ranges x =
  List.exists (fun (r : Range.t) -> x >= r.Range.addr && x < Range.limit r) ranges

let test_range_basics () =
  let r = Range.v 10 5 in
  Alcotest.(check int) "limit" 15 (Range.limit r);
  Alcotest.(check bool) "not empty" false (Range.is_empty r);
  Alcotest.(check bool) "empty" true (Range.is_empty (Range.v 3 0));
  Alcotest.check_raises "negative" (Invalid_argument "Range.v: negative address or length")
    (fun () -> ignore (Range.v (-1) 5))

let test_normalize_merges () =
  let norm = Range.normalize [ Range.v 0 10; Range.v 10 5; Range.v 30 5; Range.v 2 4 ] in
  Alcotest.(check (list (pair int int)))
    "merged and sorted"
    [ (0, 15); (30, 5) ]
    (List.map (fun (r : Range.t) -> (r.Range.addr, r.Range.len)) norm)

let test_normalize_edge_cases () =
  let pairs rs = List.map (fun (r : Range.t) -> (r.Range.addr, r.Range.len)) rs in
  Alcotest.(check (list (pair int int)))
    "zero-length ranges are dropped" [ (0, 4) ]
    (pairs (Range.normalize [ Range.v 5 0; Range.v 0 4; Range.v 12 0 ]));
  Alcotest.(check (list (pair int int)))
    "all-empty input normalizes to nothing" []
    (pairs (Range.normalize [ Range.v 0 0; Range.v 8 0 ]));
  Alcotest.(check (list (pair int int)))
    "adjacent ranges merge" [ (0, 16) ]
    (pairs (Range.normalize [ Range.v 8 8; Range.v 0 8 ]))

let test_overlaps_edge_cases () =
  Alcotest.(check bool) "proper overlap" true (Range.overlaps (Range.v 0 10) (Range.v 5 10));
  Alcotest.(check bool) "adjacent do not overlap" false (Range.overlaps (Range.v 0 8) (Range.v 8 8));
  Alcotest.(check bool) "empty overlaps nothing" false (Range.overlaps (Range.v 5 0) (Range.v 0 10));
  Alcotest.(check bool) "nothing overlaps empty" false (Range.overlaps (Range.v 0 10) (Range.v 5 0));
  Alcotest.(check bool) "intersect agrees on adjacency" true
    (Range.intersect (Range.v 0 8) (Range.v 8 8) = None)

let normalize_preserves_coverage =
  QCheck.Test.make ~name:"normalize preserves byte coverage" ~count:300 range_list (fun rs ->
      let norm = Range.normalize rs in
      List.for_all (fun x -> covers rs x = covers norm x) (List.init 140 (fun i -> i)))

let normalize_disjoint_sorted =
  QCheck.Test.make ~name:"normalized ranges are disjoint, sorted, nonempty" ~count:300
    range_list (fun rs ->
      let rec check = function
        | (a : Range.t) :: (b : Range.t) :: rest ->
            Range.limit a < b.Range.addr && a.Range.len > 0 && check (b :: rest)
        | [ a ] -> a.Range.len > 0
        | [] -> true
      in
      check (Range.normalize rs))

let subtract_complements_clip =
  QCheck.Test.make ~name:"clip and subtract partition a range" ~count:300
    QCheck.(pair (pair (int_bound 100) (int_bound 30)) range_list)
    (fun ((addr, len), within) ->
      let r = Range.v addr len in
      let within = Range.normalize within in
      let inside = Range.clip r ~within in
      let outside = Range.subtract r ~minus:within in
      List.for_all
        (fun x ->
          let in_r = x >= addr && x < addr + len in
          let in_inside = covers inside x in
          let in_outside = covers outside x in
          (* each byte of r is in exactly one part, bytes outside r in none *)
          if in_r then in_inside <> in_outside && (in_inside = covers within x)
          else (not in_inside) && not in_outside)
        (List.init 140 (fun i -> i)))

let test_contains () =
  let ranges = Range.normalize [ Range.v 0 10; Range.v 20 10 ] in
  Alcotest.(check bool) "inside" true (Range.contains ranges ~addr:2 ~len:5);
  Alcotest.(check bool) "straddles hole" false (Range.contains ranges ~addr:5 ~len:20);
  Alcotest.(check bool) "empty always" true (Range.contains ranges ~addr:500 ~len:0)

let test_iter_lines_widens () =
  let r = Range.v 70 20 in
  (* lines of 64 bytes: range [70, 90) touches line 1 only *)
  let visited = ref [] in
  Range.iter_lines r ~line_size:64 ~f:(fun ~addr ~len -> visited := (addr, len) :: !visited);
  Alcotest.(check (list (pair int int))) "full line extents" [ (64, 64) ] !visited;
  let r2 = Range.v 60 10 in
  let visited2 = ref [] in
  Range.iter_lines r2 ~line_size:64 ~f:(fun ~addr ~len -> visited2 := (addr, len) :: !visited2);
  Alcotest.(check int) "straddling range touches two lines" 2 (List.length !visited2)

let iter_lines_covers =
  QCheck.Test.make ~name:"iter_lines covers the range with whole lines" ~count:300
    QCheck.(triple (int_bound 500) (int_range 1 100) (int_bound 4))
    (fun (addr, len, ls_exp) ->
      let line_size = 8 lsl ls_exp in
      let r = Range.v addr len in
      let visited = ref [] in
      Range.iter_lines r ~line_size ~f:(fun ~addr ~len -> visited := (addr, len) :: !visited);
      let lines = List.rev !visited in
      (* aligned, contiguous, full lines, covering exactly the range *)
      List.for_all (fun (a, l) -> a mod line_size = 0 && l = line_size) lines
      && (match lines with
         | [] -> false
         | (first, _) :: _ ->
             let last, llen = List.nth lines (List.length lines - 1) in
             first <= addr && addr + len <= last + llen
             && List.length lines = ((addr + len - 1) / line_size) - (addr / line_size) + 1))

(* --- Timestamp ------------------------------------------------------------ *)

let test_timestamp_encoding () =
  let nprocs = 8 in
  let t = Timestamp.make ~time:5 ~proc:3 ~nprocs in
  Alcotest.(check int) "time component" 5 (Timestamp.time t ~nprocs);
  Alcotest.(check bool) "is a stamp" true (Timestamp.is_stamp t);
  Alcotest.(check bool) "dirty sentinel is not a stamp" false
    (Timestamp.is_stamp Timestamp.locally_dirty);
  Alcotest.(check bool) "initial exceeds never_seen" true
    (Timestamp.initial > Timestamp.never_seen);
  Alcotest.check_raises "time >= 1" (Invalid_argument "Timestamp.make: time must be >= 1")
    (fun () -> ignore (Timestamp.make ~time:0 ~proc:0 ~nprocs))

let timestamp_total_order =
  QCheck.Test.make ~name:"stamps from distinct (time, proc) pairs are distinct" ~count:300
    QCheck.(pair (pair (int_range 1 1000) (int_bound 7)) (pair (int_range 1 1000) (int_bound 7)))
    (fun ((t1, p1), (t2, p2)) ->
      let a = Timestamp.make ~time:t1 ~proc:p1 ~nprocs:8 in
      let b = Timestamp.make ~time:t2 ~proc:p2 ~nprocs:8 in
      if (t1, p1) = (t2, p2) then a = b
      else a <> b && (t1 >= t2 || a < b) (* later lamport time => larger stamp *))

(* --- Dirtybits -------------------------------------------------------------- *)

let make_region () =
  Region.create ~index:1 ~kind:Region.Shared ~line_size:8 ~region_size:4096 ~nprocs:1

(* Per-line view of the coalesced scan: expand each emitted run back into
   its constituent lines, so expectations stay line-granular. *)
let base_scan db ~region ~ranges ~stamp ~select =
  let emitted = ref [] in
  let counts =
    Dirtybits.scan db
      ~region_of:(fun _ -> region)
      ~ranges ~stamp ~select
      ~emit:(fun ~addr ~len ~ts ~fresh ~lines ->
        let line_len = len / lines in
        for i = 0 to lines - 1 do
          emitted := (addr + (i * line_len), ts, fresh) :: !emitted
        done)
  in
  (counts, List.rev !emitted)

let test_dirtybits_plain_first_transfer () =
  let region = make_region () in
  let db = Dirtybits.create ~mode:Config.Plain ~group:16 in
  let base = Region.base region in
  (* Never-written lines carry the initial timestamp: a requester that has
     seen nothing receives all bound data. *)
  let counts, emitted =
    base_scan db ~region ~ranges:[ Range.v base 32 ] ~stamp:100
      ~select:(Dirtybits.Transfer Timestamp.never_seen)
  in
  Alcotest.(check int) "4 lines scanned clean" 4 counts.Dirtybits.clean_reads;
  Alcotest.(check int) "all emitted" 4 (List.length emitted);
  List.iter (fun (_, ts, fresh) ->
      Alcotest.(check int) "initial ts" Timestamp.initial ts;
      Alcotest.(check bool) "not fresh" false fresh)
    emitted

let test_dirtybits_stamping_and_filter () =
  let region = make_region () in
  let db = Dirtybits.create ~mode:Config.Plain ~group:16 in
  let base = Region.base region in
  Dirtybits.note_write db ~region ~addr:(base + 8) ~len:8;
  Alcotest.(check int) "sentinel written" Timestamp.locally_dirty
    (Dirtybits.line_ts db ~region ~addr:(base + 8));
  let counts, emitted =
    base_scan db ~region ~ranges:[ Range.v base 32 ] ~stamp:50 ~select:(Dirtybits.Transfer 10)
  in
  Alcotest.(check int) "one dirty read" 1 counts.Dirtybits.dirty_reads;
  Alcotest.(check int) "three clean reads" 3 counts.Dirtybits.clean_reads;
  (* initial ts (1) <= 10 filtered out; only the stamped line ships *)
  Alcotest.(check (list (triple int int bool))) "stamped line emitted"
    [ (base + 8, 50, true) ]
    emitted;
  Alcotest.(check int) "sentinel replaced by stamp" 50
    (Dirtybits.line_ts db ~region ~addr:(base + 8));
  (* a requester that has seen ts 50 gets nothing *)
  let _, emitted2 =
    base_scan db ~region ~ranges:[ Range.v base 32 ] ~stamp:60 ~select:(Dirtybits.Transfer 50)
  in
  Alcotest.(check int) "minimal update: nothing new" 0 (List.length emitted2)

let test_dirtybits_fresh_only () =
  let region = make_region () in
  let db = Dirtybits.create ~mode:Config.Plain ~group:16 in
  let base = Region.base region in
  Dirtybits.set_ts db ~region ~addr:base ~ts:40;
  Dirtybits.note_write db ~region ~addr:(base + 16) ~len:8;
  let _, emitted =
    base_scan db ~region ~ranges:[ Range.v base 32 ] ~stamp:99 ~select:Dirtybits.Fresh_only
  in
  Alcotest.(check (list (triple int int bool))) "only locally dirty lines"
    [ (base + 16, 99, true) ]
    emitted

let test_dirtybits_area_write () =
  let region = make_region () in
  let db = Dirtybits.create ~mode:Config.Plain ~group:16 in
  let base = Region.base region in
  Dirtybits.note_write db ~region ~addr:(base + 4) ~len:16 (* straddles lines 0,1,2 *);
  let _, emitted =
    base_scan db ~region ~ranges:[ Range.v base 64 ] ~stamp:7
      ~select:Dirtybits.Fresh_only
  in
  Alcotest.(check int) "three lines dirtied" 3 (List.length emitted)

let test_two_level_skips () =
  let region = make_region () in
  let db = Dirtybits.create ~mode:Config.Two_level ~group:4 in
  let base = Region.base region in
  (* 64 bytes = 8 lines = 2 groups of 4; dirty one line in group 1 *)
  Dirtybits.note_write db ~region ~addr:(base + 40) ~len:8;
  let counts, emitted =
    base_scan db ~region ~ranges:[ Range.v base 64 ] ~stamp:9 ~select:Dirtybits.Fresh_only
  in
  Alcotest.(check int) "two first-level checks" 2 counts.Dirtybits.group_checks;
  Alcotest.(check int) "group 0 skipped" 1 counts.Dirtybits.groups_skipped;
  Alcotest.(check int) "only group 1 lines read" 4
    (counts.Dirtybits.clean_reads + counts.Dirtybits.dirty_reads);
  Alcotest.(check int) "dirty line found" 1 (List.length emitted);
  (* after the scan the group is stamped: a second scan skips both groups *)
  let counts2, _ =
    base_scan db ~region ~ranges:[ Range.v base 64 ] ~stamp:10 ~select:Dirtybits.Fresh_only
  in
  Alcotest.(check int) "both groups skipped now" 2 counts2.Dirtybits.groups_skipped

(* A line's group is found by a shift, so a group that is not a power of
   two would put lines in the wrong groups: it is refused. *)
let test_group_power_of_two () =
  let refused group =
    Alcotest.check_raises (Printf.sprintf "group %d" group)
      (Invalid_argument "Dirtybits.create: group must be a power of two") (fun () ->
        ignore (Dirtybits.create ~mode:Config.Two_level ~group))
  in
  List.iter refused [ 48; 3; 0; -4 ];
  List.iter (fun group -> ignore (Dirtybits.create ~mode:Config.Two_level ~group)) [ 1; 4; 16; 64 ]

let two_level_equals_plain =
  (* The two-level organization must emit exactly what plain mode emits
     for any write pattern and any cursor. *)
  QCheck.Test.make ~name:"two-level scan emits the same lines as plain" ~count:200
    QCheck.(pair (list (pair (int_bound 63) (int_range 1 16))) (int_bound 3))
    (fun (writes, round_count) ->
      let region = make_region () in
      let plain = Dirtybits.create ~mode:Config.Plain ~group:4 in
      let two = Dirtybits.create ~mode:Config.Two_level ~group:4 in
      let base = Region.base region in
      let result db =
        let out = ref [] in
        for round = 0 to round_count do
          List.iter
            (fun (off, len) ->
              Dirtybits.note_write db ~region ~addr:(base + (off * 8)) ~len)
            writes;
          let _, emitted =
            base_scan db ~region
              ~ranges:[ Range.v base 512 ]
              ~stamp:(100 + round)
              ~select:(Dirtybits.Transfer (90 + round))
          in
          out := emitted :: !out
        done;
        !out
      in
      result plain = result two)

(* Satellite of the hot-path overhaul: the run-coalesced scan must be an
   emission-batching change only.  For random write patterns, in every
   trapping mode, the runs expanded back to lines must equal a per-line
   oracle (covered addresses, timestamps, freshness), the runs must be
   structurally sound (line-aligned, len = lines * line_size), and the
   scan_counts must match the per-line model. *)
let scan_matches_per_line_oracle =
  QCheck.Test.make ~name:"coalesced scan equals the per-line oracle" ~count:300
    QCheck.(
      triple
        (list_of_size Gen.(int_range 0 12) (pair (int_bound 63) (int_range 1 24)))
        (int_bound 2) (int_bound 3))
    (fun (writes, mode_idx, rounds) ->
      let mode =
        List.nth [ Config.Plain; Config.Two_level; Config.Update_queue ] mode_idx
      in
      let region = make_region () in
      let db = Dirtybits.create ~mode ~group:4 in
      let base = Region.base region in
      let nlines = 64 in
      (* scan 64 lines of 8 bytes *)
      let model = Array.make nlines Timestamp.initial in
      let ok = ref true in
      let fail () = ok := false in
      for round = 0 to rounds do
        let dirtied = Array.make nlines false in
        List.iter
          (fun (off, len) ->
            Dirtybits.note_write db ~region ~addr:(base + (off * 8)) ~len;
            let last = ((off * 8) + len - 1) / 8 in
            for l = off to min last (nlines - 1) do
              dirtied.(l) <- true
            done)
          writes;
        let stamp = 100 + round and cursor = 90 + round in
        let runs = ref [] in
        let counts =
          Dirtybits.scan db
            ~region_of:(fun _ -> region)
            ~ranges:[ Range.v base (nlines * 8) ]
            ~stamp ~select:(Dirtybits.Transfer cursor)
            ~emit:(fun ~addr ~len ~ts ~fresh ~lines ->
              runs := (addr, len, ts, fresh, lines) :: !runs)
        in
        let runs = List.rev !runs in
        (* structural soundness of the runs *)
        List.iter
          (fun (addr, len, _, _, lines) ->
            if lines <= 0 || len <> lines * 8 || (addr - base) mod 8 <> 0 then fail ())
          runs;
        let expanded =
          List.concat_map
            (fun (addr, len, ts, fresh, lines) ->
              let ll = len / lines in
              List.init lines (fun i -> (addr + (i * ll), ts, fresh)))
            runs
        in
        match mode with
        | Config.Update_queue ->
            (* every line written this round emits exactly once, stamped
               fresh (the whole queue drains: the range covers it) *)
            let expected = ref [] in
            for l = nlines - 1 downto 0 do
              if dirtied.(l) then expected := (base + (l * 8), stamp, true) :: !expected
            done;
            if List.sort compare expanded <> List.sort compare !expected then fail ()
        | Config.Plain | Config.Two_level ->
            let expected = ref [] and clean = ref 0 and dirty = ref 0 in
            for l = 0 to nlines - 1 do
              if dirtied.(l) then begin
                incr dirty;
                model.(l) <- stamp;
                if stamp > cursor then expected := (base + (l * 8), stamp, true) :: !expected
              end
              else begin
                incr clean;
                if model.(l) > cursor then
                  expected := (base + (l * 8), model.(l), false) :: !expected
              end
            done;
            if expanded <> List.rev !expected then fail ();
            (* dirty lines are always read (their group's first-level bit
               is set); skipped groups account for the missing cleans *)
            if counts.Dirtybits.dirty_reads <> !dirty then fail ();
            (match mode with
            | Config.Plain ->
                if counts.Dirtybits.clean_reads <> !clean then fail ()
            | Config.Two_level ->
                if
                  counts.Dirtybits.clean_reads + counts.Dirtybits.dirty_reads
                  + (4 * counts.Dirtybits.groups_skipped)
                  <> nlines
                then fail ()
            | Config.Update_queue -> ())
      done;
      !ok)

let test_update_queue_mode () =
  let region = make_region () in
  let db = Dirtybits.create ~mode:Config.Update_queue ~group:4 in
  let base = Region.base region in
  Dirtybits.note_write db ~region ~addr:base ~len:8;
  Dirtybits.note_write db ~region ~addr:(base + 8) ~len:8;
  (* sequential writes coalesce into one queue entry *)
  Alcotest.(check int) "coalesced" 1 (Dirtybits.queue_length db);
  Dirtybits.note_write db ~region ~addr:(base + 100) ~len:8;
  Alcotest.(check int) "non-adjacent appends" 2 (Dirtybits.queue_length db);
  let counts, emitted =
    base_scan db ~region ~ranges:[ Range.v base 16 ] ~stamp:30 ~select:(Dirtybits.Transfer 0)
  in
  Alcotest.(check int) "queue entries consumed" 1 counts.Dirtybits.queue_entries;
  Alcotest.(check int) "two lines emitted" 2 (List.length emitted);
  Alcotest.(check int) "out-of-range entry still queued" 1 (Dirtybits.queue_length db);
  (* consumed entries do not reappear *)
  let _, emitted2 =
    base_scan db ~region ~ranges:[ Range.v base 16 ] ~stamp:31 ~select:(Dirtybits.Transfer 0)
  in
  Alcotest.(check int) "drained" 0 (List.length emitted2)

let test_update_queue_coalescing_boundaries () =
  let region = make_region () in
  let db = Dirtybits.create ~mode:Config.Update_queue ~group:4 in
  let base = Region.base region in
  (* overlapping extends *)
  Dirtybits.note_write db ~region ~addr:base ~len:16;
  Dirtybits.note_write db ~region ~addr:(base + 8) ~len:16;
  Alcotest.(check int) "overlap coalesces" 1 (Dirtybits.queue_length db);
  (* exactly adjacent extends *)
  Dirtybits.note_write db ~region ~addr:(base + 24) ~len:8;
  Alcotest.(check int) "adjacency coalesces" 1 (Dirtybits.queue_length db);
  (* a gap appends *)
  Dirtybits.note_write db ~region ~addr:(base + 64) ~len:8;
  Alcotest.(check int) "gap appends" 2 (Dirtybits.queue_length db)

let test_update_queue_partial_consumption () =
  (* a queued entry straddling the scanned range splits: the inside part
     is consumed, the outside part survives *)
  let region = make_region () in
  let db = Dirtybits.create ~mode:Config.Update_queue ~group:4 in
  let base = Region.base region in
  Dirtybits.note_write db ~region ~addr:base ~len:32;
  let _, emitted =
    base_scan db ~region ~ranges:[ Range.v base 16 ] ~stamp:9 ~select:(Dirtybits.Transfer 0)
  in
  Alcotest.(check int) "two lines from the inside part" 2 (List.length emitted);
  Alcotest.(check int) "outside part survives" 1 (Dirtybits.queue_length db);
  let _, emitted2 =
    base_scan db ~region ~ranges:[ Range.v (base + 16) 16 ] ~stamp:10
      ~select:(Dirtybits.Transfer 0)
  in
  Alcotest.(check int) "outside part eventually consumed" 2 (List.length emitted2);
  Alcotest.(check int) "queue drained" 0 (Dirtybits.queue_length db)

(* --- Vm_state ----------------------------------------------------------- *)

let vm_env () =
  let space = Space.create ~region_size:65536 ~nprocs:2 () in
  let addr = Space.alloc space ~kind:Region.Shared ~line_size:8 4096 in
  let vm = Vm_state.create ~page_size:4096 in
  let counters = Counters.create () in
  (space, addr, vm, counters, Cost_model.default)

let test_vm_fault_once () =
  let space, addr, vm, counters, cost = vm_env () in
  let ns1 = Vm_state.on_write vm ~space ~proc:0 ~counters ~cost ~addr in
  Alcotest.(check int) "first write pays the fault" cost.Cost_model.page_fault_ns ns1;
  Alcotest.(check int) "counted" 1 counters.Counters.write_faults;
  let ns2 = Vm_state.on_write vm ~space ~proc:0 ~counters ~cost ~addr:(addr + 8) in
  Alcotest.(check int) "subsequent writes free" 0 ns2;
  Alcotest.(check int) "still one fault" 1 counters.Counters.write_faults

let test_vm_collect_ships_only_modified () =
  let space, addr, vm, counters, cost = vm_env () in
  ignore (Vm_state.on_write vm ~space ~proc:0 ~counters ~cost ~addr);
  (* values with every byte nonzero, so both 4-byte words of each
     doubleword show up in the diff *)
  Space.set_int space ~proc:0 addr 0x0102030405060708;
  Space.set_int space ~proc:0 (addr + 16) 0x1112131415161718;
  let pieces, _ = Vm_state.collect vm ~space ~proc:0 ~counters ~cost ~ranges:[ Range.v addr 4096 ] in
  Alcotest.(check int) "two modified doublewords shipped" 16 (Payload.pieces_bytes pieces);
  Alcotest.(check int) "one page diffed" 1 counters.Counters.pages_diffed;
  Alcotest.(check int) "page reprotected" 1 counters.Counters.pages_write_protected;
  (* collection cleaned the page: another write faults again *)
  let ns = Vm_state.on_write vm ~space ~proc:0 ~counters ~cost ~addr in
  Alcotest.(check bool) "refaults" true (ns > 0)

let test_vm_pending_reuse () =
  (* Modifications outside the transferred lock's ranges are saved and
     shipped by the next transfer that covers them (the paper's saved
     diff reuse). *)
  let space, addr, vm, counters, cost = vm_env () in
  ignore (Vm_state.on_write vm ~space ~proc:0 ~counters ~cost ~addr);
  Space.set_int space ~proc:0 addr 0x0101010101010101;
  Space.set_int space ~proc:0 (addr + 512) 0x0202020202020202;
  let pieces1, _ =
    Vm_state.collect vm ~space ~proc:0 ~counters ~cost ~ranges:[ Range.v addr 256 ]
  in
  Alcotest.(check int) "only the bound word ships" 8 (Payload.pieces_bytes pieces1);
  Alcotest.(check int) "other modification saved" 1 (Vm_state.pending_pages vm);
  Alcotest.(check int) "one diff so far" 1 counters.Counters.pages_diffed;
  let pieces2, _ =
    Vm_state.collect vm ~space ~proc:0 ~counters ~cost
      ~ranges:[ Range.v (addr + 256) 1024 ]
  in
  Alcotest.(check int) "saved diff shipped without re-diffing" 8
    (Payload.pieces_bytes pieces2);
  Alcotest.(check int) "no second diff" 1 counters.Counters.pages_diffed;
  Alcotest.(check int) "pending drained" 0 (Vm_state.pending_pages vm);
  match pieces2 with
  | [ p ] ->
      Alcotest.(check int) "right address" (addr + 512) p.Payload.addr;
      Alcotest.(check int64) "right data" 0x0202020202020202L (Bytes.get_int64_le p.Payload.data 0)
  | _ -> Alcotest.fail "expected one piece"

let test_vm_stale_pending_superseded () =
  (* Regression for the cholesky corruption: a word is modified, stashed
     as a saved diff by another lock's transfer, modified again and
     re-diffed.  The fresh value must win at the requester. *)
  let space, addr, vm, counters, cost = vm_env () in
  ignore (Vm_state.on_write vm ~space ~proc:0 ~counters ~cost ~addr);
  Space.set_f64 space ~proc:0 (addr + 512) 17.0;
  (* a transfer of a lock NOT covering addr+512 stashes it *)
  ignore (Vm_state.collect vm ~space ~proc:0 ~counters ~cost ~ranges:[ Range.v addr 8 ]);
  Alcotest.(check int) "stashed" 1 (Vm_state.pending_pages vm);
  (* modify the word again (refaults, new twin) *)
  ignore (Vm_state.on_write vm ~space ~proc:0 ~counters ~cost ~addr:(addr + 512));
  Space.set_f64 space ~proc:0 (addr + 512) 16.858259379338133;
  let pieces, _ =
    Vm_state.collect vm ~space ~proc:0 ~counters ~cost ~ranges:[ Range.v (addr + 512) 8 ]
  in
  (* apply to proc 1 in payload order: the fresh value must be final *)
  Payload.write_pieces space ~proc:1 pieces;
  Alcotest.(check (float 0.0)) "fresh value wins" 16.858259379338133
    (Space.get_f64 space ~proc:1 (addr + 512))

let test_vm_discard_pending () =
  let space, addr, vm, counters, cost = vm_env () in
  ignore (Vm_state.on_write vm ~space ~proc:0 ~counters ~cost ~addr);
  Space.set_int space ~proc:0 (addr + 512) 0x0303030303030303;
  ignore (Vm_state.collect vm ~space ~proc:0 ~counters ~cost ~ranges:[ Range.v addr 8 ]);
  Alcotest.(check int) "stashed" 1 (Vm_state.pending_pages vm);
  (* a full transfer of [addr+512, +8) supersedes the stash *)
  Vm_state.discard_pending vm ~ranges:[ Range.v (addr + 512) 8 ];
  Alcotest.(check int) "dropped" 0 (Vm_state.pending_pages vm);
  let pieces, _ =
    Vm_state.collect vm ~space ~proc:0 ~counters ~cost ~ranges:[ Range.v (addr + 512) 8 ]
  in
  Alcotest.(check int) "nothing re-shipped" 0 (Payload.pieces_bytes pieces)

let test_vm_apply_patches_twin () =
  let space, addr, vm, counters, cost = vm_env () in
  (* proc 0 dirties the page, then receives an update for another word *)
  ignore (Vm_state.on_write vm ~space ~proc:0 ~counters ~cost ~addr);
  Space.set_int space ~proc:0 addr 0x0505050505050505;
  let data = Bytes.create 8 in
  Bytes.set_int64_le data 0 (Int64.bits_of_float 99.0);
  let cost_ns =
    Vm_state.apply_pieces vm ~space ~proc:0 ~counters ~cost
      [ { Payload.addr = addr + 64; data } ]
  in
  Alcotest.(check bool) "apply charged" true (cost_ns > 0);
  Alcotest.(check int) "twin patched" 8 counters.Counters.twin_update_bytes;
  (* the incoming update must NOT be collected as a local modification *)
  let pieces, _ = Vm_state.collect vm ~space ~proc:0 ~counters ~cost ~ranges:[ Range.v addr 4096 ] in
  Alcotest.(check int) "only the local write ships" 8 (Payload.pieces_bytes pieces);
  match pieces with
  | [ p ] -> Alcotest.(check int) "local write's address" addr p.Payload.addr
  | _ -> Alcotest.fail "expected exactly the locally modified word"

(* The list-based saved-diff store Vm_state replaced, kept as the model
   its bitmap store must match: each page's saved bytes as a normalized
   Range.t list, rebuilt by clip/subtract/normalize at every save, take
   and apply. *)
module Vm_model = struct
  module Page_table = Midway_vmem.Page_table
  module Diff = Midway_vmem.Diff

  type pending_page = { shadow : Bytes.t; mutable dirty : Range.t list }

  type t = { pt : Page_table.t; pending : (int, pending_page) Hashtbl.t }

  let create ~page_size = { pt = Page_table.create ~page_size; pending = Hashtbl.create 64 }

  let page_size t = Page_table.page_size t.pt

  let on_write t ~space ~proc ~counters ~cost ~addr =
    let page = Page_table.page_of_addr t.pt addr in
    match page.Page_table.prot with
    | Page_table.Read_write -> 0
    | Page_table.Read_only ->
        let psize = page_size t in
        let contents = Space.read_bytes space ~proc (addr / psize * psize) ~len:psize in
        ignore (Page_table.fault_on_write t.pt ~addr ~contents);
        counters.Counters.write_faults <- counters.Counters.write_faults + 1;
        cost.Cost_model.page_fault_ns

  let pending_for t number =
    match Hashtbl.find_opt t.pending number with
    | Some p -> p
    | None ->
        let p = { shadow = Bytes.create (page_size t); dirty = [] } in
        Hashtbl.replace t.pending number p;
        p

  let save_outside t ~page_number ~page_base ~current ~cur_off = function
    | [] -> ()
    | outside ->
        let p = pending_for t page_number in
        List.iter
          (fun (r : Range.t) ->
            Bytes.blit current (cur_off + (r.Range.addr - page_base)) p.shadow
              (r.Range.addr - page_base) r.Range.len)
          outside;
        p.dirty <- Range.normalize (outside @ p.dirty)

  let take_pending t ~ranges ~page_numbers =
    let pieces = ref [] in
    List.iter
      (fun number ->
        match Hashtbl.find_opt t.pending number with
        | None -> ()
        | Some p ->
            let page_base = number * page_size t in
            let inside = List.concat_map (fun d -> Range.clip d ~within:ranges) p.dirty in
            if inside <> [] then begin
              List.iter
                (fun (r : Range.t) ->
                  pieces :=
                    { Payload.addr = r.Range.addr;
                      data = Bytes.sub p.shadow (r.Range.addr - page_base) r.Range.len }
                    :: !pieces)
                (Range.normalize inside);
              let remaining =
                List.concat_map (fun d -> Range.subtract d ~minus:ranges) p.dirty
                |> Range.normalize
              in
              if remaining = [] then Hashtbl.remove t.pending number else p.dirty <- remaining
            end)
      page_numbers;
    !pieces

  let collect t ~space ~proc ~counters ~cost ~ranges =
    let psize = page_size t in
    let page_numbers =
      List.concat_map
        (fun (r : Range.t) ->
          if Range.is_empty r then []
          else
            let first = r.Range.addr / psize and last = (Range.limit r - 1) / psize in
            List.init (last - first + 1) (fun i -> first + i))
        ranges
      |> List.sort_uniq compare
    in
    let pieces = ref [] and total_cost = ref 0 in
    List.iter
      (fun number ->
        let page = Page_table.page_of_addr t.pt (number * psize) in
        if page.Page_table.dirty then begin
          let page_base = number * psize in
          let current = Space.backing_slice space ~proc page_base ~len:psize in
          let cur_off = page_base land (Space.region_size space - 1) in
          let twin = Option.get page.Page_table.twin in
          let runs, transitions =
            Diff.diff_between ~old_:twin ~old_off:0 ~new_:current ~new_off:cur_off ~len:psize
          in
          counters.Counters.pages_diffed <- counters.Counters.pages_diffed + 1;
          total_cost := !total_cost + Cost_model.diff_cost_ns cost ~words:(psize / 4) ~transitions;
          let modified =
            List.map (fun (r : Diff.run) -> Range.v (page_base + r.Diff.off) r.Diff.len) runs
          in
          let inside = List.concat_map (fun m -> Range.clip m ~within:ranges) modified in
          let outside = List.concat_map (fun m -> Range.subtract m ~minus:ranges) modified in
          List.iter
            (fun (r : Range.t) ->
              pieces :=
                { Payload.addr = r.Range.addr;
                  data = Bytes.sub current (cur_off + (r.Range.addr - page_base)) r.Range.len }
                :: !pieces)
            (Range.normalize inside);
          save_outside t ~page_number:number ~page_base ~current ~cur_off outside;
          Page_table.clean t.pt page;
          counters.Counters.pages_write_protected <- counters.Counters.pages_write_protected + 1;
          total_cost := !total_cost + cost.Cost_model.page_protect_ro_ns
        end)
      page_numbers;
    let saved = take_pending t ~ranges ~page_numbers in
    (saved @ List.rev !pieces, !total_cost)

  let apply_pieces t ~space ~proc ~counters ~cost pieces =
    let psize = page_size t in
    let total_cost = ref 0 in
    List.iter
      (fun (p : Payload.vm_piece) ->
        let len = Bytes.length p.Payload.data in
        Space.write_bytes space ~proc p.Payload.addr p.Payload.data;
        total_cost := !total_cost + Cost_model.copy_cost_ns cost ~bytes:len ~warm:true;
        if len > 0 then
          for number = p.Payload.addr / psize to (p.Payload.addr + len - 1) / psize do
            let page = Page_table.page_of_addr t.pt (number * psize) in
            (match page.Page_table.twin with
            | Some twin when page.Page_table.dirty ->
                let page_base = number * psize in
                let lo = max p.Payload.addr page_base in
                let hi = min (p.Payload.addr + len) (page_base + psize) in
                Bytes.blit p.Payload.data (lo - p.Payload.addr) twin (lo - page_base) (hi - lo);
                counters.Counters.twin_update_bytes <- counters.Counters.twin_update_bytes + (hi - lo);
                total_cost := !total_cost + Cost_model.copy_cost_ns cost ~bytes:(hi - lo) ~warm:true
            | _ -> ());
            match Hashtbl.find_opt t.pending number with
            | None -> ()
            | Some pp ->
                let applied = Range.v p.Payload.addr len in
                let remaining =
                  List.concat_map (fun d -> Range.subtract d ~minus:[ applied ]) pp.dirty
                  |> Range.normalize
                in
                if remaining = [] then Hashtbl.remove t.pending number else pp.dirty <- remaining
          done)
      pieces;
    !total_cost

  let discard_pending t ~ranges =
    let psize = page_size t in
    let affected = ref [] in
    Hashtbl.iter
      (fun number p ->
        if List.exists (fun (r : Range.t) -> Range.overlaps r (Range.v (number * psize) psize)) ranges
        then
          affected :=
            (number, List.concat_map (fun d -> Range.subtract d ~minus:ranges) p.dirty
                     |> Range.normalize)
            :: !affected)
      t.pending;
    List.iter
      (fun (number, remaining) ->
        if remaining = [] then Hashtbl.remove t.pending number
        else (Hashtbl.find t.pending number).dirty <- remaining)
      !affected

  let pending_pages t = Hashtbl.length t.pending

  let forget t ~ranges =
    let psize = page_size t in
    List.iter
      (fun (r : Range.t) ->
        if not (Range.is_empty r) then
          for number = r.Range.addr / psize to (Range.limit r - 1) / psize do
            let page = Page_table.page_of_addr t.pt (number * psize) in
            if page.Page_table.dirty then Page_table.clean t.pt page
          done)
      ranges;
    discard_pending t ~ranges
end

(* Random programs for one processor over four 256-byte pages: stores,
   collections under 2-4 locks whose ranges share pages and whose bounds
   need not be word-aligned, applied pieces, discards and forgets. *)
type vm_op =
  | Store of int * int * int  (* offset, length, byte *)
  | Collect of int  (* lock *)
  | Apply of int * int * int  (* offset, length, byte *)
  | Discard of int
  | Forget of int

let vm_area = 1024

let vm_ops_gen =
  let open QCheck.Gen in
  let lock_ranges =
    list_size (int_range 1 3)
      (map2 (fun a l -> (a, l)) (int_bound (vm_area - 1)) (int_range 1 300))
  in
  let op nlocks =
    frequency
      [
        (6, map3 (fun o l b -> Store (o, l, b)) (int_bound (vm_area - 1)) (int_range 1 24) (int_range 1 255));
        (4, map (fun k -> Collect k) (int_bound (nlocks - 1)));
        (2, map3 (fun o l b -> Apply (o, l, b)) (int_bound (vm_area - 1)) (int_range 1 24) (int_range 0 255));
        (1, map (fun k -> Discard k) (int_bound (nlocks - 1)));
        (1, map (fun k -> Forget k) (int_bound (nlocks - 1)));
      ]
  in
  int_range 2 4 >>= fun nlocks ->
  pair (list_repeat nlocks lock_ranges) (list_size (int_range 1 60) (op nlocks))

let vm_op_to_string = function
  | Store (o, l, b) -> Printf.sprintf "store %d+%d=%d" o l b
  | Collect k -> Printf.sprintf "collect %d" k
  | Apply (o, l, b) -> Printf.sprintf "apply %d+%d=%d" o l b
  | Discard k -> Printf.sprintf "discard %d" k
  | Forget k -> Printf.sprintf "forget %d" k

let vm_matches_list_model =
  QCheck.Test.make ~name:"bitmap saved diffs equal the list-based model" ~count:300
    (QCheck.make
       ~print:(fun (locks, ops) ->
         String.concat " | "
           (List.map
              (fun rs -> String.concat "," (List.map (fun (a, l) -> Printf.sprintf "[%d,+%d)" a l) rs))
              locks)
         ^ " :: " ^ String.concat "; " (List.map vm_op_to_string ops))
       vm_ops_gen)
    (fun (locks, ops) ->
      let page_size = 256 and cost = Cost_model.default in
      let side () =
        let space = Space.create ~region_size:65536 ~nprocs:1 () in
        (space, Space.alloc space ~kind:Region.Shared ~line_size:8 vm_area, Counters.create ())
      in
      let space, base, counters = side () and mspace, mbase, mcounters = side () in
      let vm = Vm_state.create ~page_size and model = Vm_model.create ~page_size in
      let ranges_of base k =
        Range.normalize
          (List.map
             (fun (a, l) -> Range.v (base + a) (Int.min l (vm_area - a)))
             (List.nth locks k))
      in
      let bytes l b = Bytes.make l (Char.chr b) in
      let clamp o l = Int.min l (vm_area - o) in
      let piece_eq (a : Payload.vm_piece) (b : Payload.vm_piece) =
        a.Payload.addr - base = b.Payload.addr - mbase && Bytes.equal a.Payload.data b.Payload.data
      in
      let step op =
        (match op with
        | Store (o, l, b) ->
            let l = clamp o l in
            ignore (Vm_state.on_store vm ~space ~proc:0 ~counters ~cost ~addr:(base + o) ~len:l);
            let a = mbase + o in
            for page = a / page_size to (a + l - 1) / page_size do
              ignore
                (Vm_model.on_write model ~space:mspace ~proc:0 ~counters:mcounters ~cost
                   ~addr:(Int.max a (page * page_size)))
            done;
            Space.write_bytes space ~proc:0 (base + o) (bytes l b);
            Space.write_bytes mspace ~proc:0 a (bytes l b);
            true
        | Collect k ->
            let got, ns = Vm_state.collect vm ~space ~proc:0 ~counters ~cost ~ranges:(ranges_of base k) in
            let want, mns =
              Vm_model.collect model ~space:mspace ~proc:0 ~counters:mcounters ~cost
                ~ranges:(ranges_of mbase k)
            in
            ns = mns && List.length got = List.length want && List.for_all2 piece_eq got want
        | Apply (o, l, b) ->
            let l = clamp o l in
            Vm_state.apply_pieces vm ~space ~proc:0 ~counters ~cost
              [ { Payload.addr = base + o; data = bytes l b } ]
            = Vm_model.apply_pieces model ~space:mspace ~proc:0 ~counters:mcounters ~cost
                [ { Payload.addr = mbase + o; data = bytes l b } ]
        | Discard k ->
            Vm_state.discard_pending vm ~ranges:(ranges_of base k);
            Vm_model.discard_pending model ~ranges:(ranges_of mbase k);
            true
        | Forget k ->
            Vm_state.forget vm ~ranges:(ranges_of base k);
            Vm_model.forget model ~ranges:(ranges_of mbase k);
            true)
        && Vm_state.pending_pages vm = Vm_model.pending_pages model
        && counters = mcounters
      in
      List.for_all step ops)

(* --- Update_log --------------------------------------------------------- *)

(* The list-based incarnation log the ring replaced, kept as the model
   it must match: entries newest first, trimmed to the window once the
   list doubles it; a rebinding replaces the log with its full marker;
   a requester's updates are the window's entries newer than its
   cursor, covered when none is missing. *)
module Log_model = struct
  type entry = Pieces of Payload.vm_piece list | Full_marker

  type t = { window : int; mutable incarnation : int; mutable log : (int * entry) list }

  let create ~window = { window; incarnation = 0; log = [] }

  let in_window t inc = inc >= t.incarnation - t.window

  let trim_log t log =
    let rec take n = function
      | [] -> []
      | _ when n = 0 -> []
      | e :: rest -> e :: take (n - 1) rest
    in
    if List.compare_length_with log (2 * t.window) <= 0 then log else take t.window log

  let record t entry =
    t.log <- trim_log t ((t.incarnation, entry) :: t.log);
    t.incarnation <- t.incarnation + 1

  let rebind t =
    t.incarnation <- t.incarnation + 1;
    t.log <- [ (t.incarnation - 1, Full_marker) ]

  let is_full = function Full_marker -> true | Pieces _ -> false

  let rebound_since t ~seen =
    seen < t.incarnation
    && List.exists (fun (inc, e) -> inc > seen && is_full e && in_window t inc) t.log

  let taken t ~seen = List.filter (fun (inc, _) -> inc > seen && in_window t inc) t.log

  let covered t ~seen = List.length (taken t ~seen) = t.incarnation - 1 - seen

  let updates t ~seen =
    List.rev_map (fun (_, e) -> match e with Pieces p -> p | Full_marker -> []) (taken t ~seen)

  let update_bytes t ~seen =
    List.fold_left (fun acc u -> acc + Payload.pieces_bytes u) 0 (updates t ~seen)
end

type log_event =
  | Logged of int  (* a collection's piece bytes (0: no pieces) *)
  | Full  (* a rebinding-forced full transfer *)
  | Rebind of bool  (* a rebinding; [true]: a backend switch's *)
  | Cursor of int  (* a requester's cursor, spread over [-1, incarnation] *)

let log_event_to_string = function
  | Logged n -> Printf.sprintf "logged %d" n
  | Full -> "full"
  | Rebind switch -> if switch then "rebind ~switch" else "rebind"
  | Cursor k -> Printf.sprintf "cursor %d" k

let log_events_gen =
  let open QCheck.Gen in
  pair (oneofl [ 1; 2; 4; 16 ])
    (list_size (int_range 1 80)
       (frequency
          [
            (6, map (fun n -> Logged n) (int_bound 40));
            (1, return Full);
            (2, map (fun b -> Rebind b) bool);
            (6, map (fun k -> Cursor k) (int_bound 1000));
          ]))

(* At every step the ring gives the model's rebound decision (and the
   adaptive policy's rebinding input, which also reads the switch
   watermark), and at every cursor its coverage; where covered, the
   same updates, oldest first, and the same byte total. *)
let ring_matches_list_model =
  QCheck.Test.make ~name:"incarnation ring equals the list-based log" ~count:500
    (QCheck.make
       ~print:(fun (window, events) ->
         Printf.sprintf "window %d :: %s" window
           (String.concat "; " (List.map log_event_to_string events)))
       log_events_gen)
    (fun (window, events) ->
      let ring = Update_log.create ~window and model = Log_model.create ~window in
      let switch_inc = ref 0 and step = ref 0 in
      let addrs = List.map (List.map (fun (p : Payload.vm_piece) -> p.Payload.addr)) in
      let agree ~seen =
        let ships_full rebound = Update_log.incarnation ring > !switch_inc && rebound in
        Update_log.incarnation ring = model.Log_model.incarnation
        && Update_log.rebound_since ring ~seen = Log_model.rebound_since model ~seen
        && ships_full (Update_log.rebound_since ring ~seen)
           = ships_full (Log_model.rebound_since model ~seen)
        && (seen >= model.Log_model.incarnation
           ||
           let covered = Log_model.covered model ~seen in
           Update_log.covers ring ~seen = covered
           && ((not covered)
              || addrs (Update_log.updates ring ~seen) = addrs (Log_model.updates model ~seen)
                 && Update_log.update_bytes ring ~seen = Log_model.update_bytes model ~seen))
      in
      List.for_all
        (fun event ->
          incr step;
          match event with
          | Logged n ->
              let pieces = if n = 0 then [] else [ { Payload.addr = !step; data = Bytes.make n 'x' } ] in
              Update_log.record ring pieces ~bytes:n;
              Log_model.record model (Log_model.Pieces pieces);
              agree ~seen:(-1)
          | Full ->
              Update_log.record_full ring;
              Log_model.record model Log_model.Full_marker;
              agree ~seen:(-1)
          | Rebind switch ->
              Update_log.rebind ring;
              Log_model.rebind model;
              if switch then switch_inc := Update_log.incarnation ring;
              agree ~seen:(-1)
          | Cursor k -> agree ~seen:((k mod (model.Log_model.incarnation + 2)) - 1))
        events)

(* --- Payload -------------------------------------------------------------- *)

let test_payload_sizes () =
  let runs_of list =
    let g = Gather.create () in
    List.iter (fun (addr, len, descs) -> Gather.push_run g ~addr ~len ~ts:5 ~descs) list;
    Payload.Rt_runs [ { Payload.runs = g; source = Payload.Copy 0 } ]
  in
  let two_lines = runs_of [ (0, 64, 1); (64, 64, 1) ] in
  Alcotest.(check int) "rt bytes" 128 (Payload.app_bytes two_lines);
  Alcotest.(check int) "rt descriptors" 2 (Payload.descriptors two_lines);
  (* a coalesced run still stands for its per-line descriptors on the wire *)
  Alcotest.(check int) "run descriptors" 5
    (Payload.descriptors (runs_of [ (0, 64, 1); (64, 256, 4) ]));
  let piece = { Payload.addr = 0; data = Bytes.make 10 ' ' } in
  Alcotest.(check int) "vm bytes" 20 (Payload.app_bytes (Payload.Vm_updates [ [ piece; piece ] ]));
  Alcotest.(check int) "empty" 0 (Payload.app_bytes Payload.Empty)

(* A barrier arrival's snapshot owns its runs and bytes: clearing and
   refilling the gather, or writing the memory it read, changes nothing
   it installs; the releaser's copy is read at install time. *)
let test_payload_snapshot () =
  let space = Space.create ~nprocs:3 () in
  let a = Space.alloc space ~kind:Region.Shared ~line_size:8 64 in
  Space.set_int space ~proc:0 a 7;
  Space.set_int space ~proc:0 (a + 32) 9;
  let g = Gather.create () in
  Gather.push_run g ~addr:a ~len:8 ~ts:5 ~descs:1;
  Gather.push_run g ~addr:(a + 32) ~len:16 ~ts:5 ~descs:2;
  let snap = Payload.snapshot space ~proc:0 g in
  let live = { Payload.runs = g; source = Payload.Copy 0 } in
  Gather.clear g;
  Gather.push_run g ~addr:(a + 8) ~len:8 ~ts:6 ~descs:1;
  Space.set_int space ~proc:0 a 70;
  let install part proc =
    let runs = part.Payload.runs and off = ref 0 in
    for i = 0 to Gather.length runs - 1 do
      let addr = Gather.addr runs i and len = Gather.len runs i in
      Payload.install space ~proc part ~addr ~off:!off ~len;
      off := !off + len
    done
  in
  install snap 1;
  Alcotest.(check (list int)) "snapshot runs" [ a; a + 32 ]
    (List.init (Gather.length snap.Payload.runs) (Gather.addr snap.Payload.runs));
  Alcotest.(check int) "snapshot value" 7 (Space.get_int space ~proc:1 a);
  Alcotest.(check int) "snapshot second run" 9 (Space.get_int space ~proc:1 (a + 32));
  Space.set_int space ~proc:0 (a + 8) 3;
  install live 2;
  Alcotest.(check int) "copy reads the releaser now" 3 (Space.get_int space ~proc:2 (a + 8));
  Alcotest.(check int) "copy installs only its runs" 0 (Space.get_int space ~proc:2 a)

let test_payload_read_write_pieces () =
  let space = Space.create ~nprocs:2 () in
  let a = Space.alloc space ~kind:Region.Shared 64 in
  Space.set_int space ~proc:0 a 7;
  Space.set_int space ~proc:0 (a + 32) 9;
  let pieces = Payload.read_pieces space ~proc:0 [ Range.v a 8; Range.v (a + 32) 8 ] in
  Payload.write_pieces space ~proc:1 pieces;
  Alcotest.(check int) "first" 7 (Space.get_int space ~proc:1 a);
  Alcotest.(check int) "second" 9 (Space.get_int space ~proc:1 (a + 32))

(* --- Sync ------------------------------------------------------------------ *)

(* Queue processor [proc]'s request for [l], arriving at [arrival]. *)
let enqueue l ~proc ~arrival ~mode =
  let r = Sync.request ~proc in
  r.Sync.r_lock <- l;
  r.Sync.r_arrival <- arrival;
  r.Sync.r_mode <- mode;
  Sync.enqueue_request r

let queued l = List.map (fun (r : Sync.request) -> (r.Sync.r_proc, r.Sync.r_arrival)) l.Sync.pending

let test_lock_queue_order () =
  let l = Sync.make_lock ~lid:0 ~nprocs:4 ~owner:0 ~ranges:[ Range.v 0 8 ] in
  enqueue l ~proc:2 ~arrival:50 ~mode:Sync.Exclusive;
  enqueue l ~proc:1 ~arrival:30 ~mode:Sync.Shared;
  enqueue l ~proc:3 ~arrival:50 ~mode:Sync.Exclusive;
  Alcotest.(check (list (pair int int))) "arrival order, processor tie-break"
    [ (1, 30); (2, 50); (3, 50) ]
    (queued l)

let test_lock_queue_tiebreak_determinism () =
  (* Equal arrival times are broken by processor id, so the grant order
     does not depend on the order the requests were enqueued in. *)
  let build order =
    let l = Sync.make_lock ~lid:0 ~nprocs:4 ~owner:0 ~ranges:[ Range.v 0 8 ] in
    List.iter (fun proc -> enqueue l ~proc ~arrival:50 ~mode:Sync.Exclusive) order;
    queued l
  in
  let expected = [ (1, 50); (2, 50); (3, 50) ] in
  Alcotest.(check (list (pair int int))) "ascending insertion" expected (build [ 1; 2; 3 ]);
  Alcotest.(check (list (pair int int))) "descending insertion" expected (build [ 3; 2; 1 ]);
  Alcotest.(check (list (pair int int))) "shuffled insertion" expected (build [ 2; 3; 1 ])

(* Two processors' detector state over one 64-byte shared area of 8-byte
   lines, with p0's detectors of both history schemes. *)
let detector_env ?(rt_mode = Config.Plain) () =
  let space = Space.create ~region_size:65536 ~nprocs:2 () in
  let a = Space.alloc space ~kind:Region.Shared ~line_size:8 64 in
  let cfg = { (Config.make Config.Rt ~nprocs:2) with Config.rt_mode } in
  let counters = Array.init 2 (fun _ -> Counters.create ()) in
  let env = Detector.env cfg space ~counters ~reliable:false in
  (space, a, env, Detector.create env ~proc:0 Config.Rt, Detector.create env ~proc:0 Config.Vm)

let test_rebind_resets_history () =
  let space, a, env, rt, vm = detector_env ~rt_mode:Config.Update_queue () in
  let l = Sync.make_lock ~lid:0 ~nprocs:2 ~owner:0 ~ranges:[ Range.v a 8 ] in
  (* p0 ships its write to p1: p1's cursor moves past it, and the update
     queue's per-line history records the line. *)
  Space.set_int space ~proc:0 a 7;
  ignore (Detector.trap rt ~region:(Space.region_of_addr space a) ~addr:a ~len:8);
  let _, _, stamp = Detector.collect_lock rt l ~for_:1 in
  Detector.advance rt l ~requester:1 stamp;
  Detector.rebind env l ~ranges:[ Range.v a 16 ];
  Alcotest.(check bool) "cursor reset" true (Detector.ships_full rt l ~for_:1);
  let payload, _, _ = Detector.collect_lock rt l ~for_:1 in
  Alcotest.(check bool) "per-line history cleared" true (payload = Payload.Empty);
  Alcotest.(check int) "incarnation bumped" 1 (Detector.incarnation env l);
  Alcotest.(check bool) "full marker recorded" true (Detector.ships_full vm l ~for_:1);
  Alcotest.(check int) "new binding" 16 (Sync.lock_bound_bytes l)

(* The adaptive policy's rebinding input counts the application's
   rebindings only, under both history schemes. *)
let test_switch_watermark () =
  let _, a, env, rt, vm = detector_env () in
  let l = Sync.make_lock ~lid:0 ~nprocs:2 ~owner:0 ~ranges:[ Range.v a 8 ] in
  let rebound () = (Detector.ships_full rt l ~for_:1, Detector.ships_full vm l ~for_:1) in
  Alcotest.(check (pair bool bool)) "a first transfer" (false, false) (rebound ());
  Detector.rebind env ~switch:true l ~ranges:l.Sync.ranges;
  Alcotest.(check (pair bool bool)) "a switch's rebinding" (false, false) (rebound ());
  Detector.rebind env l ~ranges:l.Sync.ranges;
  Alcotest.(check (pair bool bool)) "a later application rebinding" (true, true) (rebound ())

let test_barrier_validation () =
  Alcotest.check_raises "participants" (Invalid_argument "Sync.make_barrier: participants out of range")
    (fun () -> ignore (Sync.make_barrier ~bid:0 ~nprocs:2 ~participants:3 ~manager:0 ~ranges:[]));
  Alcotest.check_raises "manager" (Invalid_argument "Sync.make_barrier: manager out of range")
    (fun () -> ignore (Sync.make_barrier ~bid:0 ~nprocs:2 ~participants:2 ~manager:5 ~ranges:[]))

(* --- Event log ----------------------------------------------------------------- *)

module Obs = Midway_obs.Obs
module Event = Midway_obs.Event

let local i = Event.Lock_local { t = i; lock = 0; proc = 0; shared = false }

let times log = List.map Event.time (Obs.events log)

let test_trace_ring () =
  let log = Obs.create ~capacity:3 () in
  Alcotest.(check int) "empty" 0 (Obs.length log);
  for i = 1 to 5 do
    Obs.record log (local i)
  done;
  Alcotest.(check int) "capped" 3 (Obs.length log);
  Alcotest.(check int) "counts drops" 5 (Obs.total log);
  Alcotest.(check (list int)) "oldest first, oldest dropped" [ 3; 4; 5 ] (times log);
  Alcotest.(check (list int)) "tail of two" [ 4; 5 ] (List.map Event.time (Obs.tail log 2))

let test_trace_wraparound_boundaries () =
  (* Walk the ring through several full revolutions, checking total vs
     length and the oldest-first window at every step — off-by-ones at
     the wrap point would show up as a shifted or reordered window. *)
  let cap = 3 in
  let log = Obs.create ~capacity:cap () in
  for i = 0 to 9 do
    Obs.record log (local i);
    let expect_len = min (i + 1) cap in
    Alcotest.(check int) (Printf.sprintf "length after %d records" (i + 1)) expect_len
      (Obs.length log);
    Alcotest.(check int) (Printf.sprintf "total after %d records" (i + 1)) (i + 1) (Obs.total log);
    let expect_times = List.init expect_len (fun k -> i + 1 - expect_len + k) in
    Alcotest.(check (list int)) (Printf.sprintf "window after %d records" (i + 1)) expect_times
      (times log)
  done;
  Alcotest.(check (list int)) "three full revolutions end oldest-first" [ 7; 8; 9 ] (times log)

let test_trace_capacity_one () =
  let log = Obs.create ~capacity:1 () in
  for i = 1 to 4 do
    Obs.record log (local i)
  done;
  Alcotest.(check int) "length stays 1" 1 (Obs.length log);
  Alcotest.(check int) "total counts every record" 4 (Obs.total log);
  Alcotest.(check (list int)) "only the newest survives" [ 4 ] (times log)

let test_trace_disabled () =
  (* a disabled log is no log: the runtime keeps [None] and builds no
     event, so a zero capacity is a caller error *)
  Alcotest.check_raises "zero capacity rejected"
    (Invalid_argument "Obs.create: capacity must be positive") (fun () ->
      ignore (Obs.create ~capacity:0 ()))

let test_log_unbounded () =
  (* without a capacity the log keeps every event, growing past its
     initial array *)
  let log = Obs.create () in
  for i = 1 to 1_000 do
    Obs.record log (local i)
  done;
  Alcotest.(check int) "every event kept" 1_000 (Obs.length log);
  Alcotest.(check int) "total" 1_000 (Obs.total log);
  Alcotest.(check (list int)) "oldest first" (List.init 1_000 (fun i -> i + 1)) (times log)

let test_trace_render () =
  let log = Obs.create ~capacity:8 () in
  Obs.record log
    (Event.Lock_granted
       { t = 1_000; lock = 2; from_ = 0; to_ = 1; shared = false; payload_bytes = 64 });
  Obs.record log (Event.Barrier_completed { t = 2_000; barrier = 5; episode = 3 });
  match List.map Event.to_string (Obs.events log) with
  | [ grant; barrier ] ->
      Alcotest.(check string) "grant rendered" "1.00 us      lock 2: p0 -> p1, 64 B" grant;
      Alcotest.(check string) "barrier rendered" "2.00 us      barrier 5: episode 3 complete"
        barrier
  | l -> Alcotest.fail (Printf.sprintf "expected 2 lines, got %d" (List.length l))

(* --- Config ------------------------------------------------------------------ *)

let test_config () =
  List.iter
    (fun (s, b) ->
      Alcotest.(check bool) ("parse " ^ s) true (Config.backend_of_string s = Ok b))
    [ ("rt", Config.Rt); ("vm", Config.Vm); ("blast", Config.Blast);
      ("standalone", Config.Standalone); ("uni", Config.Standalone) ];
  Alcotest.(check bool) "reject junk" true
    (match Config.backend_of_string "nope" with Error _ -> true | Ok _ -> false);
  (* names are matched exactly: whitespace and case drift are rejected
     with a did-you-mean hint, and every error lists the valid names *)
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun s ->
      match Config.backend_of_string s with
      | Ok _ -> Alcotest.failf "%S must be rejected (exact matching)" s
      | Error msg ->
          Alcotest.(check bool) (Printf.sprintf "%S gets a did-you-mean" s) true
            (contains msg "did you mean");
          Alcotest.(check bool) (Printf.sprintf "%S lists valid names" s) true
            (contains msg "standalone"))
    [ " rt"; "rt "; "RT"; "Vm"; "\tvm"; "BLAST" ];
  (match Config.backend_of_string "nope" with
  | Ok _ -> Alcotest.fail "junk accepted"
  | Error msg ->
      Alcotest.(check bool) "junk error lists valid names" true (contains msg "vm-fine"));
  let cfg = Config.make Config.Rt ~nprocs:8 in
  Alcotest.(check int) "nprocs" 8 cfg.Config.nprocs;
  Alcotest.(check string) "name round trip" "rt" (Config.backend_name cfg.Config.backend);
  Alcotest.check_raises "nprocs positive" (Invalid_argument "Config.make: nprocs must be positive")
    (fun () -> ignore (Config.make Config.Rt ~nprocs:0))

(* The incarnation log is a ring indexed by [incarnation mod window]: a
   window below 1 is refused before a machine is built, with the value
   named, rather than failing in the middle of a transfer. *)
let test_log_window_at_least_one () =
  let with_window w = { (Config.make Config.Vm ~nprocs:2) with Config.update_log_window = w } in
  List.iter
    (fun w ->
      let msg =
        Printf.sprintf
          "update_log_window must be at least 1, got %d (the VM incarnation log keeps that many \
           incarnations of updates per lock)"
          w
      in
      Alcotest.(check (result unit string)) (Printf.sprintf "window %d" w) (Error msg)
        (Midway.Runtime.validate (with_window w));
      Alcotest.check_raises (Printf.sprintf "window %d: create" w)
        (Invalid_argument ("Runtime.create: " ^ msg)) (fun () ->
          ignore (Midway.Runtime.create (with_window w))))
    [ 0; -1 ];
  Alcotest.(check (result unit string)) "window 1" (Ok ()) (Midway.Runtime.validate (with_window 1))

let () =
  Alcotest.run "core"
    [
      ( "range",
        [
          Alcotest.test_case "basics" `Quick test_range_basics;
          Alcotest.test_case "normalize merges" `Quick test_normalize_merges;
          Alcotest.test_case "normalize edge cases" `Quick test_normalize_edge_cases;
          Alcotest.test_case "overlaps edge cases" `Quick test_overlaps_edge_cases;
          Alcotest.test_case "contains" `Quick test_contains;
          Alcotest.test_case "iter_lines widens" `Quick test_iter_lines_widens;
          qtest normalize_preserves_coverage;
          qtest normalize_disjoint_sorted;
          qtest subtract_complements_clip;
          qtest iter_lines_covers;
        ] );
      ( "timestamp",
        [
          Alcotest.test_case "encoding" `Quick test_timestamp_encoding;
          qtest timestamp_total_order;
        ] );
      ( "dirtybits",
        [
          Alcotest.test_case "first transfer ships all" `Quick test_dirtybits_plain_first_transfer;
          Alcotest.test_case "stamping and cursor filter" `Quick test_dirtybits_stamping_and_filter;
          Alcotest.test_case "fresh-only selection" `Quick test_dirtybits_fresh_only;
          Alcotest.test_case "area writes dirty every line" `Quick test_dirtybits_area_write;
          Alcotest.test_case "two-level skipping" `Quick test_two_level_skips;
          Alcotest.test_case "group must be a power of two" `Quick test_group_power_of_two;
          Alcotest.test_case "update-queue mode" `Quick test_update_queue_mode;
          Alcotest.test_case "update-queue coalescing" `Quick
            test_update_queue_coalescing_boundaries;
          Alcotest.test_case "update-queue partial consumption" `Quick
            test_update_queue_partial_consumption;
          qtest two_level_equals_plain;
          qtest scan_matches_per_line_oracle;
        ] );
      ( "vm_state",
        [
          Alcotest.test_case "fault once per page" `Quick test_vm_fault_once;
          Alcotest.test_case "collect ships only modified" `Quick test_vm_collect_ships_only_modified;
          Alcotest.test_case "saved diff reuse" `Quick test_vm_pending_reuse;
          Alcotest.test_case "stale pending superseded" `Quick test_vm_stale_pending_superseded;
          Alcotest.test_case "discard pending" `Quick test_vm_discard_pending;
          Alcotest.test_case "apply patches twin" `Quick test_vm_apply_patches_twin;
          qtest vm_matches_list_model;
        ] );
      ("update_log", [ qtest ring_matches_list_model ]);
      ( "payload",
        [
          Alcotest.test_case "sizes" `Quick test_payload_sizes;
          Alcotest.test_case "read/write pieces" `Quick test_payload_read_write_pieces;
          Alcotest.test_case "snapshot owns its bytes" `Quick test_payload_snapshot;
        ] );
      ( "sync",
        [
          Alcotest.test_case "queue order" `Quick test_lock_queue_order;
          Alcotest.test_case "queue tie-break determinism" `Quick
            test_lock_queue_tiebreak_determinism;
          Alcotest.test_case "rebind resets history" `Quick test_rebind_resets_history;
          Alcotest.test_case "switch watermark" `Quick test_switch_watermark;
          Alcotest.test_case "barrier validation" `Quick test_barrier_validation;
        ] );
      ( "trace",
        [
          Alcotest.test_case "ring semantics" `Quick test_trace_ring;
          Alcotest.test_case "wraparound boundaries" `Quick test_trace_wraparound_boundaries;
          Alcotest.test_case "capacity one" `Quick test_trace_capacity_one;
          Alcotest.test_case "disabled" `Quick test_trace_disabled;
          Alcotest.test_case "unbounded keeps every event" `Quick test_log_unbounded;
          Alcotest.test_case "rendering" `Quick test_trace_render;
        ] );
      ( "config",
        [
          Alcotest.test_case "parsing and construction" `Quick test_config;
          Alcotest.test_case "update log window at least 1" `Quick test_log_window_at_least_one;
        ] );
    ]
