(* Per-region hybrid write detection, plus the PR's hot-path
   correctness sweep:

   - the coalesced dirtybit scan checked against a per-line reference
     model across random writes, incoming stamps, epoch-style resets and
     both scanning organizations, in a small region and in one whose
     table grows mid-sequence;
   - update-queue bookkeeping across scans and region resets;
   - the space accessor's last-hit cache under interleaved processors,
     regions and boundary probes, and under copies that grow;
   - the VM zero-copy collect path failing loudly on a page that spans
     two regions (the migrated-bucket shape);
   - mixed-backend machines (alternating rt/vm regions) converging to the
     same memory image as pure-backend runs, with per-region collect
     accounting summing exactly to the processor counters;
   - the adaptive controller's window/hysteresis/cooldown/min-gain
     arithmetic, and manual region re-election safety. *)

module R = Midway.Runtime
module Range = Midway.Range
module Config = Midway.Config
module Policy = Midway.Policy
module Timestamp = Midway.Timestamp
module Dirtybits = Midway.Dirtybits
module Vm_state = Midway.Vm_state
module Space = Midway_memory.Space
module Region = Midway_memory.Region
module Page_table = Midway_vmem.Page_table
module Counters = Midway_stats.Counters
module Cost_model = Midway_stats.Cost_model
module Hybrid = Midway_apps.Hybrid
module Outcome = Midway_apps.Outcome
module Ecgen = Midway_explore.Ecgen
module Workload = Midway_explore.Workload

let qtest = QCheck_alcotest.to_alcotest

(* --- coalesced scan vs a per-line reference model ----------------------- *)

(* 64 lines of 8 bytes inside one region; the model tracks each line's
   timestamp and locally-dirty flag and replays the documented scan and
   stamp semantics line by line.  The coalesced scan must agree on the emitted
   (line, ts, fresh) set, on the post-scan timestamps, and (in Plain
   mode, which skips nothing) on the clean/dirty read counts.  A second
   input runs the same ops over a 1 MiB region, whose table starts at
   one granule's lines and grows as writes, stamps and scans reach
   further out. *)

let nlines = 64

type model = { mts : int array; mdirty : bool array }

let model_create n = { mts = Array.make n Timestamp.initial; mdirty = Array.make n false }

let model_write m ~line_lo ~line_hi =
  for i = line_lo to line_hi do
    m.mdirty.(i) <- true
  done

let model_set_ts m ~line ~ts =
  m.mts.(line) <- ts;
  m.mdirty.(line) <- false

let model_reset m =
  Array.fill m.mts 0 (Array.length m.mts) Timestamp.initial;
  Array.fill m.mdirty 0 (Array.length m.mdirty) false

let model_scan m ~lo ~n ~stamp ~select =
  let clean = ref 0 and dirty = ref 0 and emitted = ref [] in
  for i = lo to lo + n - 1 do
    let fresh = m.mdirty.(i) in
    if fresh then begin
      m.mdirty.(i) <- false;
      m.mts.(i) <- stamp;
      incr dirty
    end
    else incr clean;
    let selected =
      match select with
      | Dirtybits.Transfer cursor -> m.mts.(i) > cursor
      | Dirtybits.Fresh_only -> fresh
    in
    if selected then emitted := (i, m.mts.(i), fresh) :: !emitted
  done;
  (!clean, !dirty, List.rev !emitted)

(* Expand each coalesced run back into lines, as test_core does. *)
let lines_of_scan db ~region ~base ~lo ~n ~stamp ~select =
  let emitted = ref [] in
  let counts =
    Dirtybits.scan db
      ~region_of:(fun _ -> region)
      ~ranges:[ Range.v (base + (lo * 8)) (n * 8) ]
      ~stamp ~select
      ~emit:(fun ~addr ~len ~ts ~fresh ~lines ->
        let line_len = len / lines in
        for i = 0 to lines - 1 do
          emitted := ((addr + (i * line_len) - base) / 8, ts, fresh) :: !emitted
        done)
  in
  (counts, List.rev !emitted)

(* Ops are decoded from integer triples so qcheck can shrink them.  In
   the 1 MiB region a line number [a] is spread to [a lsr (a mod 17)], so
   ops land at every scale from the first lines to the last, and scans
   cover at most 256 lines. *)
let scan_matches_model ?(big = false) mode =
  let lines = if big then (1 lsl 20) / 8 else nlines in
  let spread a = if big then a lsr (a mod 17) else a in
  let max_scan = if big then 256 else lines in
  let name =
    Printf.sprintf "coalesced scan == per-line model%s (%s)"
      (if big then " in a 1 MiB region" else "")
      (Config.rt_mode_name mode)
  in
  QCheck.Test.make ~name ~count:200
    QCheck.(
      list_of_size
        (Gen.int_range 1 (if big then 60 else 40))
        (triple (int_bound 20) (int_bound (lines - 1)) (int_bound 1000)))
    (fun ops ->
      let region =
        Region.create ~index:1 ~kind:Region.Shared ~line_size:8
          ~region_size:(if big then 1 lsl 20 else 4096)
          ~nprocs:1
      in
      let base = Region.base region in
      let db = Dirtybits.create ~mode ~group:16 in
      let m = model_create lines in
      let stamp = ref (Timestamp.initial + 100) in
      let ok = ref true in
      let check_line_ts () =
        for i = 0 to lines - 1 do
          let expect =
            if m.mdirty.(i) then Timestamp.locally_dirty else m.mts.(i)
          in
          if Dirtybits.line_ts db ~region ~addr:(base + (i * 8)) <> expect then ok := false
        done
      in
      List.iter
        (fun (kind, a, b) ->
          let a = spread a in
          match kind mod 5 with
          | 0 ->
              (* a store of 1..24 bytes at an arbitrary byte address *)
              let addr = base + (a * 8) + (b mod 8) in
              let len = 1 + (b mod 24) in
              let len = min len ((lines * 8) - (addr - base)) in
              Dirtybits.note_write db ~region ~addr ~len;
              model_write m ~line_lo:((addr - base) / 8)
                ~line_hi:((addr - base + len - 1) / 8)
          | 1 ->
              (* an incoming update's stamp *)
              let ts = Timestamp.initial + 1 + (b mod 500) in
              Dirtybits.set_ts db ~region ~addr:(base + (a * 8)) ~ts;
              model_set_ts m ~line:a ~ts
          | 2 ->
              (* a collection over a sub-range *)
              let lo = a in
              let n = 1 + (b mod min max_scan (lines - lo)) in
              let select =
                if b mod 5 = 0 then Dirtybits.Fresh_only
                else
                  Dirtybits.Transfer
                    (if b mod 3 = 0 then Timestamp.never_seen
                     else Timestamp.initial + (b mod 400))
              in
              stamp := !stamp + 3;
              let counts, got =
                lines_of_scan db ~region ~base ~lo ~n ~stamp:!stamp ~select
              in
              let clean, dirty, want = model_scan m ~lo ~n ~stamp:!stamp ~select in
              if got <> want then ok := false;
              (* Plain visits every line; Two_level may legally skip
                 clean groups below the cursor, so only Plain's read
                 counts are pinned. *)
              if mode = Config.Plain then
                if
                  counts.Dirtybits.clean_reads <> clean
                  || counts.Dirtybits.dirty_reads <> dirty
                then ok := false
          | 4 ->
              (* an applied run's stamp over a stretch of lines *)
              let ts = Timestamp.initial + 1 + (b mod 500) in
              let n = 1 + (b mod min 40 (lines - a)) in
              Dirtybits.set_ts_run db ~region ~addr:(base + (a * 8)) ~lines:n ~ts;
              for line = a to a + n - 1 do
                model_set_ts m ~line ~ts
              done
          | _ ->
              (* 3, the backend-switch path: forget everything *)
              Dirtybits.reset_region db region;
              model_reset m)
        ops;
      check_line_ts ();
      !ok)

let test_update_queue_bookkeeping () =
  let region =
    Region.create ~index:1 ~kind:Region.Shared ~line_size:8 ~region_size:4096 ~nprocs:1
  in
  let base = Region.base region in
  let db = Dirtybits.create ~mode:Config.Update_queue ~group:16 in
  Alcotest.(check int) "empty queue" 0 (Dirtybits.queue_length db);
  Dirtybits.note_write db ~region ~addr:base ~len:8;
  Dirtybits.note_write db ~region ~addr:(base + 8) ~len:8;
  Dirtybits.note_write db ~region ~addr:(base + 64) ~len:16;
  let queued = Dirtybits.queue_length db in
  Alcotest.(check bool) "writes queue" true (queued > 0);
  let counts, emitted =
    lines_of_scan db ~region ~base ~lo:0 ~n:nlines ~stamp:(Timestamp.initial + 10)
      ~select:(Dirtybits.Transfer Timestamp.never_seen)
  in
  Alcotest.(check int) "scan consumes the queue" queued counts.Dirtybits.queue_entries;
  Alcotest.(check int) "queue drained" 0 (Dirtybits.queue_length db);
  (* Only queued lines are visited: exactly lines 0, 1, 8 and 9. *)
  Alcotest.(check (list int)) "only written lines emitted" [ 0; 1; 8; 9 ]
    (List.sort compare (List.map (fun (l, _, _) -> l) emitted));
  Dirtybits.note_write db ~region ~addr:(base + 128) ~len:8;
  Alcotest.(check bool) "requeued" true (Dirtybits.queue_length db > 0);
  Dirtybits.reset_region db region;
  Alcotest.(check int) "reset drops queued writes" 0 (Dirtybits.queue_length db);
  let counts, emitted =
    lines_of_scan db ~region ~base ~lo:0 ~n:nlines ~stamp:(Timestamp.initial + 20)
      ~select:(Dirtybits.Transfer Timestamp.never_seen)
  in
  Alcotest.(check int) "nothing left to consume" 0 counts.Dirtybits.queue_entries;
  Alcotest.(check int) "nothing emitted after reset" 0 (List.length emitted)

(* --- the space accessor cache ------------------------------------------- *)

(* Every typed accessor of Space, with the bytes it touches. *)
let space_accessors =
  [
    ("get_u8", 1, fun s a -> ignore (Space.get_u8 s ~proc:0 a));
    ("set_u8", 1, fun s a -> Space.set_u8 s ~proc:0 a 1);
    ("get_i32", 4, fun s a -> ignore (Space.get_i32 s ~proc:0 a));
    ("set_i32", 4, fun s a -> Space.set_i32 s ~proc:0 a 1l);
    ("get_i64", 8, fun s a -> ignore (Space.get_i64 s ~proc:0 a));
    ("set_i64", 8, fun s a -> Space.set_i64 s ~proc:0 a 1L);
    ("get_f64", 8, fun s a -> ignore (Space.get_f64 s ~proc:0 a));
    ("set_f64", 8, fun s a -> Space.set_f64 s ~proc:0 a 1.0);
    ("get_int", 8, fun s a -> ignore (Space.get_int s ~proc:0 a));
    ("set_int", 8, fun s a -> Space.set_int s ~proc:0 a 1);
  ]

(* [access a], [w] bytes that start in one region and end in the next,
   must raise [Crosses_region] naming them. *)
let crosses name ~w a access =
  match access a with
  | () -> Alcotest.failf "%s across a region's end must raise" name
  | exception Space.Crosses_region { addr; len; last } ->
      Alcotest.(check (list int)) (name ^ ": addr, len, last") [ a; w; a + w - 1 ] [ addr; len; last ]

(* [access a], [w] bytes that leave mapped memory, must raise [Unmapped]
   naming the last of them. *)
let runs_off name ~w a access =
  match access a with
  | () -> Alcotest.failf "%s off mapped memory must raise" name
  | exception Space.Unmapped at ->
      Alcotest.(check int) (name ^ ": unmapped byte") (a + w - 1) at

let test_space_cache_coherence () =
  let space = Space.create ~region_size:4096 ~nprocs:2 () in
  (* three full regions: each 4096-byte allocation fills one *)
  let a = Space.alloc space ~kind:Region.Shared ~line_size:64 4096 in
  let b = Space.alloc space ~kind:Region.Shared ~line_size:64 4096 in
  let c = Space.alloc space ~kind:Region.Shared ~line_size:64 4096 in
  let areas = [| a; b; c |] in
  Alcotest.(check bool) "three distinct regions" true (a <> b && b <> c);
  (* interleave processors and regions so every access churns the
     per-processor last-hit cache, and mirror into a host-side model *)
  let model = Hashtbl.create 64 in
  let lcg = ref 12345 in
  let next () =
    lcg := ((!lcg * 1103515245) + 12_345) land 0x3FFFFFFF;
    !lcg
  in
  for _ = 1 to 2_000 do
    let proc = next () mod 2 in
    let addr = areas.(next () mod 3) + (next () mod 512 * 8) in
    if next () mod 3 = 0 then begin
      let v = next () in
      Space.set_int space ~proc addr v;
      Hashtbl.replace model (proc, addr) v
    end
    else
      let expect = match Hashtbl.find_opt model (proc, addr) with Some v -> v | None -> 0 in
      Alcotest.(check int) "cached read == model" expect (Space.get_int space ~proc addr)
  done;
  (* full sweep: the cache must never have served one processor another
     processor's backing, or one region another's *)
  Hashtbl.iter
    (fun (proc, addr) v ->
      Alcotest.(check int) "final sweep" v (Space.get_int space ~proc addr))
    model;
  (* boundary probes with a hot cache: in-region limits work, crossers
     and runs off the map fail loudly *)
  ignore (Space.get_int space ~proc:0 (a + 4096 - 8));
  List.iter
    (fun (name, w, access) ->
      (* the cursor holds a's copy, which ends where the region does *)
      ignore (Space.get_u8 space ~proc:0 (a + 4095));
      if w > 1 then crosses name ~w (a + 4096 - (w / 2)) (access space);
      runs_off name ~w (c + 4096 - (w / 2)) (access space))
    space_accessors;
  (match Space.read_bytes space ~proc:0 (a + 4088) ~len:16 with
  | _ -> Alcotest.fail "read across the a/b boundary must raise"
  | exception Space.Crosses_region { addr; len; last } ->
      Alcotest.(check int) "crosser addr" (a + 4088) addr;
      Alcotest.(check int) "crosser len" 16 len;
      Alcotest.(check int) "crosser last" (a + 4103) last);
  (match Space.backing_slice space ~proc:1 (b + 4000) ~len:200 with
  | _ -> Alcotest.fail "slice across the b/c boundary must raise"
  | exception Space.Crosses_region _ -> ());
  match Space.validate_range space (c + 4088) 16 with
  | _ -> Alcotest.fail "running off mapped memory must raise"
  | exception Space.Unmapped last -> Alcotest.(check int) "unmapped last" (c + 4103) last

(* The same probes through every typed accessor of Runtime, on an rt
   machine whose regions are a page long: two shared regions, then two
   private ones, the last region of the map. *)
let test_runtime_boundaries () =
  let m = R.create { (Config.make Config.Rt ~nprocs:1) with Config.region_size = 4096 } in
  let s1 = R.alloc m 4096 in
  let s2 = R.alloc m 4096 in
  let p1 = R.alloc m ~private_:true 4096 in
  let p2 = R.alloc m ~private_:true 4096 in
  Alcotest.(check (list int)) "four adjacent regions" [ s1 + 4096; p1 - 4096; p2 - 4096 ] [ s2; s2; p1 ];
  let shared =
    [
      ("read_u8", 1, fun c a -> ignore (R.read_u8 c a));
      ("write_u8", 1, fun c a -> R.write_u8 c a 1);
      ("read_i32", 4, fun c a -> ignore (R.read_i32 c a));
      ("write_i32", 4, fun c a -> R.write_i32 c a 1l);
      ("read_f64", 8, fun c a -> ignore (R.read_f64 c a));
      ("write_f64", 8, fun c a -> R.write_f64 c a 1.0);
      ("read_int", 8, fun c a -> ignore (R.read_int c a));
      ("write_int", 8, fun c a -> R.write_int c a 1);
    ]
  and private_ =
    [
      ("write_f64_private", 8, fun c a -> R.write_f64_private c a 1.0);
      ("write_int_private", 8, fun c a -> R.write_int_private c a 1);
    ]
  in
  R.run m (fun c ->
      let probe first last (name, w, access) =
        ignore (R.read_u8 c (first + 4095));
        if w > 1 then crosses name ~w (first + 4096 - (w / 2)) (access c);
        runs_off name ~w (last + 4096 - (w / 2)) (access c)
      in
      List.iter (probe s1 p2) shared;
      List.iter (probe p1 p2) private_)

(* --- copies that grow under the cache ------------------------------------ *)

(* A processor's copy of a region starts at the bytes in use and grows
   when an access reaches past its end; a growth replaces the buffer the
   processor's cache entry may hold.  Two 1 MiB regions hold one 64-byte
   allocation each, so every copy starts at one granule.  Cached typed
   accesses interleave with uncached range operations that can grow a
   copy (write_bytes, copy_range between copies of different sizes,
   ranges_equal, backing_slice), at offsets spread from the first bytes
   to the last, on three processors.  The model holds every byte written
   per (processor, region); every other byte must read as zero. *)

let growth_region = 1 lsl 20

let growth_procs = 3

let growth_matches_model =
  QCheck.Test.make ~name:"copies grow under the cache" ~count:100
    QCheck.(
      list_of_size (Gen.int_range 1 150)
        (quad (int_bound 8) (int_bound (growth_procs - 1)) (int_bound (1 lsl 24)) (int_bound 1023)))
    (fun ops ->
      let space = Space.create ~region_size:growth_region ~nprocs:growth_procs () in
      let bases =
        [|
          Space.alloc space ~kind:Region.Shared ~line_size:64 64;
          Space.alloc space ~kind:Region.Private ~line_size:64 64;
        |]
      in
      let model = Hashtbl.create 256 in
      let byte proc r off = Option.value (Hashtbl.find_opt model (proc, r, off)) ~default:0 in
      let model_bytes proc r off len = String.init len (fun i -> Char.chr (byte proc r (off + i))) in
      let model_write proc r off s =
        String.iteri (fun i c -> Hashtbl.replace model (proc, r, off + i) (Char.code c)) s
      in
      let model_int proc r off = Int64.to_int (String.get_int64_le (model_bytes proc r off 8) 0) in
      let ok = ref true in
      let expect b = if not b then ok := false in
      (* [w] bytes at an offset spread over the region: its last [w]
         bytes one time in five, else [x]'s low bits cut to a random
         width; words are 8-byte aligned *)
      let offset x w =
        let off =
          if x mod 5 = 0 then growth_region - w
          else min ((x lsr 5) land ((1 lsl (x mod 21)) - 1)) (growth_region - w)
        in
        if w = 8 then off land lnot 7 else off
      in
      List.iter
        (fun (kind, proc, x, y) ->
          let r = y land 1 in
          let other = (proc + 1 + ((y lsr 1) mod (growth_procs - 1))) mod growth_procs in
          let len = 1 + ((y lsr 3) mod 64) in
          match kind with
          | 0 ->
              let off = offset x 8 in
              Space.set_int space ~proc (bases.(r) + off) y;
              let b = Bytes.create 8 in
              Bytes.set_int64_le b 0 (Int64.of_int y);
              model_write proc r off (Bytes.to_string b)
          | 1 ->
              let off = offset x 8 in
              expect (Space.get_int space ~proc (bases.(r) + off) = model_int proc r off)
          | 2 ->
              let off = offset x 1 in
              Space.set_u8 space ~proc (bases.(r) + off) y;
              Hashtbl.replace model (proc, r, off) (y land 0xff)
          | 3 ->
              let off = offset x 1 in
              expect (Space.get_u8 space ~proc (bases.(r) + off) = byte proc r off)
          | 4 ->
              let off = offset x len in
              let data = String.init len (fun i -> Char.chr ((y + (i * 7)) land 0xff)) in
              Space.write_bytes space ~proc (bases.(r) + off) (Bytes.of_string data);
              model_write proc r off data
          | 5 ->
              let off = offset x len in
              expect
                (Bytes.to_string (Space.read_bytes space ~proc (bases.(r) + off) ~len)
                = model_bytes proc r off len)
          | 6 ->
              let off = offset x len in
              Space.copy_range space ~src_proc:proc ~dst_proc:other (bases.(r) + off) ~len;
              model_write other r off (model_bytes proc r off len)
          | 7 ->
              let off = offset x len in
              expect
                (Space.ranges_equal space ~proc_a:proc ~proc_b:other (bases.(r) + off) ~len
                = (model_bytes proc r off len = model_bytes other r off len))
          | _ ->
              let off = offset x len in
              let b = Space.backing_slice space ~proc (bases.(r) + off) ~len in
              let at = (bases.(r) + off) land (growth_region - 1) in
              expect (Bytes.sub_string b at len = model_bytes proc r off len))
        ops;
      (* every written byte, read back through the cache, and each
         region's last word on every processor *)
      Hashtbl.iter
        (fun (proc, r, off) v -> expect (Space.get_u8 space ~proc (bases.(r) + off) = v))
        model;
      for proc = 0 to growth_procs - 1 do
        Array.iteri
          (fun r base ->
            let off = growth_region - 8 in
            expect (Space.get_int space ~proc (base + off) = model_int proc r off))
          bases
      done;
      !ok)

(* --- VM zero-copy collect at a region boundary -------------------------- *)

(* The migrated-bucket shape: a bucket's two areas live in adjacent
   regions.  With pages no larger than a region, both areas trap, diff
   and collect normally; with a page spanning the two regions, every
   zero-copy page view must fail loudly rather than mis-diff. *)

let test_vm_collect_both_bucket_areas () =
  let space = Space.create ~region_size:4096 ~nprocs:1 () in
  let area_a = Space.alloc space ~kind:Region.Shared ~line_size:64 4096 in
  let area_b = Space.alloc space ~kind:Region.Shared ~line_size:64 4096 in
  let vm = Vm_state.create ~page_size:4096 in
  let counters = Counters.create () in
  let cost = Cost_model.default in
  let write addr v =
    ignore (Vm_state.on_write vm ~space ~proc:0 ~counters ~cost ~addr);
    Space.set_int space ~proc:0 addr v
  in
  write area_a 17;
  write (area_a + 256) 18;
  write area_b 19;
  let collect_addrs area =
    let pieces, _ns =
      Vm_state.collect vm ~space ~proc:0 ~counters ~cost ~ranges:[ Range.v area 4096 ]
    in
    (* the diff engine emits word-granular runs: one piece per write here *)
    List.map (fun (p : Midway.Payload.vm_piece) -> p.Midway.Payload.addr) pieces
    |> List.sort compare
  in
  Alcotest.(check (list int)) "area a collects exactly its writes"
    [ area_a; area_a + 256 ] (collect_addrs area_a);
  Alcotest.(check (list int)) "area b collects exactly its writes" [ area_b ]
    (collect_addrs area_b)

let test_vm_collect_crosses_region_is_loud () =
  let space = Space.create ~region_size:4096 ~nprocs:1 () in
  let _a = Space.alloc space ~kind:Region.Shared ~line_size:64 4096 in
  let b = Space.alloc space ~kind:Region.Shared ~line_size:64 4096 in
  let _c = Space.alloc space ~kind:Region.Shared ~line_size:64 4096 in
  let vm = Vm_state.create ~page_size:8192 in
  let counters = Counters.create () in
  let cost = Cost_model.default in
  (* page 1 (8192..16383) covers areas b and c: the fault-time page
     snapshot must refuse the crossing view *)
  (match Vm_state.on_write vm ~space ~proc:0 ~counters ~cost ~addr:b with
  | _ -> Alcotest.fail "faulting a region-crossing page must raise"
  | exception Space.Crosses_region _ -> ());
  (* force the page dirty behind the state's back, as a migration-style
     rebind would after the layout changed under a stale page table, and
     check the collect-side zero-copy view is just as loud *)
  (match
     Page_table.fault_on_write (Vm_state.page_table vm) ~addr:b
       ~contents:(Bytes.create 8192)
   with
  | Some _ -> ()
  | None -> Alcotest.fail "page was expected to be write-protected");
  match Vm_state.collect vm ~space ~proc:0 ~counters ~cost ~ranges:[ Range.v b 64 ] with
  | _ -> Alcotest.fail "collecting across a region boundary must raise"
  | exception Space.Crosses_region { addr; len; _ } ->
      Alcotest.(check int) "the page base" 8192 addr;
      Alcotest.(check int) "the page length" 8192 len

(* --- mixed-backend machines converge like pure ones --------------------- *)

(* Four lock areas, each filling its own 4 KB region; every processor
   does commutative lock-guarded adds, so the converged image is
   schedule- and backend-independent.  A mixed machine (odd areas'
   regions re-elected to [odd], the others on the machine default) must
   produce the identical image, and per-region collect accounting must
   sum exactly to the processors' collect_time counters. *)

let run_mixed_program ?odd ~nprocs ~seed cfg =
  let areas = 4 and cells = 16 in
  let machine = R.create cfg in
  let bases = Array.init areas (fun _ -> R.alloc machine ~line_size:64 4096) in
  Option.iter
    (fun b ->
      Array.iteri
        (fun a base -> if a land 1 = 1 then R.set_region_backend machine ~addr:base b)
        bases)
    odd;
  let locks =
    Array.init areas (fun a ->
        R.new_lock machine ~owner:(a mod nprocs) [ Range.v bases.(a) (cells * 8) ])
  in
  let bar = R.new_barrier machine [] in
  R.run machine (fun ctx ->
      let me = R.id ctx in
      for round = 0 to 3 do
        for a = 0 to areas - 1 do
          if (a + me + round) mod 2 = 0 then begin
            R.acquire ctx locks.(a);
            let cell = (seed + a + (round * 7) + me) mod cells in
            let addr = bases.(a) + (cell * 8) in
            R.write_int ctx addr (R.read_int ctx addr + 1 + ((seed + me) mod 5));
            R.release ctx locks.(a)
          end
        done;
        R.barrier ctx bar
      done;
      Array.iter
        (fun l ->
          R.acquire_read ctx l;
          R.release ctx l)
        locks);
  let image =
    List.concat_map
      (fun proc ->
        List.concat_map
          (fun a ->
            List.init cells (fun i ->
                Space.get_int (R.space machine) ~proc (bases.(a) + (i * 8))))
          (List.init areas Fun.id))
      (List.init nprocs Fun.id)
  in
  (machine, image)

let mixed_digest_prop =
  QCheck.Test.make ~name:"striped rt/vm machine matches pure-backend memory" ~count:12
    QCheck.(pair (int_range 2 4) (int_range 0 999))
    (fun (nprocs, seed) ->
      let cfg backend = { (Config.make backend ~nprocs) with Config.region_size = 4096 } in
      let m_rt, img_rt = run_mixed_program ~nprocs ~seed (cfg Config.Rt) in
      let m_vm, img_vm = run_mixed_program ~nprocs ~seed (cfg Config.Vm) in
      let m_mix, img_mix = run_mixed_program ~odd:Config.Vm ~nprocs ~seed (cfg Config.Rt) in
      List.for_all (fun m -> R.check_invariants m = []) [ m_rt; m_vm; m_mix ]
      && R.region_assignments m_mix <> []  (* odd regions really run vm *)
      && img_rt = img_vm && img_rt = img_mix)

(* --- the policy controller ---------------------------------------------- *)

let cost = Cost_model.default

(* A rebinding-heavy window: full chunks ship diff-free under VM, so
   est_vm stays 0 while est_rt pays a template per word. *)
let feed_rebounds p ~region n =
  for _ = 1 to n do
    Policy.note_collect p ~region ~line_size:64 ~bound_bytes:4096 ~payload_bytes:4096
      ~payload_pages:1 ~payload_runs:1 ~rebound:true
  done

(* A fine-sharing window: tiny payloads make VM pay page machinery and a
   whole-page diff per transfer while RT pays a few templates. *)
let feed_fine p ~region n =
  for _ = 1 to n do
    Policy.note_collect p ~region ~line_size:64 ~bound_bytes:64 ~payload_bytes:64
      ~payload_pages:1 ~payload_runs:1 ~rebound:false
  done

let test_policy_window_and_directions () =
  let p = Policy.create ~cost () in
  feed_rebounds p ~region:1 8;
  let collects, est_rt, est_vm = Policy.window p ~region:1 in
  Alcotest.(check int) "window counts" 8 collects;
  Alcotest.(check bool) "rebounds are free under vm" true (est_vm = 0 && est_rt > 0);
  Alcotest.(check bool) "rt region re-elects vm" true
    (Policy.decide p ~region:1 ~current:Config.Rt = Some Config.Vm);
  let collects, est_rt, est_vm = Policy.window p ~region:1 in
  Alcotest.(check (list int)) "decide closes the window" [ 0; 0; 0 ]
    [ collects; est_rt; est_vm ];
  feed_fine p ~region:2 8;
  let _, est_rt, est_vm = Policy.window p ~region:2 in
  Alcotest.(check bool) "fine sharing is cheaper under rt" true (est_rt < est_vm);
  Alcotest.(check bool) "vm region re-elects rt" true
    (Policy.decide p ~region:2 ~current:Config.Vm = Some Config.Rt);
  (* regions are independent: region 1's history never leaked into 2 *)
  feed_fine p ~region:3 8;
  Alcotest.(check bool) "rt region with rt-friendly window stays" true
    (Policy.decide p ~region:3 ~current:Config.Rt = None)

let test_policy_min_window () =
  let p = Policy.create ~cost () in
  feed_rebounds p ~region:1 7;
  Alcotest.(check bool) "7 of 8 transfers: no decision" true
    (Policy.decide p ~region:1 ~current:Config.Rt = None);
  let collects, _, _ = Policy.window p ~region:1 in
  Alcotest.(check int) "an undersized window is not consumed" 7 collects;
  feed_rebounds p ~region:1 1;
  Alcotest.(check bool) "8th transfer arms it" true
    (Policy.decide p ~region:1 ~current:Config.Rt = Some Config.Vm)

let test_policy_min_gain_floor () =
  (* Empty return transfers: est_rt is a few hundred ns of scan, est_vm
     is 0 — an infinite relative margin that saves nothing.  The floor
     (one page fault) must refuse the switch. *)
  let feed p =
    for _ = 1 to 8 do
      Policy.note_collect p ~region:1 ~line_size:64 ~bound_bytes:64 ~payload_bytes:0
        ~payload_pages:0 ~payload_runs:0 ~rebound:false
    done
  in
  let p = Policy.create ~cost () in
  feed p;
  let _, est_rt, est_vm = Policy.window p ~region:1 in
  Alcotest.(check bool) "the window is lopsided but tiny" true
    (est_vm = 0 && est_rt > 0 && est_rt < cost.Cost_model.page_fault_ns);
  Alcotest.(check bool) "no switch for sub-page-fault gain" true
    (Policy.decide p ~region:1 ~current:Config.Rt = None)

let test_policy_hysteresis () =
  (* decide must follow the documented rule exactly, whichever way the
     window leans: a 25% margin and more than a page fault saved *)
  let check ~current feeds expect_name =
    let p = Policy.create ~cost () in
    feeds p;
    let _, est_rt, est_vm = Policy.window p ~region:1 in
    let cur, other, other_b =
      match current with
      | Config.Rt -> (est_rt, est_vm, Config.Vm)
      | _ -> (est_vm, est_rt, Config.Rt)
    in
    let expected =
      if cur * 100 > other * 125 && cur - other > cost.Cost_model.page_fault_ns then Some other_b
      else None
    in
    Alcotest.(check bool) expect_name true
      (Policy.decide p ~region:1 ~current = expected)
  in
  check ~current:Config.Rt (fun p -> feed_rebounds p ~region:1 8) "rebound window, rt incumbent";
  check ~current:Config.Vm (fun p -> feed_rebounds p ~region:1 8) "rebound window, vm incumbent";
  check ~current:Config.Vm (fun p -> feed_fine p ~region:1 8) "fine window, vm incumbent"

let test_policy_cooldown () =
  let p = Policy.create ~cost () in
  feed_rebounds p ~region:1 8;
  Alcotest.(check bool) "switches first" true
    (Policy.decide p ~region:1 ~current:Config.Rt = Some Config.Vm);
  Policy.note_switch p ~region:1;
  for _ = 1 to 2 do
    feed_fine p ~region:1 8;
    Alcotest.(check bool) "the two post-switch windows are sat out" true
      (Policy.decide p ~region:1 ~current:Config.Vm = None)
  done;
  feed_fine p ~region:1 8;
  Alcotest.(check bool) "the next window decides again" true
    (Policy.decide p ~region:1 ~current:Config.Vm = Some Config.Rt)

let test_policy_rejects_unmanaged_backends () =
  let p = Policy.create ~cost () in
  feed_fine p ~region:1 8;
  match Policy.decide p ~region:1 ~current:Config.Blast with
  | _ -> Alcotest.fail "blast is not a managed backend"
  | exception Invalid_argument _ -> ()

(* --- manual region re-election ------------------------------------------ *)

let test_manual_switch_safety () =
  let machine = R.create (Config.make Config.Rt ~nprocs:2) in
  let data = R.alloc machine ~line_size:64 256 in
  let lock = R.new_lock machine [ Range.v data 256 ] in
  Alcotest.(check string) "regions start on the machine backend" "rt"
    (Config.backend_name (R.region_backend_at machine ~addr:data));
  R.set_region_backend machine ~addr:data Config.Vm;
  Alcotest.(check string) "re-elected" "vm"
    (Config.backend_name (R.region_backend_at machine ~addr:data));
  Alcotest.(check int) "one committed switch" 1 (R.backend_switches machine);
  Alcotest.(check bool) "assignment listed" true
    (List.exists (fun (_, b) -> b = Config.Vm) (R.region_assignments machine));
  R.set_region_backend machine ~addr:data Config.Vm;
  Alcotest.(check int) "same-backend re-election is a no-op" 1 (R.backend_switches machine);
  (match R.set_region_backend machine ~addr:data Config.Standalone with
  | _ -> Alcotest.fail "standalone is machine-wide only"
  | exception Invalid_argument _ -> ());
  (* the switched region still runs a correct protocol *)
  let held_switch_rejected = ref false in
  R.run machine (fun ctx ->
      for _ = 1 to 20 do
        R.acquire ctx lock;
        if R.id ctx = 0 && not !held_switch_rejected then
          (try R.set_region_backend machine ~addr:data Config.Rt
           with Invalid_argument _ -> held_switch_rejected := true);
        R.write_int ctx data (R.read_int ctx data + 1);
        R.release ctx lock
      done);
  Alcotest.(check bool) "switching under a held binding is rejected" true
    !held_switch_rejected;
  Alcotest.(check int) "all increments survive the vm region" 40
    (Space.get_int (R.space machine) ~proc:lock.Midway.Sync.owner data);
  Alcotest.(check (list string)) "invariants hold" [] (R.check_invariants machine);
  (* back at a safe point: the reverse switch is legal again *)
  R.set_region_backend machine ~addr:data Config.Rt;
  Alcotest.(check int) "switch back committed" 2 (R.backend_switches machine)

let test_vm_fine_machine_not_electable () =
  let machine = R.create (Config.make Config.Vm_fine ~nprocs:2) in
  let data = R.alloc machine ~line_size:64 256 in
  match R.set_region_backend machine ~addr:data Config.Rt with
  | _ -> Alcotest.fail "a vm-fine machine is not per-region electable"
  | exception Invalid_argument _ -> ()

(* --- the adaptive controller end to end ---------------------------------- *)

let test_adaptive_beats_both_pures_on_hybrid () =
  let cfg backend ~adaptive = { (Config.make backend ~nprocs:2) with Config.adaptive } in
  let run c = Hybrid.run c Hybrid.default in
  let pure_rt = run (cfg Config.Rt ~adaptive:false) in
  let pure_vm = run (cfg Config.Vm ~adaptive:false) in
  let adaptive = run (cfg Config.Rt ~adaptive:true) in
  List.iter
    (fun (o : Outcome.t) ->
      Alcotest.(check bool) ("oracle: " ^ o.Outcome.app) true o.Outcome.ok;
      Alcotest.(check (list string)) "invariants" [] (R.check_invariants o.Outcome.machine))
    [ pure_rt; pure_vm; adaptive ];
  let ns (o : Outcome.t) = R.elapsed_ns o.Outcome.machine in
  Alcotest.(check bool) "the controller re-elected at least one region" true
    (R.backend_switches adaptive.Outcome.machine >= 1);
  Alcotest.(check bool) "adaptive beats pure rt" true (ns adaptive < ns pure_rt);
  Alcotest.(check bool) "adaptive beats pure vm" true (ns adaptive < ns pure_vm)

let test_adaptive_preserves_ecgen_digests () =
  (* whatever the controller elects, converged memory is the pure run's *)
  List.iter
    (fun (backend, seed) ->
      let program = Ecgen.generate ~seed ~nprocs:3 () in
      let base = Config.make backend ~nprocs:3 in
      let off = Ecgen.run program base in
      let on = Ecgen.run program { base with Config.adaptive = true } in
      Alcotest.(check bool) "fixed run ok" true off.Workload.ok;
      Alcotest.(check bool) "adaptive run ok" true on.Workload.ok;
      Alcotest.(check string)
        (Printf.sprintf "digest unchanged (%s, seed %d)" (Config.backend_name backend) seed)
        off.Workload.digest on.Workload.digest)
    [ (Config.Rt, 1); (Config.Rt, 2); (Config.Vm, 1); (Config.Vm, 3) ]

let () =
  Alcotest.run "hybrid"
    [
      ( "dirtybits hot path",
        [
          qtest (scan_matches_model Config.Plain);
          qtest (scan_matches_model Config.Two_level);
          qtest (scan_matches_model ~big:true Config.Plain);
          qtest (scan_matches_model ~big:true Config.Two_level);
          Alcotest.test_case "update-queue bookkeeping" `Quick test_update_queue_bookkeeping;
        ] );
      ( "space cache",
        [
          Alcotest.test_case "last-hit cache coherence" `Quick test_space_cache_coherence;
          Alcotest.test_case "runtime accessors at region ends" `Quick test_runtime_boundaries;
          qtest growth_matches_model;
        ] );
      ( "vm region boundaries",
        [
          Alcotest.test_case "both bucket areas collect" `Quick
            test_vm_collect_both_bucket_areas;
          Alcotest.test_case "crossing page fails loudly" `Quick
            test_vm_collect_crosses_region_is_loud;
        ] );
      ("mixed backends", [ qtest mixed_digest_prop ]);
      ( "policy",
        [
          Alcotest.test_case "window and both directions" `Quick
            test_policy_window_and_directions;
          Alcotest.test_case "min window" `Quick test_policy_min_window;
          Alcotest.test_case "min gain floor" `Quick test_policy_min_gain_floor;
          Alcotest.test_case "hysteresis" `Quick test_policy_hysteresis;
          Alcotest.test_case "cooldown" `Quick test_policy_cooldown;
          Alcotest.test_case "unmanaged backends rejected" `Quick
            test_policy_rejects_unmanaged_backends;
        ] );
      ( "region election",
        [
          Alcotest.test_case "manual switch safety" `Quick test_manual_switch_safety;
          Alcotest.test_case "vm-fine not electable" `Quick test_vm_fine_machine_not_electable;
        ] );
      ( "adaptive end to end",
        [
          Alcotest.test_case "hybrid workload win" `Quick
            test_adaptive_beats_both_pures_on_hybrid;
          Alcotest.test_case "ecgen digests unchanged" `Quick
            test_adaptive_preserves_ecgen_digests;
        ] );
    ]
