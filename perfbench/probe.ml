(* Layer probes: host cost of one primitive operation of one layer, in
   ns/op and words/op (minor words plus direct major allocation).

   Each probe is priced at the shape of the workload that asks for it:
   the scan length and dirty ratio, the changed bytes per diffed page,
   the processor count and the payload per message all come from the
   traced pass's own counts (see [shape]).  A probe runs [batches]
   batches and reports the median batch. *)

module R = Midway.Runtime
module Config = Midway.Config
module Region = Midway_memory.Region
module Space = Midway_memory.Space
module Dirtybits = Midway.Dirtybits
module Diff = Midway_vmem.Diff
module Page_table = Midway_vmem.Page_table
module Engine = Midway_sched.Engine
module Net = Midway_simnet.Net

type cost = { ns : float; words : float }

(* Words allocated directly in the major heap: major words that were
   not promoted from the minor heap. *)
let major_direct () =
  let _, promoted, major = Gc.counters () in
  major -. promoted

let words_now () = Gc.minor_words () +. major_direct ()

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0 else if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* [run_batch ()] performs one batch and returns its elapsed ns and its
   operation count; allocation is read around it. *)
let measure ~batches run_batch =
  let ns = Array.make batches 0.0 and words = Array.make batches 0.0 in
  for b = 0 to batches - 1 do
    let w0 = words_now () in
    let dt, ops = run_batch () in
    let w1 = words_now () in
    ns.(b) <- float_of_int dt /. float_of_int ops;
    words.(b) <- (w1 -. w0) /. float_of_int ops
  done;
  { ns = median ns; words = median words }

let timed ops f =
  let t0 = Span.now_ns () in
  f ();
  (Span.now_ns () - t0, ops)

let sink = ref 0.0

(* The workload's shape, from the traced pass's counts. *)
type shape = {
  nprocs : int;
  scan_lines : int;  (* lines per RT collection *)
  dirty_ratio : float;  (* dirty lines / lines scanned *)
  changed_bytes : int;  (* modified bytes per diffed page *)
  payload_bytes : int;  (* application payload per message *)
}

let region_size = (Config.make Config.Rt ~nprocs:1).Config.region_size

(* Space.get_f64 + set_f64 on a region the space's last-hit cache holds. *)
let access ~batches =
  let space = Space.create ~nprocs:1 () in
  let base = Space.alloc space ~kind:Region.Shared (8 * 4096) in
  let ops = 1_000_000 in
  measure ~batches (fun () ->
      timed ops (fun () ->
          for i = 0 to ops - 1 do
            let a = base + ((i land 4095) lsl 3) in
            Space.set_f64 space ~proc:0 a (Space.get_f64 space ~proc:0 a +. 1.0)
          done))

(* The first Region.backing_for on a fresh region: allocation and
   zero-fill of one processor's copy. *)
let backing ~batches =
  measure ~batches (fun () ->
      Gc.full_major ();
      let r =
        Region.create ~index:1 ~kind:Region.Shared ~line_size:64 ~region_size ~nprocs:1
      in
      timed 1 (fun () -> ignore (Sys.opaque_identity (Region.backing_for r ~proc:0))))

(* Typed access and write trapping through the Runtime API on a
   one-processor machine, timed inside its fiber. *)
type core = { read : cost; rt_write : cost; vm_write : cost; private_write : cost }

let core ~batches =
  let ops = 200_000 in
  let in_fiber backend body =
    let m = R.create (Config.make backend ~nprocs:1) in
    let shared = R.alloc m ~line_size:64 (8 * 4096) in
    let priv = R.alloc m ~private_:true ~line_size:64 (8 * 4096) in
    let result = ref { ns = 0.0; words = 0.0 } in
    R.run m (fun c ->
        (* touch every word once so no batch pays first-touch or faults *)
        for i = 0 to 4095 do
          R.write_f64 c (shared + (i lsl 3)) 0.0;
          R.write_f64_private c (priv + (i lsl 3)) 0.0
        done;
        result := measure ~batches (fun () -> timed ops (fun () -> body c ~shared ~priv)));
    !result
  in
  let read c ~shared ~priv:_ =
    let acc = ref 0.0 in
    for i = 0 to ops - 1 do
      acc := !acc +. R.read_f64 c (shared + ((i land 4095) lsl 3))
    done;
    sink := !acc
  in
  let write c ~shared ~priv:_ =
    for i = 0 to ops - 1 do
      R.write_f64 c (shared + ((i land 4095) lsl 3)) 1.0
    done
  in
  let private_write c ~shared:_ ~priv =
    for i = 0 to ops - 1 do
      R.write_f64_private c (priv + ((i land 4095) lsl 3)) 1.0
    done
  in
  {
    read = in_fiber Config.Rt read;
    rt_write = in_fiber Config.Rt write;
    vm_write = in_fiber Config.Vm write;
    private_write = in_fiber Config.Rt private_write;
  }

(* Dirtybits.scan over ranges of the workload's scan length with its
   dirty ratio: lines are marked dirty untimed, then a batch of scans is
   timed back to back.  Cost per line scanned. *)
let scan ~batches (s : shape) =
  let lines = max 1 (min s.scan_lines (region_size / 64)) in
  let ranges_per_batch = max 1 (min (region_size / 64 / lines) (65_536 / lines)) in
  let region =
    Region.create ~index:1 ~kind:Region.Shared ~line_size:64 ~region_size ~nprocs:1
  in
  let base = Region.base region in
  let db = Dirtybits.create ~mode:Config.Plain ~group:64 in
  let ranges =
    Array.init ranges_per_batch (fun i -> [ Midway.Range.v (base + (i * lines * 64)) (lines * 64) ])
  in
  let dirty_line i = Float.to_int (float_of_int (i + 1) *. s.dirty_ratio)
                     > Float.to_int (float_of_int i *. s.dirty_ratio) in
  let round = ref 1 in
  let emit ~addr:_ ~len:_ ~ts:_ ~fresh:_ ~lines:_ = () in
  let region_of _ = region in
  measure ~batches (fun () ->
      for r = 0 to ranges_per_batch - 1 do
        for i = 0 to lines - 1 do
          if dirty_line i then
            Dirtybits.note_write db ~region ~addr:(base + (((r * lines) + i) * 64)) ~len:8
        done
      done;
      let cursor = Midway.Timestamp.make ~time:!round ~proc:0 ~nprocs:1 in
      incr round;
      let stamp = Midway.Timestamp.make ~time:!round ~proc:0 ~nprocs:1 in
      timed (ranges_per_batch * lines) (fun () ->
          Array.iter
            (fun ranges ->
              ignore
                (Dirtybits.scan db ~region_of ~ranges ~stamp
                   ~select:(Dirtybits.Transfer cursor) ~emit))
            ranges))

(* Page_table.fault_on_write then clean: the VM trap of a first store. *)
let fault ~batches =
  let pt = Page_table.create ~page_size:4096 in
  let page = Bytes.make 4096 'a' in
  let ops = 20_000 in
  measure ~batches (fun () ->
      timed ops (fun () ->
          for i = 0 to ops - 1 do
            match Page_table.fault_on_write pt ~addr:((i land 63) * 4096) ~contents:page with
            | Some p -> Page_table.clean pt p
            | None -> ()
          done))

(* Diff.diff_between of one page against its twin, with the workload's
   changed bytes spread evenly over the page's words. *)
let diff ~batches (s : shape) =
  let words = 4096 / Diff.word_size in
  let changed = max 1 (min words (s.changed_bytes / Diff.word_size)) in
  let twin = Bytes.make 4096 '\000' in
  let page = Bytes.copy twin in
  for w = 0 to words - 1 do
    if (w + 1) * changed / words > w * changed / words then
      Bytes.set page (w * Diff.word_size) '\001'
  done;
  let ops = 2_000 in
  measure ~batches (fun () ->
      timed ops (fun () ->
          for _ = 1 to ops do
            ignore (Sys.opaque_identity (Diff.diff_between ~old_:twin ~old_off:0 ~new_:page
                                           ~new_off:0 ~len:4096))
          done))

(* Engine context switches among as many fibers as the workload has
   processors: each round every fiber yields once, then passes a token
   around a ring by block and wake.  Cost per switch. *)
let switch ~batches (s : shape) =
  let n = max 1 s.nprocs in
  let rounds = 20_000 / n in
  measure ~batches (fun () ->
      let e = Engine.create ~nprocs:n () in
      let wakers = Array.make n None in
      for i = 0 to n - 1 do
        Engine.spawn e i (fun p ->
            for r = 1 to rounds do
              if n > 1 && not (i = 0 && r = 1) then
                Engine.block p ~setup:(fun ~wake -> wakers.(i) <- Some wake);
              Engine.charge p 10;
              Engine.yield p;
              let next = (i + 1) mod n in
              if n > 1 && not (r = rounds && next = 0) then
                match wakers.(next) with
                | Some wake ->
                    wakers.(next) <- None;
                    wake ~at:(Engine.clock p + 1)
                | None -> failwith "switch probe: token lost"
            done)
      done;
      let switches = if n > 1 then 2 * n * rounds else n * rounds in
      timed switches (fun () -> Engine.run e))

(* Net.send at the workload's processor count and payload per message. *)
let send ~batches (s : shape) =
  let n = max 2 s.nprocs in
  let net = Net.create ~nprocs:n () in
  let ops = 200_000 in
  measure ~batches (fun () ->
      timed ops (fun () ->
          for i = 0 to ops - 1 do
            ignore
              (Sys.opaque_identity
                 (Net.send net ~kind:Net.Lock_reply ~src:(i mod n) ~dst:((i + 1) mod n)
                    ~payload_bytes:s.payload_bytes ~at:i))
          done))
