(* Allocation gates.  Allocation counts are deterministic, so unlike host
   time these bounds hold exactly on every run:

   - footprint: a machine provisions memory for the bytes it uses, not
     for every (region, processor) pair it touches at full region size,
     and its page tables for the pages stores touch, not for the
     addresses its locks bind;
   - words/op: typed access and write trapping through Space and the
     Runtime API, on rt and on vm, allocate nothing, with every
     accessor (float, at aligned and unaligned offsets, int, i32, u8)
     and a read included; a remote
     acquire+release pair builds no text, closure or queue tuple for
     its block;
   - scheduling: a fiber switch parks the continuation and nothing
     else, a yield nobody is due to run before costs nothing, and
     cholesky's lock traffic stays within its words per acquire;
   - saved diffs: applying an update to a page costs the same whatever
     saved diffs the page holds elsewhere, and collecting one dirty word
     builds no closure and no copy of the piece list;
   - transfers: an rt lock transfer copies its runs from the releaser's
     copy into the requester's, so a 512-line run costs no more words
     than one line; a vm transfer costs the same words whatever the
     length of the lock's incarnation log; a saved diff that empties
     and is saved again takes a pooled page buffer for its shadow;
   - sor and water: a red-black sweep and the pair evaluations keep
     their floats unboxed;
   - kv: the refinement oracle replays a run's log without allocating
     per observation;
   - explore: a passing fuzz run renders no failure context.

   The repository builds in the release profile (dune-workspace), which
   lets the typed accessors inline into their callers; that is what
   keeps a float read unboxed.  Under [--profile dev], which compiles
   with -opaque, the float gates fail by design. *)

module R = Midway.Runtime
module Config = Midway.Config
module Range = Midway.Range
module Space = Midway_memory.Space
module Region = Midway_memory.Region
module Vm_state = Midway.Vm_state
module Payload = Midway.Payload
module Detector = Midway.Detector
module Sync = Midway.Sync
module Counters = Midway_stats.Counters
module Cost_model = Midway_stats.Cost_model
module Engine = Midway_sched.Engine
module Kvstore = Midway_kv.Kvstore
module Kv_workload = Midway_explore.Kv_workload
module Explore = Midway_explore.Explore

(* Words allocated so far: every minor-heap word (Gc.counters' minor
   count lags the minor heap's fill) plus the blocks too large for the
   minor heap, allocated directly in the major heap. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* --- footprint ----------------------------------------------------------- *)

(* 64 processors each take the lock once and bump the one 8-byte cell it
   guards: every processor touches the cell's region and its dirtybit
   table, and every transfer scans and ships one line. *)
let test_lock_cell_footprint () =
  let nprocs = 64 in
  let seen = Array.make nprocs (-1) in
  let before = allocated_words () in
  let m = R.create (Config.make Config.Rt ~nprocs) in
  let cell = R.alloc m ~line_size:8 8 in
  let lock = R.new_lock m [ Range.v cell 8 ] in
  R.run m (fun c ->
      R.acquire c lock;
      let v = R.read_int c cell in
      seen.(R.id c) <- v;
      R.write_int c cell (v + 1);
      R.release c lock);
  let words = allocated_words () -. before in
  Alcotest.(check (list int))
    "each processor saw every earlier increment" (List.init nprocs Fun.id)
    (List.sort compare (Array.to_list seen));
  if not (words < 1e6) then
    Alcotest.failf "64-processor lock cell allocated %.0f words (gate: < 1M)" words

(* A vm lock bound to its cell and to an address far past every region
   (a binding ECSan lints, which the protocol tolerates): its transfers
   look the far page up without recording it, so the page table grows
   with the pages stores touch, not with the addresses bound (3,729
   words; 4.2 M when a lookup grows the index to the far page). *)
let test_far_binding_footprint () =
  let before = allocated_words () in
  let m = R.create (Config.make Config.Vm ~nprocs:2) in
  let cell = R.alloc m 8 in
  let lock = R.new_lock m [ Range.v cell 8; Range.v (1 lsl 45) 8 ] in
  R.run m (fun c ->
      for _ = 1 to 3 do
        R.acquire c lock;
        R.write_int c cell (R.read_int c cell + 1);
        R.release c lock;
        R.work_ns c 100_000
      done);
  let words = allocated_words () -. before in
  if not (words < 1e5) then
    Alcotest.failf "vm lock bound past every region allocated %.0f words (gate: < 100k)" words

(* --- words per op ------------------------------------------------------- *)

let ops = 200_000

(* Words per op of [body], run [ops] times inside a fiber of a
   one-processor machine (rt unless [backend] says otherwise) over 4096
   words that were all written once before, so no first touch, page
   fault or dirtybit table growth is counted. *)
let words_per_op ?(backend = Config.Rt) body =
  let m = R.create (Config.make backend ~nprocs:1) in
  let shared = R.alloc m ~line_size:64 (8 * 4096) in
  let priv = R.alloc m ~private_:true ~line_size:64 (8 * 4096) in
  let result = ref nan in
  R.run m (fun c ->
      for i = 0 to 4095 do
        R.write_f64 c (shared + (i lsl 3)) 0.0;
        R.write_f64_private c (priv + (i lsl 3)) 0.0
      done;
      let before = allocated_words () in
      body c (R.space m) ~shared ~priv;
      result := (allocated_words () -. before) /. float_of_int ops);
  !result

(* The float stores write a computed value: a constant is a static
   block, which hides a store that boxes its argument. *)
let space_set_f64 _ space ~shared ~priv:_ =
  for i = 0 to ops - 1 do
    Space.set_f64 space ~proc:0 (shared + ((i land 4095) lsl 3)) (Float.of_int i)
  done

let space_set_int _ space ~shared ~priv:_ =
  for i = 0 to ops - 1 do
    Space.set_int space ~proc:0 (shared + ((i land 4095) lsl 3)) i
  done

let space_get_int _ space ~shared ~priv:_ =
  for i = 0 to ops - 1 do
    ignore (Sys.opaque_identity (Space.get_int space ~proc:0 (shared + ((i land 4095) lsl 3))))
  done

let write_f64 c _ ~shared ~priv:_ =
  for i = 0 to ops - 1 do
    R.write_f64 c (shared + ((i land 4095) lsl 3)) (Float.of_int i)
  done

let write_f64_private c _ ~shared:_ ~priv =
  for i = 0 to ops - 1 do
    R.write_f64_private c (priv + ((i land 4095) lsl 3)) (Float.of_int i)
  done

(* Only the sum leaves the loop: passing each read through
   [Sys.opaque_identity] would box it there. *)
let read_f64 c _ ~shared ~priv:_ =
  let sum = ref 0.0 in
  for i = 0 to ops - 1 do
    sum := !sum +. R.read_f64 c (shared + ((i land 4095) lsl 3))
  done;
  ignore (Sys.opaque_identity !sum)

(* A float at an offset that is not a multiple of 8 takes the
   conversion path, which allocates nothing either.  The offsets stay
   inside the words written before. *)
let unaligned i = 4 + ((i land 2047) lsl 3)

let space_set_f64_unaligned _ space ~shared ~priv:_ =
  for i = 0 to ops - 1 do
    Space.set_f64 space ~proc:0 (shared + unaligned i) (Float.of_int i)
  done

let space_get_f64_unaligned _ space ~shared ~priv:_ =
  let sum = ref 0.0 in
  for i = 0 to ops - 1 do
    sum := !sum +. Space.get_f64 space ~proc:0 (shared + unaligned i)
  done;
  ignore (Sys.opaque_identity !sum)

let write_f64_unaligned c _ ~shared ~priv:_ =
  for i = 0 to ops - 1 do
    R.write_f64 c (shared + unaligned i) (Float.of_int i)
  done

let read_f64_unaligned c _ ~shared ~priv:_ =
  let sum = ref 0.0 in
  for i = 0 to ops - 1 do
    sum := !sum +. R.read_f64 c (shared + unaligned i)
  done;
  ignore (Sys.opaque_identity !sum)

(* The int, i32 and u8 accessors, each over the same 4096 words; an
   int32 read out of line comes back boxed, 3 words. *)
let read_int c _ ~shared ~priv:_ =
  let sum = ref 0 in
  for i = 0 to ops - 1 do
    sum := !sum + R.read_int c (shared + ((i land 4095) lsl 3))
  done;
  ignore (Sys.opaque_identity !sum)

let write_int c _ ~shared ~priv:_ =
  for i = 0 to ops - 1 do
    R.write_int c (shared + ((i land 4095) lsl 3)) i
  done

let write_int_private c _ ~shared:_ ~priv =
  for i = 0 to ops - 1 do
    R.write_int_private c (priv + ((i land 4095) lsl 3)) i
  done

let read_i32 c _ ~shared ~priv:_ =
  let sum = ref 0 in
  for i = 0 to ops - 1 do
    sum := !sum + Int32.to_int (R.read_i32 c (shared + ((i land 4095) lsl 3)))
  done;
  ignore (Sys.opaque_identity !sum)

let write_i32 c _ ~shared ~priv:_ =
  for i = 0 to ops - 1 do
    R.write_i32 c (shared + ((i land 4095) lsl 3)) (Int32.of_int i)
  done

let read_u8 c _ ~shared ~priv:_ =
  let sum = ref 0 in
  for i = 0 to ops - 1 do
    sum := !sum + R.read_u8 c (shared + ((i land 4095) lsl 3))
  done;
  ignore (Sys.opaque_identity !sum)

let write_u8 c _ ~shared ~priv:_ =
  for i = 0 to ops - 1 do
    R.write_u8 c (shared + ((i land 4095) lsl 3)) i
  done

(* A local acquire+release pair on the machine's one lock, every optional
   layer off: what the unarmed synchronization path costs per pair. *)
let sync_pair_words () =
  let m = R.create (Config.make Config.Rt ~nprocs:1) in
  let cell = R.alloc m 8 in
  let lock = R.new_lock m [ Range.v cell 8 ] in
  let result = ref nan in
  R.run m (fun c ->
      R.acquire c lock;
      R.release c lock;
      let before = allocated_words () in
      for _ = 1 to ops do
        R.acquire c lock;
        R.release c lock
      done;
      result := (allocated_words () -. before) /. float_of_int ops);
  !result

(* Words per remote acquire+release pair: two processors take turns on
   one lock, each pausing between its turns, so every acquisition
   crosses the network and blocks.  The difference between runs of 400
   and 200 turns each, over the difference in remote acquisitions. *)
let remote_pair_words () =
  let run turns =
    let m = R.create (Config.make Config.Rt ~nprocs:2) in
    let cell = R.alloc m ~line_size:8 8 in
    let lock = R.new_lock m [ Range.v cell 8 ] in
    let before = allocated_words () in
    R.run m (fun c ->
        for _ = 1 to turns do
          R.acquire c lock;
          R.write_int c cell (R.read_int c cell + 1);
          R.release c lock;
          R.work_ns c 100_000
        done);
    let words = allocated_words () -. before in
    let remote =
      Array.fold_left (fun n k -> n + k.Counters.lock_acquires_remote) 0 (R.all_counters m)
    in
    (words, remote)
  in
  let w1, r1 = run 200 in
  let w2, r2 = run 400 in
  if r2 - r1 < 390 then Alcotest.failf "ping-pong: only %d more remote acquires" (r2 - r1);
  (w2 -. w1) /. float_of_int (r2 - r1)

(* --- scheduling ------------------------------------------------------------ *)

(* A ring of 4 fibers passing a token: each round every fiber blocks
   until woken (but the first), charges, yields and wakes the next.
   Returns the scheduling points (blocks and yields) and the words the
   run allocated. *)
let ring rounds =
  let n = 4 in
  let e = Engine.create ~nprocs:n () in
  let wakers = Array.make n None in
  let points = ref 0 in
  for i = 0 to n - 1 do
    Engine.spawn e i (fun p ->
        for r = 1 to rounds do
          if not (i = 0 && r = 1) then begin
            incr points;
            Engine.block p ~setup:(fun ~wake -> wakers.(i) <- Some wake)
          end;
          Engine.charge p 10;
          incr points;
          Engine.yield p;
          let next = (i + 1) mod n in
          if not (r = rounds && next = 0) then
            match wakers.(next) with
            | Some wake ->
                wakers.(next) <- None;
                wake ~at:(Engine.clock p + 1)
            | None -> Alcotest.fail "ring: token lost"
        done)
  done;
  let before = allocated_words () in
  Engine.run e;
  (!points, allocated_words () -. before)

(* Words per scheduling point: the difference between rings of 2,000
   and 1,000 rounds, which cancels the fibers' start-up. *)
let ring_point_words () =
  let p1, w1 = ring 1_000 in
  let p2, w2 = ring 2_000 in
  (w2 -. w1) /. float_of_int (p2 - p1)

(* A lone processor's yield: nobody else can be due, so it returns
   without switching. *)
let lone_yield_words () =
  let e = Engine.create ~nprocs:1 () in
  let result = ref nan in
  Engine.spawn e 0 (fun p ->
      Engine.yield p;
      let before = allocated_words () in
      for _ = 1 to ops do
        Engine.charge p 1;
        Engine.yield p
      done;
      result := (allocated_words () -. before) /. float_of_int ops);
  Engine.run e;
  !result

(* Words per acquire of cholesky on rt, 8 processors on a 16 x 16 grid,
   its whole run (symbolic analysis and oracle included) over every
   acquire, local or remote. *)
let cholesky_acquire_words () =
  let before = allocated_words () in
  let o =
    Midway_apps.Cholesky.run (Config.make Config.Rt ~nprocs:8) { Midway_apps.Cholesky.grid = 16 }
  in
  let words = allocated_words () -. before in
  if not o.Midway_apps.Outcome.ok then Alcotest.fail "cholesky failed its oracle";
  let acquires =
    Array.fold_left
      (fun n k -> n + k.Counters.lock_acquires_local + k.Counters.lock_acquires_remote)
      0
      (R.all_counters o.Midway_apps.Outcome.machine)
  in
  words /. float_of_int acquires

(* Words per [Vm_state.apply_pieces] of one 8-byte piece into a clean
   page that holds [saved] saved runs elsewhere (every other doubleword
   from offset 512, stashed by a collection of a lock bound to the
   page's first word only). *)
let apply_words ~saved =
  let space = Space.create ~nprocs:1 () in
  let page = Space.alloc space ~kind:Region.Shared ~line_size:8 4096 in
  let vm = Vm_state.create ~page_size:4096 in
  let counters = Counters.create () and cost = Cost_model.default in
  ignore (Vm_state.on_write vm ~space ~proc:0 ~counters ~cost ~addr:page);
  for k = 0 to saved - 1 do
    Space.set_int space ~proc:0 (page + 512 + (16 * k)) 0x0101010101010101
  done;
  ignore (Vm_state.collect vm ~space ~proc:0 ~counters ~cost ~ranges:[ Range.v page 8 ]);
  if Vm_state.pending_pages vm <> Int.min saved 1 then Alcotest.fail "saved runs not stashed";
  let piece = [ { Payload.addr = page + 64; data = Bytes.make 8 'x' } ] in
  let before = allocated_words () in
  for _ = 1 to ops do
    ignore (Sys.opaque_identity (Vm_state.apply_pieces vm ~space ~proc:0 ~counters ~cost piece))
  done;
  (allocated_words () -. before) /. float_of_int ops

(* Words allocated by [f ()], less what measuring allocates. *)
let words_of f =
  let before = allocated_words () in
  f ();
  let during = allocated_words () -. before in
  let before = allocated_words () in
  during -. (allocated_words () -. before)

(* Words per [Vm_state.collect] of one dirty word, alone: a lock bound
   to the page's first word, which the processor writes after each
   collection re-protected the page.  The collection diffs the page,
   ships one piece and cleans the page, and no saved diff is involved. *)
let vm_collect_words () =
  let space = Space.create ~nprocs:1 () in
  let page = Space.alloc space ~kind:Region.Shared ~line_size:8 4096 in
  let vm = Vm_state.create ~page_size:4096 in
  let counters = Counters.create () and cost = Cost_model.default in
  let ranges = [ Range.v page 8 ] in
  let rounds = 10_000 and words = ref 0.0 in
  for i = 0 to rounds do
    ignore (Vm_state.on_write vm ~space ~proc:0 ~counters ~cost ~addr:page);
    Space.set_int space ~proc:0 page (i + 1);
    let w =
      words_of (fun () ->
          match Vm_state.collect vm ~space ~proc:0 ~counters ~cost ~ranges with
          | [ _ ], _ -> ()
          | _ -> Alcotest.fail "one dirty word, one piece")
    in
    (* round 0 warms up: its fault made the twin the later faults reuse *)
    if i > 0 then words := !words +. w
  done;
  !words /. float_of_int rounds

(* Words per remote acquire on an rt lock bound to [lines] 64-byte
   lines, every one of which the acquirer writes: each transfer ships
   them as one run, copied from the releaser's copy into the
   requester's.  Measured as [remote_pair_words] is. *)
let rt_run_transfer_words ~lines =
  let run turns =
    let m = R.create (Config.make Config.Rt ~nprocs:2) in
    let area = R.alloc m ~line_size:64 (lines * 64) in
    let lock = R.new_lock m [ Range.v area (lines * 64) ] in
    let before = allocated_words () in
    R.run m (fun c ->
        for _ = 1 to turns do
          R.acquire c lock;
          for l = 0 to lines - 1 do
            R.write_int c (area + (l * 64)) (R.read_int c (area + (l * 64)) + 1)
          done;
          R.release c lock;
          R.work_ns c 100_000
        done);
    let words = allocated_words () -. before in
    let remote =
      Array.fold_left (fun n k -> n + k.Counters.lock_acquires_remote) 0 (R.all_counters m)
    in
    (words, remote)
  in
  let w1, r1 = run 100 in
  let w2, r2 = run 200 in
  if r2 - r1 < 190 then Alcotest.failf "run transfers: only %d more remote acquires" (r2 - r1);
  (w2 -. w1) /. float_of_int (r2 - r1)

(* Words of vm lock transfers between two processors' detectors over one
   8-byte cell, collect to advance: the releaser writes the cell and
   collects for the other processor, which missed one incarnation (the
   releaser's), and which applies it.  Returns the words of the second
   transfer, made when the lock's log holds one entry, and the mean of
   a window's worth made when the log is full and its ring wraps. *)
let vm_transfer_words () =
  let space = Space.create ~nprocs:2 () in
  let cell = Space.alloc space ~kind:Region.Shared ~line_size:8 8 in
  let cfg = Config.make Config.Vm ~nprocs:2 in
  let window = cfg.Config.update_log_window in
  let counters = Array.init 2 (fun _ -> Counters.create ()) in
  let env = Detector.env cfg space ~counters ~reliable:false in
  let ds = Array.init 2 (fun proc -> Detector.create env ~proc Config.Vm) in
  let lock = Sync.make_lock ~lid:0 ~nprocs:2 ~owner:0 ~ranges:[ Range.v cell 8 ] in
  let region = Space.region_of_addr space cell in
  let transfer k =
    let from = k land 1 in
    let q = 1 - from in
    ignore (Detector.trap ds.(from) ~region ~addr:cell ~len:8);
    Space.set_int space ~proc:from cell (k + 1);
    let words =
      words_of (fun () ->
          match Detector.collect_lock ds.(from) lock ~for_:q with
          | (Payload.Vm_updates [ [ _ ] ] as payload), _, cursor ->
              ignore (Detector.apply ds.(q) ~id:0 ~ranges:lock.Sync.ranges payload);
              Detector.advance ds.(from) lock ~requester:q cursor
          | _ -> Alcotest.fail "one missed incarnation of one piece")
    in
    if Space.get_int space ~proc:q cell <> k + 1 then Alcotest.fail "vm transfer lost the write";
    words
  in
  ignore (transfer 0);
  let one_entry = transfer 1 in
  for k = 2 to (2 * window) - 1 do
    ignore (transfer k)
  done;
  let full = ref 0.0 in
  for k = 2 * window to (3 * window) - 1 do
    full := !full +. transfer k
  done;
  (one_entry, !full /. float_of_int window)

(* Words of a collection that saves a diff on a page whose previous
   saved diff emptied: a lock bound to the page's first word ships it
   and saves a word at offset 512, which a second lock's collection then
   takes, emptying the saved diff.  The mean over rounds after the
   first. *)
let resaved_diff_words () =
  let space = Space.create ~nprocs:1 () in
  let page = Space.alloc space ~kind:Region.Shared ~line_size:8 4096 in
  let vm = Vm_state.create ~page_size:4096 in
  let counters = Counters.create () and cost = Cost_model.default in
  let first = [ Range.v page 8 ] and other = [ Range.v (page + 512) 8 ] in
  let rounds = 1_000 and words = ref 0.0 in
  for i = 0 to rounds do
    ignore (Vm_state.on_write vm ~space ~proc:0 ~counters ~cost ~addr:page);
    Space.set_int space ~proc:0 page (i + 1);
    Space.set_int space ~proc:0 (page + 512) (i + 1);
    let w =
      words_of (fun () ->
          ignore (Vm_state.collect vm ~space ~proc:0 ~counters ~cost ~ranges:first))
    in
    if Vm_state.pending_pages vm <> 1 then Alcotest.fail "the other word is saved";
    (match Vm_state.collect vm ~space ~proc:0 ~counters ~cost ~ranges:other with
    | [ _ ], _ -> ()
    | _ -> Alcotest.fail "the saved word ships");
    if Vm_state.pending_pages vm <> 0 then Alcotest.fail "the saved diff emptied";
    if i > 0 then words := !words +. w
  done;
  !words /. float_of_int rounds

(* Words per point update of one red-black sweep of sor on two
   processors, its sequential oracle's sweep included: the difference
   between runs of 5 and 4 iterations over a 64 x 64 grid. *)
let sor_sweep_words () =
  let n = 64 in
  let run iterations =
    let before = allocated_words () in
    let params = { Midway_apps.Sor.n; iterations } in
    let o = Midway_apps.Sor.run (Config.make Config.Rt ~nprocs:2) params in
    if not o.Midway_apps.Outcome.ok then Alcotest.fail "sor failed its oracle";
    allocated_words () -. before
  in
  let w4 = run 4 in
  let w5 = run 5 in
  (w5 -. w4) /. float_of_int ((n - 2) * (n - 2))

(* Words per pair evaluation of water at its paper size on two
   processors, the whole run and its sequential oracle included: each
   step evaluates every ordered pair of distinct molecules once in the
   run and once in the oracle. *)
let water_pair_words () =
  let params = Midway_apps.Water.default in
  let n = params.Midway_apps.Water.molecules and steps = params.Midway_apps.Water.steps in
  let before = allocated_words () in
  let o = Midway_apps.Water.run (Config.make Config.Rt ~nprocs:2) params in
  let words = allocated_words () -. before in
  if not o.Midway_apps.Outcome.ok then Alcotest.fail "water failed its oracle";
  words /. float_of_int (2 * steps * n * (n - 1))

(* Words per observation of [Kvstore.check] on a kv run: rt, 4
   processors, 2,000 requests per client, a migration every 25
   requests. *)
let kv_check_words () =
  let cfg =
    {
      Kv_workload.default with
      Kv_workload.ycsb = { Kv_workload.default.Kv_workload.ycsb with requests = 2_000 };
      migrate_every = 25;
    }
  in
  let machine = R.create (Config.make Config.Rt ~nprocs:4) in
  let store, prog = Kv_workload.build machine cfg in
  R.run machine prog;
  let violations = ref [] in
  let words = words_of (fun () -> violations := Kvstore.check store) in
  if !violations <> [] then Alcotest.failf "kv run failed its oracle: %s" (List.hd !violations);
  words /. float_of_int (Array.length (Kvstore.observations store))

(* Words of one passing explorer run, after a warm-up run: the counter
   workload as the fuzz grid runs it, on the sweep's processors with
   ECSan armed and its trace capacity, under a seeded schedule.  The
   trace tail must stay unrendered. *)
let fuzz_run_words backend =
  let spec = Explore.default_spec in
  let w = Midway_explore.Workload.counter ~iters:6 in
  let cfg =
    {
      (Config.make backend ~nprocs:spec.Explore.nprocs) with
      Config.ecsan = spec.Explore.ecsan;
      trace_capacity = spec.Explore.trace_capacity;
    }
    |> Config.with_schedule_seed 17
  in
  ignore (Explore.execute w cfg);
  let j = ref None in
  let words = words_of (fun () -> j := Some (Explore.execute w cfg)) in
  let j = Option.get !j in
  if j.Explore.j_failed then Alcotest.failf "counter failed: %s" j.Explore.j_reason;
  if j.Explore.j_trace <> [] then Alcotest.fail "a passing run rendered its trace tail";
  words

let gate ?backend name ~below body =
  Alcotest.test_case name `Quick (fun () ->
      let w = words_per_op ?backend body in
      if not (w < below) then Alcotest.failf "%s: %.4f words/op (gate: < %.2f)" name w below)

let () =
  Alcotest.run "alloc"
    [
      ( "footprint",
        [
          Alcotest.test_case "64-processor lock cell" `Quick test_lock_cell_footprint;
          Alcotest.test_case "vm binding past every region" `Quick test_far_binding_footprint;
        ] );
      ( "words per op",
        [
          gate "Space.set_f64" ~below:0.01 space_set_f64;
          gate "Space.set_int" ~below:0.01 space_set_int;
          gate "Space.get_int" ~below:0.01 space_get_int;
          gate "rt write_f64" ~below:0.01 write_f64;
          gate "vm write_f64" ~backend:Config.Vm ~below:0.01 write_f64;
          gate "private write_f64" ~below:0.01 write_f64_private;
          gate "read_f64" ~below:0.01 read_f64;
          gate "Space.set_f64 unaligned" ~below:0.01 space_set_f64_unaligned;
          gate "Space.get_f64 unaligned" ~below:0.01 space_get_f64_unaligned;
          gate "rt write_f64 unaligned" ~below:0.01 write_f64_unaligned;
          gate "read_f64 unaligned" ~below:0.01 read_f64_unaligned;
          gate "read_int" ~below:0.01 read_int;
          gate "rt write_int" ~below:0.01 write_int;
          gate "vm write_int" ~backend:Config.Vm ~below:0.01 write_int;
          gate "write_int_private" ~below:0.01 write_int_private;
          gate "read_i32" ~below:0.01 read_i32;
          gate "write_i32" ~below:0.01 write_i32;
          gate "read_u8" ~below:0.01 read_u8;
          gate "write_u8" ~below:0.01 write_u8;
          (* 2 words: the yields return without switching *)
          Alcotest.test_case "local acquire+release" `Quick (fun () ->
              let w = sync_pair_words () in
              if not (w < 4.) then
                Alcotest.failf "local acquire+release: %.4f words/pair (gate: < 4)" w);
          (* 21 words; a block reason, setup or request closure, or a
             queue tuple, built per acquire would add at least 4,
             formatting the reason as text on every block 56, and a
             copy of the shipped line 3 *)
          Alcotest.test_case "remote acquire+release" `Quick (fun () ->
              let w = remote_pair_words () in
              if not (w < 25.) then
                Alcotest.failf "remote acquire+release: %.4f words/pair (gate: < 25)" w);
        ] );
      ( "scheduling",
        [
          (* 5.5 words, the ring's own [Some wake] and setup closure
             included; a closure or queue entry per switch would add
             at least 2 *)
          Alcotest.test_case "ring scheduling point" `Quick (fun () ->
              let w = ring_point_words () in
              if not (w < 8.) then
                Alcotest.failf "ring: %.4f words/scheduling point (gate: < 8)" w);
          Alcotest.test_case "lone yield" `Quick (fun () ->
              let w = lone_yield_words () in
              if not (w < 0.01) then
                Alcotest.failf "lone yield: %.4f words/yield (gate: < 0.01)" w);
          (* 69 words *)
          Alcotest.test_case "cholesky acquire" `Quick (fun () ->
              let w = cholesky_acquire_words () in
              if not (w < 80.) then
                Alcotest.failf "cholesky rt: %.4f words/acquire (gate: < 80)" w);
        ] );
      ( "saved diffs",
        [
          Alcotest.test_case "apply beside 64 saved runs" `Quick (fun () ->
              let none = apply_words ~saved:0 and many = apply_words ~saved:64 in
              if not (many <= none) then
                Alcotest.failf "apply beside 64 saved runs: %.4f words/op, %.4f beside none" many
                  none);
          (* 25 words: the piece, its cons and its reversal, the
             collection's context and the result; a closure per page or
             per call, a copy of the piece list, the diff's run list or
             a pair per page view would add at least 3 (104 with all of
             them) *)
          Alcotest.test_case "one-word vm collect" `Quick (fun () ->
              let w = vm_collect_words () in
              if not (w < 30.) then
                Alcotest.failf "one-word vm collect: %.4f words (gate: < 30)" w);
        ] );
      ( "transfers",
        [
          Alcotest.test_case "rt run copied copy to copy" `Quick (fun () ->
              let one = rt_run_transfer_words ~lines:1
              and many = rt_run_transfer_words ~lines:512 in
              if not (many <= one) then
                Alcotest.failf "rt transfer of a 512-line run: %.4f words, of one line %.4f" many
                  one);
          Alcotest.test_case "vm log window" `Quick (fun () ->
              let one_entry, full = vm_transfer_words () in
              if not (full <= one_entry) then
                Alcotest.failf "vm transfer: %.4f words with a full log, %.4f with one entry" full
                  one_entry);
          Alcotest.test_case "saved diff shadow pooled" `Quick (fun () ->
              let w = resaved_diff_words () in
              if not (w < 512.) then
                Alcotest.failf "re-saved diff: %.4f words (gate: < 512, a page buffer)" w);
        ] );
      ( "sor",
        [
          (* 0.38 words, none of them per point: a float boxed on
             every update would add 2 *)
          Alcotest.test_case "red-black sweep" `Quick (fun () ->
              let w = sor_sweep_words () in
              if not (w < 0.5) then
                Alcotest.failf "sor sweep: %.4f words/point update (gate: < 0.5)" w);
        ] );
      ( "water",
        [
          (* 0.26 words, none of them per pair: one boxed float per
             evaluation in either loop would add 1 *)
          Alcotest.test_case "pair evaluations" `Quick (fun () ->
              let w = water_pair_words () in
              if not (w < 1.0) then
                Alcotest.failf "water: %.4f words/pair evaluation (gate: < 1.0)" w);
        ] );
      ( "explore",
        [
          (* rt 10,743 words, vm 12,381.  Over perfbench's fuzz grid,
             rendering the trace tail of a passing run adds about 2,400
             words a run and formatting a reason per block about 1,500 *)
          Alcotest.test_case "passing fuzz run" `Quick (fun () ->
              List.iter
                (fun backend ->
                  let w = fuzz_run_words backend in
                  if not (w < 12_500.) then
                    Alcotest.failf "%s fuzz run: %.0f words (gate: < 12,500)"
                      (Config.backend_name backend) w)
                [ Config.Rt; Config.Vm ]);
        ] );
      ( "kv",
        [
          (* 3.7 words over 8,352 observations, in arrays sized by
             the log, a bucket or the keyspace; the list-and-Hashtbl
             checker it replaced allocated 46.9 *)
          Alcotest.test_case "oracle replay" `Quick (fun () ->
              let w = kv_check_words () in
              if not (w < 8.) then
                Alcotest.failf "Kvstore.check: %.4f words/observation (gate: < 8)" w);
        ] );
    ]
