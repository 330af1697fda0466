(* Allocation gates.  Allocation counts are deterministic, so unlike host
   time these bounds hold exactly on every run:

   - footprint: a machine provisions memory for the bytes it uses, not
     for every (region, processor) pair it touches at full region size;
   - words/op: typed access and write trapping through Space and the
     Runtime API, on rt and on vm, allocate nothing but a float result's
     box;
   - saved diffs: applying an update to a page costs the same whatever
     saved diffs the page holds elsewhere;
   - sor: a red-black sweep allocates only the boxes of the floats that
     cross the Runtime API. *)

module R = Midway.Runtime
module Config = Midway.Config
module Range = Midway.Range
module Space = Midway_memory.Space
module Region = Midway_memory.Region
module Vm_state = Midway.Vm_state
module Payload = Midway.Payload
module Counters = Midway_stats.Counters
module Cost_model = Midway_stats.Cost_model

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

let space_set_f64 _ space ~shared ~priv:_ =
  for i = 0 to ops - 1 do
    Space.set_f64 space ~proc:0 (shared + ((i land 4095) lsl 3)) 1.0
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
    R.write_f64 c (shared + ((i land 4095) lsl 3)) 1.0
  done

let write_f64_private c _ ~shared:_ ~priv =
  for i = 0 to ops - 1 do
    R.write_f64_private c (priv + ((i land 4095) lsl 3)) 1.0
  done

let read_f64 c _ ~shared ~priv:_ =
  for i = 0 to ops - 1 do
    ignore (Sys.opaque_identity (R.read_f64 c (shared + ((i land 4095) lsl 3))))
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

let gate ?backend name ~below body =
  Alcotest.test_case name `Quick (fun () ->
      let w = words_per_op ?backend body in
      if not (w < below) then Alcotest.failf "%s: %.4f words/op (gate: < %.2f)" name w below)

let () =
  Alcotest.run "alloc"
    [
      ( "footprint",
        [ Alcotest.test_case "64-processor lock cell" `Quick test_lock_cell_footprint ] );
      ( "words per op",
        [
          gate "Space.set_f64" ~below:0.01 space_set_f64;
          gate "Space.set_int" ~below:0.01 space_set_int;
          gate "Space.get_int" ~below:0.01 space_get_int;
          gate "rt write_f64" ~below:0.01 write_f64;
          gate "vm write_f64" ~backend:Config.Vm ~below:0.01 write_f64;
          gate "private write_f64" ~below:0.01 write_f64_private;
          (* the two words are the float result's box *)
          gate "read_f64" ~below:2.01 read_f64;
          Alcotest.test_case "local acquire+release" `Quick (fun () ->
              let w = sync_pair_words () in
              if not (w < 57.) then
                Alcotest.failf "local acquire+release: %.4f words/pair (gate: < 57)" w);
        ] );
      ( "saved diffs",
        [
          Alcotest.test_case "apply beside 64 saved runs" `Quick (fun () ->
              let none = apply_words ~saved:0 and many = apply_words ~saved:64 in
              if not (many <= none) then
                Alcotest.failf "apply beside 64 saved runs: %.4f words/op, %.4f beside none" many
                  none);
        ] );
      ( "sor",
        [
          (* 10 of the words are float boxes: dune's default profile
             compiles with -opaque, so each of the four read_f64 results
             and the stored value cross the Runtime API boxed; the rest
             is the edge-row barriers *)
          Alcotest.test_case "red-black sweep" `Quick (fun () ->
              let w = sor_sweep_words () in
              if not (w < 10.5) then
                Alcotest.failf "sor sweep: %.4f words/point update (gate: < 10.5)" w);
        ] );
    ]
