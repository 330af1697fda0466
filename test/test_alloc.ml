(* Allocation gates.  Allocation counts are deterministic, so unlike host
   time these bounds hold exactly on every run:

   - footprint: a machine provisions memory for the bytes it uses, not
     for every (region, processor) pair it touches at full region size;
   - words/op: typed access and write trapping through Space and the
     Runtime API allocate nothing but a float result's box. *)

module R = Midway.Runtime
module Config = Midway.Config
module Range = Midway.Range
module Space = Midway_memory.Space

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
   one-processor rt machine over 4096 words that were all written once
   before, so no first touch or dirtybit table growth is counted. *)
let words_per_op body =
  let m = R.create (Config.make Config.Rt ~nprocs:1) in
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

let gate name ~below body =
  Alcotest.test_case name `Quick (fun () ->
      let w = words_per_op body in
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
          gate "private write_f64" ~below:0.01 write_f64_private;
          (* the two words are the float result's box *)
          gate "read_f64" ~below:2.01 read_f64;
          Alcotest.test_case "local acquire+release" `Quick (fun () ->
              let w = sync_pair_words () in
              if not (w < 57.) then
                Alcotest.failf "local acquire+release: %.4f words/pair (gate: < 57)" w);
        ] );
    ]
