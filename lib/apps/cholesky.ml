module R = Midway.Runtime
module Range = Midway.Range

type params = { grid : int }

let default = { grid = 32 }

(* Work grows like grid^4, so scale the grid edge by sqrt f to keep the
   runtime proportional to the other applications' scaling. *)
let scaled f = { grid = max 6 (int_of_float (32.0 *. sqrt f)) }

(* --- the test problem: perturbed 5-point grid Laplacian --------------- *)

let laplacian_entry k i j =
  let n = k * k in
  if i < 0 || j < 0 || i >= n || j >= n then invalid_arg "laplacian_entry";
  if i = j then 16.0 +. float_of_int (j mod 3)
  else begin
    let ri = i / k and ci = i mod k and rj = j / k and cj = j mod k in
    let adjacent = abs (ri - rj) + abs (ci - cj) = 1 in
    if adjacent then -1.0 -. (0.5 *. float_of_int ((i + j) mod 2)) else 0.0
  end

let grid_pattern k j =
  (* Lower-triangular structure of column j of A (diagonal included). *)
  let n = k * k in
  let neighbours = [ j; j + 1; j + k ] in
  List.filter
    (fun i -> i >= j && i < n && (i = j || laplacian_entry k i j <> 0.0))
    neighbours

(* --- symbolic analysis ------------------------------------------------ *)

type symbolic = {
  n : int;
  pattern : int array array;
  nmod : int array;
}

let symbolic_analyse k =
  let n = k * k in
  let sets = Array.make n [||] in
  (* updaters.(j) = columns k < j with L(j,k) <> 0, discovered as we go *)
  let updaters = Array.make n [] in
  let mark = Array.make n (-1) in
  for j = 0 to n - 1 do
    let members = ref [] in
    let add i =
      if i >= j && mark.(i) <> j then begin
        mark.(i) <- j;
        members := i :: !members
      end
    in
    List.iter add (grid_pattern k j);
    List.iter (fun c -> Array.iter (fun i -> if i > j then add i) sets.(c)) updaters.(j);
    let sorted = List.sort compare !members in
    let arr = Array.of_list sorted in
    sets.(j) <- arr;
    Array.iter (fun i -> if i > j then updaters.(i) <- j :: updaters.(i)) arr
  done;
  { n; pattern = sets; nmod = Array.map List.length updaters }

(* The offset of row [i] in the ascending [pattern], at or after
   [from].  cmod from column j into column t touches j's rows from t on,
   which are a subset of t's rows (that is how the fill-in was built):
   both lists ascend, so one forward walk over t's pattern finds every
   offset. *)
let rec offset_of (pattern : int array) (i : int) from =
  if pattern.(from) = i then from else offset_of pattern i (from + 1)

(* --- sequential oracle ------------------------------------------------ *)

let oracle_factor k sym =
  let n = sym.n in
  let vals = Array.mapi (fun j p -> Array.map (fun i -> laplacian_entry k i j) p) sym.pattern in
  for j = 0 to n - 1 do
    (* cdiv *)
    let d = sqrt vals.(j).(0) in
    vals.(j).(0) <- d;
    for idx = 1 to Array.length vals.(j) - 1 do
      vals.(j).(idx) <- vals.(j).(idx) /. d
    done;
    (* cmod: column j updates every later column in its pattern *)
    for kidx = 1 to Array.length sym.pattern.(j) - 1 do
      let target = sym.pattern.(j).(kidx) in
      let ljk = vals.(j).(kidx) in
      let off = ref 0 in
      for idx = kidx to Array.length sym.pattern.(j) - 1 do
        off := offset_of sym.pattern.(target) sym.pattern.(j).(idx) !off;
        vals.(target).(!off) <- vals.(target).(!off) -. (vals.(j).(idx) *. ljk)
      done
    done
  done;
  vals

(* --- the parallel DSM program ----------------------------------------- *)

let q_head = 0

let q_count = 1

let q_done = 2

let run cfg { grid = k } =
  let machine = R.create cfg in
  let sym = symbolic_analyse k in
  let n = sym.n in
  (* Column storage: one remaining-updates counter word followed by the
     column values, fine-grained (8-byte) cache lines. *)
  let col_base =
    Array.init n (fun j -> R.alloc machine ~line_size:8 ((1 + Array.length sym.pattern.(j)) * 8))
  in
  let counter_addr j = col_base.(j) in
  let value_addr j idx = col_base.(j) + ((1 + idx) * 8) in
  let col_lock =
    Array.init n (fun j ->
        R.new_lock machine [ Range.v col_base.(j) ((1 + Array.length sym.pattern.(j)) * 8) ])
  in
  let qwords = 3 + n in
  let qstate = R.alloc machine ~line_size:8 (qwords * 8) in
  let qaddr w = qstate + (w * 8) in
  let queue_lock = R.new_lock machine [ Range.v qstate (qwords * 8) ] in
  let start_bar = R.new_barrier machine [] in
  let done_bar = R.new_barrier machine [] in
  R.run machine (fun c ->
      let me = R.id c in
      let cycles = R.work_cycles c in
      let q_get w = R.read_int c (qaddr w) in
      let q_set w v = R.write_int c (qaddr w) v in
      let push_ready j =
        let head = q_get q_head and count = q_get q_count in
        q_set (3 + ((head + count) mod n)) j;
        q_set q_count (count + 1)
      in
      let pop_ready () =
        let count = q_get q_count in
        if count = 0 then None
        else begin
          let head = q_get q_head in
          let j = q_get (3 + (head mod n)) in
          q_set q_head (head + 1);
          q_set q_count (count - 1);
          Some j
        end
      in
      if me = 0 then begin
        (* Load A and the update counters, then seed the queue. *)
        for j = 0 to n - 1 do
          R.acquire c col_lock.(j);
          R.write_int c (counter_addr j) sym.nmod.(j);
          Array.iteri
            (fun idx i -> R.write_f64 c (value_addr j idx) (laplacian_entry k i j))
            sym.pattern.(j);
          R.release c col_lock.(j)
        done;
        R.acquire c queue_lock;
        q_set q_head 0;
        q_set q_count 0;
        q_set q_done 0;
        for j = 0 to n - 1 do
          if sym.nmod.(j) = 0 then push_ready j
        done;
        R.release c queue_lock
      end;
      R.barrier c start_bar;
      let running = ref true in
      (* Exponential backoff while no column is ready (see quicksort). *)
      let backoff = ref 100_000 in
      while !running do
        R.acquire c queue_lock;
        match pop_ready () with
        | Some j ->
            R.release c queue_lock;
            backoff := 100_000;
            (* cdiv(j) *)
            R.acquire c col_lock.(j);
            let len = Array.length sym.pattern.(j) in
            let d = sqrt (R.read_f64 c (value_addr j 0)) in
            R.write_f64 c (value_addr j 0) d;
            for idx = 1 to len - 1 do
              R.write_f64 c (value_addr j idx) (R.read_f64 c (value_addr j idx) /. d)
            done;
            cycles (len * 2 * Common.cycles_flop);
            (* Snapshot the column host-side; it is immutable from now on. *)
            let col = Array.init len (fun idx -> R.read_f64 c (value_addr j idx)) in
            R.release c col_lock.(j);
            (* cmod from j into each later column of its pattern. *)
            for kidx = 1 to len - 1 do
              let target = sym.pattern.(j).(kidx) in
              let ljk = col.(kidx) in
              R.acquire c col_lock.(target);
              let off = ref 0 in
              for idx = kidx to len - 1 do
                off := offset_of sym.pattern.(target) sym.pattern.(j).(idx) !off;
                let a = value_addr target !off in
                R.write_f64 c a (R.read_f64 c a -. (col.(idx) *. ljk))
              done;
              cycles ((len - kidx) * 2 * Common.cycles_flop);
              let remaining = R.read_int c (counter_addr target) - 1 in
              R.write_int c (counter_addr target) remaining;
              R.release c col_lock.(target);
              if remaining = 0 then begin
                R.acquire c queue_lock;
                push_ready target;
                R.release c queue_lock
              end
            done;
            R.acquire c queue_lock;
            q_set q_done (q_get q_done + 1);
            R.release c queue_lock
        | None ->
            let finished = q_get q_done in
            R.release c queue_lock;
            if finished = n then running := false
            else begin
              R.work_ns c !backoff;
              backoff := min (2 * !backoff) 8_000_000
            end
      done;
      R.barrier c done_bar);
  (* Verify against the oracle within tolerance (update order varies),
     reading each column from its lock's final owner. *)
  let expect = oracle_factor k sym in
  let ok = ref true in
  let bad = ref 0 in
  let max_rel = ref 0.0 in
  for j = 0 to n - 1 do
    let owner = col_lock.(j).Midway.Sync.owner in
    Array.iteri
      (fun idx _i ->
        let got = Common.read_f64_direct machine ~proc:owner (value_addr j idx) in
        let want = expect.(j).(idx) in
        let rel =
          if want = 0.0 then Float.abs got
          else Float.abs (got -. want) /. Float.max 1e-30 (Float.abs want)
        in
        if rel > !max_rel then max_rel := rel;
        if not (Common.approx_equal ~rel:1e-9 ~abs:1e-9 got want) then begin
          if !bad = 0 then
            Printf.eprintf "cholesky mismatch: L[%d][%d] = %.17g expect %.17g\n%!"
              j sym.pattern.(j).(idx) got want;
          incr bad;
          ok := false
        end)
      sym.pattern.(j)
  done;
  let nnz = Array.fold_left (fun acc p -> acc + Array.length p) 0 sym.pattern in
  Outcome.v ~app:"cholesky" ~machine ~ok:!ok
    ~notes:
      [
        Printf.sprintf "grid=%dx%d (n=%d, nnz(L)=%d), max rel err %.2e, %d mismatches" k k n
          nnz !max_rel !bad;
      ]
