module R = Midway.Runtime
module Range = Midway.Range

type params = { n : int; iterations : int }

let default = { n = 1000; iterations = 25 }

let scaled f =
  {
    n = max 16 (int_of_float (1000.0 *. f));
    iterations = max 4 (int_of_float (25.0 *. f));
  }

(* Deterministic pseudo-random interior; fixed edge temperatures. *)
let initial n i j =
  if i = 0 then 100.0
  else if i = n - 1 then 0.0
  else if j = 0 || j = n - 1 then 50.0
  else float_of_int (((i * 7919) + (j * 104729)) mod 1000) /. 10.0

(* Red-black Gauss-Seidel: phase [parity] updates the points with
   [(i + j) land 1 = parity] to 0.25 *. (up +. down +. left +. right).
   Both loops below spell the stencil out in that one expression, so
   they round identically, and neither builds a closure or an option
   per point. *)

(* Sequential oracle with the same arithmetic and phase order. *)
let oracle { n; iterations } =
  let m = Array.init n (fun i -> Array.init n (fun j -> initial n i j)) in
  for _ = 1 to iterations do
    for parity = 0 to 1 do
      for i = 1 to n - 2 do
        let up = m.(i - 1) and row = m.(i) and down = m.(i + 1) in
        for j = 1 to n - 2 do
          if (i + j) land 1 = parity then
            row.(j) <- 0.25 *. (up.(j) +. down.(j) +. row.(j - 1) +. row.(j + 1))
        done
      done
    done
  done;
  m

let fits { n; _ } ~nprocs = n / nprocs >= 3

(* A store to a grid row: edge rows are shared, interior rows private. *)
let[@inline] store c ~shared a v =
  if shared then R.write_f64 c a v else R.write_f64_private c a v

let run cfg ({ n; iterations } as params) =
  let nprocs = cfg.Midway.Config.nprocs in
  if not (fits params ~nprocs) then
    invalid_arg "Sor.run: bands too narrow for this processor count";
  let machine = R.create cfg in
  let row_bytes = n * 8 in
  (* Per-row allocation: partition-edge rows shared, interior private. *)
  let shared_row =
    Array.init n (fun r ->
        nprocs > 1
        &&
        let p = Common.owner_of ~n ~nprocs r in
        let lo, hi = Common.band ~n ~nprocs p in
        (r = lo && p > 0) || (r = hi - 1 && p < nprocs - 1))
  in
  let row_addr =
    Array.init n (fun r -> R.alloc machine ~line_size:64 ~private_:(not shared_row.(r)) row_bytes)
  in
  let addr i j = row_addr.(i) + (j * 8) in
  (* One two-party barrier per neighbouring pair, binding the two edge
     rows the pair exchanges. *)
  let pair_bar =
    Array.init (max 0 (nprocs - 1)) (fun p ->
        let _, hi = Common.band ~n ~nprocs p in
        R.new_barrier machine ~participants:2 ~manager:p
          [ Range.v row_addr.(hi - 1) row_bytes; Range.v row_addr.(hi) row_bytes ])
  in
  let done_bar = R.new_barrier machine [] in
  let flops_per_update = 4 in
  R.run machine (fun c ->
      let me = R.id c in
      let lo, hi = Common.band ~n ~nprocs me in
      (* Initialize my band through the classified stores, then exchange
         edge rows once so iteration 1 reads the true initial values. *)
      for i = lo to hi - 1 do
        let row = row_addr.(i) and shared = shared_row.(i) in
        for j = 0 to n - 1 do
          store c ~shared (row + (j * 8)) (initial n i j)
        done;
        R.work_cycles c (n * 2)
      done;
      let exchange () =
        (* Linear chain: settle the left pair first, then the right. *)
        if me > 0 then R.barrier c pair_bar.(me - 1);
        if me < nprocs - 1 then R.barrier c pair_bar.(me)
      in
      exchange ();
      let first = max lo 1 and last = min (hi - 1) (n - 2) in
      for _ = 1 to iterations do
        for parity = 0 to 1 do
          for i = first to last do
            (* Accesses go straight to the Runtime on the rows' base
               addresses: a float passed through a local closure would
               be boxed on every point. *)
            let up = row_addr.(i - 1) and row = row_addr.(i) and down = row_addr.(i + 1) in
            let shared = shared_row.(i) in
            let updates = ref 0 in
            for j = 1 to n - 2 do
              if (i + j) land 1 = parity then begin
                incr updates;
                let o = j * 8 in
                store c ~shared (row + o)
                  (0.25
                  *. (R.read_f64 c (up + o)
                     +. R.read_f64 c (down + o)
                     +. R.read_f64 c (row + o - 8)
                     +. R.read_f64 c (row + o + 8)))
              end
            done;
            R.work_cycles c (!updates * flops_per_update * Common.cycles_flop)
          done;
          exchange ()
        done
      done;
      R.barrier c done_bar);
  (* Verify every element of every band against the oracle, bitwise. *)
  let m = oracle params in
  let ok = ref true in
  let bad = ref 0 in
  for i = 0 to n - 1 do
    let p = Common.owner_of ~n ~nprocs i in
    for j = 0 to n - 1 do
      let got = Common.read_f64_direct machine ~proc:p (addr i j) in
      if got <> m.(i).(j) then begin
        if !bad = 0 then
          Printf.eprintf "sor mismatch: [%d,%d]=%.17g expect %.17g\n%!" i j got m.(i).(j);
        incr bad;
        ok := false
      end
    done
  done;
  Outcome.v ~app:"sor" ~machine ~ok:!ok
    ~notes:
      [
        Printf.sprintf "n=%d, %d iterations, %d mismatches vs sequential oracle" n iterations
          !bad;
      ]
