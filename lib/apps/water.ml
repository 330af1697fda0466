module R = Midway.Runtime
module Range = Midway.Range

type sync_style = Barrier_phases | Molecule_locks

type params = { molecules : int; steps : int; sync : sync_style }

let default = { molecules = 343; steps = 5; sync = Barrier_phases }

let scaled f =
  {
    molecules = max 8 (int_of_float (343.0 *. f));
    steps = max 2 (int_of_float (5.0 *. f));
    sync = Barrier_phases;
  }

(* Molecule record layout, in doubles:
   [0..8]   atom positions (3 atoms x xyz)
   [9..17]  atom velocities
   [18..26] accumulated forces
   [27..71] higher-order predictor/corrector terms *)
let doubles_per_molecule = 72

let record_bytes = doubles_per_molecule * 8

let dt = 0.001

let initial_field m k =
  (* Deterministic liquid-state-ish initial values. *)
  let h = (m * 73856093) lxor (k * 19349663) in
  let v = float_of_int (h land 0xFFFF) /. 65536.0 in
  if k < 9 then float_of_int (m mod 7) +. v (* positions in a small box *)
  else if k < 18 then (v -. 0.5) /. 8.0 (* velocities *)
  else 0.0

(* The simplified pair interaction: a soft inverse-square attraction
   between molecular centres (atom 0).  For centres [d = (dx, dy, dz)]
   apart it is [coef] times [d], with potential [coef].  Both force
   loops below spell the force out around this coefficient in the same
   order of operations, so they round identically; a tuple or a
   closure would box the floats on every pair. *)
let[@inline] pair_coef dx dy dz =
  let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) in
  1.0 /. (r2 +. 0.5)

(* Sequential oracle sharing the exact arithmetic and iteration order. *)
let oracle { molecules = n; steps; sync = _ } =
  let m = Array.init n (fun i -> Array.init doubles_per_molecule (initial_field i)) in
  let energy = ref 0.0 in
  for _ = 1 to steps do
    (* predict *)
    for i = 0 to n - 1 do
      let r = m.(i) in
      for k = 0 to 8 do
        r.(k) <- r.(k) +. (r.(k + 9) *. dt)
      done;
      for k = 27 to doubles_per_molecule - 1 do
        r.(k) <- (r.(k) *. 0.999) +. (r.(k mod 9) *. 0.001)
      done
    done;
    (* force + correct, owner-computes order *)
    let forces = Array.make_matrix n 3 0.0 in
    for i = 0 to n - 1 do
      let ri = m.(i) and fi = forces.(i) in
      for j = 0 to n - 1 do
        if j <> i then begin
          let rj = m.(j) in
          let dx = ri.(0) -. rj.(0) and dy = ri.(1) -. rj.(1) and dz = ri.(2) -. rj.(2) in
          let coef = pair_coef dx dy dz in
          fi.(0) <- fi.(0) +. (dx *. coef);
          fi.(1) <- fi.(1) +. (dy *. coef);
          fi.(2) <- fi.(2) +. (dz *. coef);
          if j > i then energy := !energy +. coef
        end
      done
    done;
    for i = 0 to n - 1 do
      let r = m.(i) in
      for d = 0 to 2 do
        r.(18 + d) <- forces.(i).(d);
        for atom = 0 to 2 do
          r.(9 + (atom * 3) + d) <- r.(9 + (atom * 3) + d) +. (forces.(i).(d) *. dt)
        done
      done
    done
  done;
  (m, !energy)

let run cfg ({ molecules = n; steps; sync } as params) =
  let machine = R.create cfg in
  let nprocs = cfg.Midway.Config.nprocs in
  let mols = R.alloc machine ~line_size:64 (n * record_bytes) in
  let field m k = mols + (m * record_bytes) + (k * 8) in
  let energy_addr = R.alloc machine ~line_size:8 8 in
  let energy_lock = R.new_lock machine [ Range.v energy_addr 8 ] in
  (* Barrier_phases: the whole array is bound to the step barrier.
     Molecule_locks: each record is bound to its own lock (SPLASH
     water's structure); readers take them in non-exclusive mode and the
     step barrier carries no data. *)
  let lock_sync = sync = Molecule_locks in
  let step_bar =
    R.new_barrier machine (if lock_sync then [] else [ Range.v mols (n * record_bytes) ])
  in
  let mol_lock =
    if lock_sync then
      Array.init n (fun m ->
          R.new_lock machine
            ~owner:(Common.owner_of ~n ~nprocs m)
            [ Range.v (mols + (m * record_bytes)) record_bytes ])
    else [||]
  in
  let done_bar = R.new_barrier machine [] in
  R.run machine (fun c ->
      let me = R.id c in
      let lo, hi = Common.band ~n ~nprocs me in
      if me = 0 then begin
        R.acquire c energy_lock;
        R.write_f64 c energy_addr 0.0;
        R.release c energy_lock
      end;
      (* Initialize my molecules. *)
      for m = lo to hi - 1 do
        for k = 0 to doubles_per_molecule - 1 do
          R.write_f64 c (field m k) (initial_field m k)
        done;
        R.work_cycles c (doubles_per_molecule * 4)
      done;
      for _step = 1 to steps do
        (* predict: advance my molecules (under their locks in lock-sync
           style; the acquisitions are local unless a reader took the
           lock away last step). *)
        for m = lo to hi - 1 do
          if lock_sync then R.acquire c mol_lock.(m);
          for k = 0 to 8 do
            R.write_f64 c (field m k) (R.read_f64 c (field m k) +. (R.read_f64 c (field m (k + 9)) *. dt))
          done;
          for k = 27 to doubles_per_molecule - 1 do
            R.write_f64 c (field m k)
              ((R.read_f64 c (field m k) *. 0.999) +. (R.read_f64 c (field m (k mod 9)) *. 0.001))
          done;
          if lock_sync then R.release c mol_lock.(m);
          R.work_cycles c (doubles_per_molecule * 3 * Common.cycles_flop)
        done;
        (* Consistency point: with barrier sync the barrier ships the
           records; with lock sync it only separates the phases. *)
        R.barrier c step_bar;
        (* force: private accumulation (the SPLASH optimization). *)
        let forces = Array.make ((hi - lo) * 3) 0.0 in
        let my_pot = ref 0.0 in
        (* lock-sync style: fetch every foreign molecule once per step
           through a non-exclusive acquisition *)
        if lock_sync then
          for j = 0 to n - 1 do
            if j < lo || j >= hi then begin
              R.acquire_read c mol_lock.(j);
              R.release c mol_lock.(j)
            end
          done;
        for m = lo to hi - 1 do
          let xi = R.read_f64 c (field m 0)
          and yi = R.read_f64 c (field m 1)
          and zi = R.read_f64 c (field m 2) in
          let base = (m - lo) * 3 in
          for j = 0 to n - 1 do
            if j <> m then begin
              let xj = R.read_f64 c (field j 0)
              and yj = R.read_f64 c (field j 1)
              and zj = R.read_f64 c (field j 2) in
              let dx = xi -. xj and dy = yi -. yj and dz = zi -. zj in
              let coef = pair_coef dx dy dz in
              forces.(base) <- forces.(base) +. (dx *. coef);
              forces.(base + 1) <- forces.(base + 1) +. (dy *. coef);
              forces.(base + 2) <- forces.(base + 2) +. (dz *. coef);
              if j > m then my_pot := !my_pot +. coef
            end
          done;
          (* ~4,400 cycles per pair evaluation calibrates the
             uniprocessor run to the paper's 104 s (water's real pair
             computation is far heavier than our simplified force law) *)
          R.work_cycles c (n * 4_400)
        done;
        (* correct: fold the private forces into my shared molecules. *)
        for m = lo to hi - 1 do
          if lock_sync then R.acquire c mol_lock.(m);
          let base = (m - lo) * 3 in
          for d = 0 to 2 do
            R.write_f64 c (field m (18 + d)) forces.(base + d);
            for atom = 0 to 2 do
              let k = 9 + (atom * 3) + d in
              R.write_f64 c (field m k) (R.read_f64 c (field m k) +. (forces.(base + d) *. dt))
            done
          done;
          if lock_sync then R.release c mol_lock.(m);
          R.work_cycles c (12 * Common.cycles_flop)
        done;
        (* global potential energy under its lock. *)
        R.acquire c energy_lock;
        R.write_f64 c energy_addr (R.read_f64 c energy_addr +. !my_pot);
        R.release c energy_lock
      done;
      R.barrier c done_bar);
  (* Verify molecules bitwise against the oracle (owner copies); energy
     within tolerance (the addition order across processors differs). *)
  let expect, expect_energy = oracle params in
  let ok = ref true in
  let bad = ref 0 in
  for m = 0 to n - 1 do
    let p = Common.owner_of ~n ~nprocs m in
    for k = 0 to doubles_per_molecule - 1 do
      let got = Common.read_f64_direct machine ~proc:p (field m k) in
      if got <> expect.(m).(k) then begin
        if !bad = 0 then
          Printf.eprintf "water mismatch: mol %d field %d = %.17g expect %.17g\n%!" m k got
            expect.(m).(k);
        incr bad;
        ok := false
      end
    done
  done;
  (* The lock's final owner holds the authoritative accumulator copy. *)
  let got_energy =
    Common.read_f64_direct machine ~proc:energy_lock.Midway.Sync.owner energy_addr
  in
  let energy_ok = Common.approx_equal ~rel:1e-9 got_energy expect_energy in
  if not energy_ok then ok := false;
  Outcome.v ~app:"water" ~machine ~ok:!ok
    ~notes:
      [
        Printf.sprintf "molecules=%d, steps=%d, %d field mismatches; energy %.6f vs %.6f" n
          steps !bad got_energy expect_energy;
      ]
