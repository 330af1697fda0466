(* Random entry-consistency programs.

   A program is generated deterministically from (seed, nprocs): a few
   lock groups, each binding a contiguous disjoint run of 8-byte cells,
   and one or two barrier-separated rounds of per-processor operation
   lists.  The only mutation is a lock-guarded commutative add, so the
   final value of every cell is schedule-independent: the per-cell sum
   of all deltas targeting it.  A final data-less barrier plus a
   read-mode sweep of every lock converges every processor's copy, and
   the oracle then checks all copies cell by cell.

   The [buggy] variant strips the acquire/release off one randomly
   chosen add — a seeded race for the fuzzer to find: the unlocked
   write never joins the protocol's consistent history (oracle
   mismatch) and ECSan flags the unsynchronized access. *)

module R = Midway.Runtime
module Config = Midway.Config
module Range = Midway.Range
module Prng = Midway_util.Prng

type op =
  | Add of { group : int; cell : int; delta : int }
  | Raw_add of { group : int; cell : int; delta : int }  (* buggy: no acquire *)
  | Sweep of int  (* read-mode pull of one group *)
  | Rebind of int  (* exclusive acquire + same-range rebind + release *)
  | Work of int  (* local computation, ns *)

type program = {
  seed : int;
  nprocs : int;
  ngroups : int;
  cells_per_group : int;
  nrounds : int;
  ops : op list array array;  (* ops.(round).(proc) *)
  buggy : bool;
}

let generate ?(buggy = false) ~seed ~nprocs () =
  if nprocs <= 0 then invalid_arg "Ecgen.generate: nprocs must be positive";
  let rng = Prng.create ~seed in
  let ngroups = 1 + Prng.int rng 3 in
  let cells_per_group = 1 + Prng.int rng 4 in
  let nrounds = 1 + Prng.int rng 2 in
  let gen_op () =
    let roll = Prng.int rng 20 in
    if roll < 13 then
      Add
        {
          group = Prng.int rng ngroups;
          cell = Prng.int rng cells_per_group;
          delta = 1 + Prng.int rng 9;
        }
    else if roll < 17 then Sweep (Prng.int rng ngroups)
    else if roll < 19 then Work ((1 + Prng.int rng 5) * 1_000)
    else Rebind (Prng.int rng ngroups)
  in
  let ops =
    Array.init nrounds (fun _ ->
        Array.init nprocs (fun _ -> List.init (1 + Prng.int rng 4) (fun _ -> gen_op ())))
  in
  let is_add = function Add _ -> true | _ -> false in
  if not (Array.exists (fun procs -> Array.exists (List.exists is_add) procs) ops) then
    ops.(0).(0) <- Add { group = 0; cell = 0; delta = 1 } :: ops.(0).(0);
  if buggy then begin
    (* count the adds, pick one, strip its lock *)
    let total = ref 0 in
    Array.iter
      (Array.iter (List.iter (fun o -> if is_add o then incr total)))
      ops;
    let victim = Prng.int rng !total in
    let idx = ref 0 in
    let strip o =
      match o with
      | Add { group; cell; delta } ->
          let i = !idx in
          incr idx;
          if i = victim then Raw_add { group; cell; delta } else o
      | o -> o
    in
    Array.iteri
      (fun r procs -> Array.iteri (fun p l -> ops.(r).(p) <- List.map strip l) procs)
      ops
  end;
  { seed; nprocs; ngroups; cells_per_group; nrounds; ops; buggy }

(* The sequential oracle: cells start at zero and adds commute. *)
let expected program =
  let ncells = program.ngroups * program.cells_per_group in
  let exp = Array.make ncells 0 in
  Array.iter
    (Array.iter
       (List.iter (function
         | Add { group; cell; delta } | Raw_add { group; cell; delta } ->
             let i = (group * program.cells_per_group) + cell in
             exp.(i) <- exp.(i) + delta
         | Sweep _ | Rebind _ | Work _ -> ())))
    program.ops;
  exp

(* Lift to the EC-IR.  The static base address is 0 (the IR is abstract
   over allocation), and sync ids follow creation order in [run]: lock
   for group [g] gets id [g], the round barrier gets id [ngroups] —
   exactly the runtime's assignment, so static findings name the same
   objects ECSan would. *)
let to_ir program =
  let module Ir = Midway_analyze.Ir in
  let cpg = program.cells_per_group in
  let addr g i = ((g * cpg) + i) * 8 in
  let cell g i = Range.v (addr g i) 8 in
  let group_range g = Range.v (addr g 0) (cpg * 8) in
  let lower = function
    | Add { group; cell = i; _ } ->
        [
          Ir.Acquire { lock = group; mode = Ir.Exclusive };
          Ir.Read (cell group i);
          Ir.Write (cell group i);
          Ir.Release group;
        ]
    | Raw_add { group; cell = i; _ } -> [ Ir.Read (cell group i); Ir.Write (cell group i) ]
    | Sweep g ->
        (Ir.Acquire { lock = g; mode = Ir.Shared }
        :: List.init cpg (fun i -> Ir.Read (cell g i)))
        @ [ Ir.Release g ]
    | Rebind g ->
        [
          Ir.Acquire { lock = g; mode = Ir.Exclusive };
          Ir.Rebind { lock = g; ranges = [ group_range g ] };
          Ir.Release g;
        ]
    | Work ns -> [ Ir.Work ns ]
  in
  let converge_round =
    Array.init program.nprocs (fun _ ->
        List.concat
          (List.init program.ngroups (fun g ->
               [ Ir.Acquire { lock = g; mode = Ir.Shared }; Ir.Release g ])))
  in
  {
    Ir.name =
      Printf.sprintf "%s:%d" (if program.buggy then "ecgen-buggy" else "ecgen") program.seed;
    nprocs = program.nprocs;
    locks = List.init program.ngroups (fun g -> (g, [ group_range g ]));
    barriers = [ (program.ngroups, []) ];
    rounds =
      Array.init (program.nrounds + 1) (fun r ->
          if r < program.nrounds then Array.map (List.concat_map lower) program.ops.(r)
          else converge_round);
  }

let run program cfg =
  if cfg.Config.nprocs <> program.nprocs then
    invalid_arg "Ecgen.run: configuration and program disagree on nprocs";
  Workload.run_guarded cfg (fun m ->
      let cpg = program.cells_per_group in
      let ncells = program.ngroups * cpg in
      (* 8-byte lines: groups are guarded by distinct locks and must not
         share an RT cache line (line-granular timestamps would
         false-share across locks) *)
      let base = R.alloc m ~line_size:8 (ncells * 8) in
      let addr g i = base + (((g * cpg) + i) * 8) in
      let locks =
        Array.init program.ngroups (fun g ->
            R.new_lock m ~owner:(g mod program.nprocs) [ Range.v (addr g 0) (cpg * 8) ])
      in
      let round_bar = R.new_barrier m [] in
      let exec c = function
        | Add { group; cell; delta } ->
            R.acquire c locks.(group);
            let a = addr group cell in
            R.write_int c a (R.read_int c a + delta);
            R.release c locks.(group)
        | Raw_add { group; cell; delta } ->
            let a = addr group cell in
            R.write_int c a (R.read_int c a + delta)
        | Sweep group ->
            R.acquire_read c locks.(group);
            for i = 0 to cpg - 1 do
              ignore (R.read_int c (addr group i))
            done;
            R.release c locks.(group)
        | Rebind group ->
            (* a same-range rebind: exercises the rebind path while
               leaving the binding — and therefore the oracle — intact *)
            R.acquire c locks.(group);
            R.rebind c locks.(group) [ Range.v (addr group 0) (cpg * 8) ];
            R.release c locks.(group)
        | Work ns -> R.work_ns c ns
      in
      let body c =
        for r = 0 to program.nrounds - 1 do
          List.iter (exec c) program.ops.(r).(R.id c);
          R.barrier c round_bar
        done;
        Workload.converge c round_bar locks
      in
      let verify () =
        Workload.check_cells m
          (Array.init ncells (fun i -> addr (i / cpg) (i mod cpg)))
          (expected program)
      in
      (body, verify))

let workload ?(buggy = false) ~seed () =
  {
    Workload.name = Printf.sprintf "%s:%d" (if buggy then "ecgen-buggy" else "ecgen") seed;
    judges_crashes = false;
    supports = Workload.lock_based;
    ir = Some (fun ~nprocs -> to_ir (generate ~buggy ~seed ~nprocs ()));
    run =
      (fun cfg ->
        run (generate ~buggy ~seed ~nprocs:cfg.Config.nprocs ()) cfg);
  }
