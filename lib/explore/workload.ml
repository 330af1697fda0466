(* Workloads the schedule explorer drives.

   A workload is a named, self-verifying program: [run] builds a machine
   for the given configuration, executes it and checks the result
   against a sequential oracle computed outside the simulated machine.
   The outcome keeps the machine so the driver can interrogate
   [Runtime.check_invariants], the ECSan report, the protocol trace and
   — crucially — [Runtime.schedule_choices], the raw material of
   record/replay and counterexample shrinking.

   Two kinds of workloads ship buggy on purpose ([order_sensitive] and
   [racy]); they exist so the fuzzer has known prey and so the
   shrinking machinery can be exercised deterministically. *)

module R = Midway.Runtime
module Config = Midway.Config
module Range = Midway.Range
module Space = Midway_memory.Space
module Ir = Midway_analyze.Ir

type outcome = {
  ok : bool;
  detail : string;
  digest : string;
  machine : R.t option;
}

type t = {
  name : string;
  judges_crashes : bool;  (* the oracle judges crash-armed runs *)
  supports : Config.backend -> bool;
  run : Config.t -> outcome;
  ir : (nprocs:int -> Ir.program) option;
}

(* IR lift helpers.  Sync ids are numbered in creation order — exactly
   the runtime's id assignment in [run] — so static findings name the
   same lock/barrier the dynamic sanitizer would. *)
let reps n l = List.concat (List.init n (fun _ -> l))

let acq ?(mode = Ir.Exclusive) lock = Ir.Acquire { lock; mode }

let rel lock = Ir.Release lock

let sweep_locks n = List.concat (List.init n (fun g -> [ acq ~mode:Ir.Shared g; rel g ]))

(* Every synthetic workload synchronizes with locks and data-less
   barriers only, so even Blast (lock-bound data only) can run it.
   Standalone has no consistency protocol and a single processor —
   nothing to explore. *)
let lock_based = function Config.Standalone -> false | _ -> true

(* Build the machine first, then let [prog] allocate and return the
   per-processor body plus the oracle check.  The machine outlives a
   deadlock or a crash, so the engine's recorded tie-break choices stay
   readable for shrinking (see Runtime.schedule_choices). *)
let run_guarded cfg prog =
  let machine = R.create cfg in
  let body, verify = prog machine in
  match R.run machine body with
  | () ->
      let ok, detail, digest = verify () in
      { ok; detail; digest; machine = Some machine }
  | exception Midway_sched.Engine.Deadlock msg ->
      { ok = false; detail = "deadlock: " ^ msg; digest = ""; machine = Some machine }
  | exception e ->
      {
        ok = false;
        detail = "exception: " ^ Printexc.to_string e;
        digest = "";
        machine = Some machine;
      }

(* Oracle helper: every processor's copy of every cell must equal the
   expected value — the workloads end with a barrier and a read-mode
   sweep of every lock precisely so that all copies have converged. *)
let check_cells machine cells expected =
  let space = R.space machine in
  let nprocs = (R.config machine).Config.nprocs in
  let bad = ref [] in
  Array.iteri
    (fun i a ->
      for p = nprocs - 1 downto 0 do
        let v = Space.get_int space ~proc:p a in
        if v <> expected.(i) then
          bad := Printf.sprintf "p%d cell %d: got %d, want %d" p i v expected.(i) :: !bad
      done)
    cells;
  let digest =
    String.concat ","
      (Array.to_list (Array.map (fun a -> string_of_int (Space.get_int space ~proc:0 a)) cells))
  in
  match !bad with
  | [] -> (true, "", digest)
  | l -> (false, String.concat "; " l, digest)

(* Converge: one data-less barrier, then pull every lock's data in read
   mode so this processor's copy is up to date before the oracle looks. *)
let converge c fin locks =
  R.barrier c fin;
  Array.iter
    (fun lk ->
      R.acquire_read c lk;
      R.release c lk)
    locks

(* All processors add (id+1) to one lock-guarded cell, [iters] times.
   Addition commutes, so the total is schedule-independent. *)
let counter ~iters =
  {
    name = "counter";
    judges_crashes = false;
    supports = lock_based;
    ir =
      Some
        (fun ~nprocs ->
          {
            Ir.name = "counter";
            nprocs;
            locks = [ (0, [ Range.v 0 8 ]) ];
            barriers = [ (1, []) ];
            rounds =
              [|
                Array.init nprocs (fun _ ->
                    reps iters
                      [ acq 0; Ir.Read (Range.v 0 8); Ir.Write (Range.v 0 8); rel 0; Ir.Work 500 ]);
                Array.init nprocs (fun _ -> sweep_locks 1);
              |];
          });
    run =
      (fun cfg ->
        run_guarded cfg (fun m ->
            let n = cfg.Config.nprocs in
            let cell = R.alloc m 8 in
            let lock = R.new_lock m [ Range.v cell 8 ] in
            let fin = R.new_barrier m [] in
            let body c =
              let me = R.id c in
              for _ = 1 to iters do
                R.acquire c lock;
                R.write_int c cell (R.read_int c cell + me + 1);
                R.release c lock;
                R.work_ns c 500
              done;
              converge c fin [| lock |]
            in
            let verify () =
              check_cells m [| cell |] [| iters * (n * (n + 1) / 2) |]
            in
            (body, verify)));
  }

(* Processor 0 counts a cell up under the exclusive lock; every other
   processor repeatedly pulls it in read mode and checks that the values
   it observes never decrease — the update protocol may skip states but
   must not reorder them.  Monotonicity holds under every legal
   schedule, so a violation is a protocol bug, not schedule noise. *)
let readers_writer ~iters =
  {
    name = "readers-writer";
    judges_crashes = false;
    supports = lock_based;
    ir =
      Some
        (fun ~nprocs ->
          {
            Ir.name = "readers-writer";
            nprocs;
            locks = [ (0, [ Range.v 0 8 ]) ];
            barriers = [ (1, []) ];
            rounds =
              [|
                Array.init nprocs (fun p ->
                    if p = 0 then reps iters [ acq 0; Ir.Write (Range.v 0 8); rel 0; Ir.Work 300 ]
                    else
                      reps iters
                        [ acq ~mode:Ir.Shared 0; Ir.Read (Range.v 0 8); rel 0; Ir.Work 400 ]);
                Array.init nprocs (fun _ -> sweep_locks 1);
              |];
          });
    run =
      (fun cfg ->
        run_guarded cfg (fun m ->
            let cell = R.alloc m 8 in
            let lock = R.new_lock m [ Range.v cell 8 ] in
            let fin = R.new_barrier m [] in
            let regress = ref [] in
            let body c =
              let me = R.id c in
              if me = 0 then
                for k = 1 to iters do
                  R.acquire c lock;
                  R.write_int c cell k;
                  R.release c lock;
                  R.work_ns c 300
                done
              else begin
                let last = ref 0 in
                for _ = 1 to iters do
                  R.acquire_read c lock;
                  let v = R.read_int c cell in
                  R.release c lock;
                  if v < !last then
                    regress := Printf.sprintf "p%d saw %d after %d" me v !last :: !regress;
                  last := v;
                  R.work_ns c 400
                done
              end;
              converge c fin [| lock |]
            in
            let verify () =
              let ok, detail, digest = check_cells m [| cell |] [| iters |] in
              match !regress with
              | [] -> (ok, detail, digest)
              | l ->
                  ( false,
                    (if detail = "" then "" else detail ^ "; ")
                    ^ "non-monotone reads: " ^ String.concat "; " l,
                    digest )
            in
            (body, verify)));
  }

(* Several locks, each guarding its own cell; processor [p]'s k-th
   operation targets group [(p + k) mod groups], so acquisition orders
   differ across processors and contention shifts every iteration. *)
let mix ~groups ~iters =
  {
    name = "mix";
    judges_crashes = false;
    supports = lock_based;
    ir =
      Some
        (fun ~nprocs ->
          let cell g = Range.v (g * 8) 8 in
          {
            Ir.name = "mix";
            nprocs;
            locks = List.init groups (fun g -> (g, [ cell g ]));
            barriers = [ (groups, []) ];
            rounds =
              [|
                Array.init nprocs (fun p ->
                    List.concat
                      (List.init iters (fun k ->
                           let g = (p + k) mod groups in
                           [ acq g; Ir.Read (cell g); Ir.Write (cell g); rel g; Ir.Work 200 ])));
                Array.init nprocs (fun _ -> sweep_locks groups);
              |];
          });
    run =
      (fun cfg ->
        run_guarded cfg (fun m ->
            let n = cfg.Config.nprocs in
            (* one 8-byte line per cell: distinct locks must not share a
               cache line, or RT's line-granular timestamps false-share
               across locks *)
            let base = R.alloc m ~line_size:8 (groups * 8) in
            let cell g = base + (g * 8) in
            let locks =
              Array.init groups (fun g ->
                  R.new_lock m ~owner:(g mod n) [ Range.v (cell g) 8 ])
            in
            let fin = R.new_barrier m [] in
            let body c =
              let me = R.id c in
              for k = 0 to iters - 1 do
                let g = (me + k) mod groups in
                R.acquire c locks.(g);
                R.write_int c (cell g) (R.read_int c (cell g) + me + 1);
                R.release c locks.(g);
                R.work_ns c 200
              done;
              converge c fin locks
            in
            let verify () =
              let expected = Array.make groups 0 in
              for p = 0 to n - 1 do
                for k = 0 to iters - 1 do
                  let g = (p + k) mod groups in
                  expected.(g) <- expected.(g) + p + 1
                done
              done;
              check_cells m (Array.init groups cell) expected
            in
            (body, verify)));
  }

(* Deliberately buggy: both processors run a correct lock-guarded
   transaction [x := 2x + (me+1)], but the oracle assumes processor 0's
   transaction commits first (final value 4).  Under the default FIFO
   schedule that assumption happens to hold; a seeded schedule that lets
   processor 1 win the first ties commits in the other order (final
   value 5).  This is the classic prey of a schedule fuzzer: code that
   is correct under the schedule the author tested and wrong under a
   legal reordering. *)
let order_sensitive =
  {
    name = "order-sensitive";
    judges_crashes = false;
    supports = lock_based;
    (* Statically clean: the bug is an oracle assumption about commit
       order, not a synchronization defect — the precision half of the
       analyzer's contract (no warning here, a dynamic-only failure). *)
    ir =
      Some
        (fun ~nprocs ->
          {
            Ir.name = "order-sensitive";
            nprocs;
            locks = [ (0, [ Range.v 0 8 ]) ];
            barriers = [ (1, []) ];
            rounds =
              [|
                Array.init nprocs (fun p ->
                    if p < 2 then [ acq 0; Ir.Read (Range.v 0 8); Ir.Write (Range.v 0 8); rel 0 ]
                    else []);
                Array.init nprocs (fun _ -> sweep_locks 1);
              |];
          });
    run =
      (fun cfg ->
        if cfg.Config.nprocs < 2 then
          invalid_arg "order-sensitive needs at least 2 processors";
        run_guarded cfg (fun m ->
            let cell = R.alloc m 8 in
            let lock = R.new_lock m [ Range.v cell 8 ] in
            let fin = R.new_barrier m [] in
            let body c =
              let me = R.id c in
              if me < 2 then begin
                R.acquire c lock;
                R.write_int c cell ((2 * R.read_int c cell) + me + 1);
                R.release c lock
              end;
              converge c fin [| lock |]
            in
            let verify () = check_cells m [| cell |] [| 4 |] in
            (body, verify)));
  }

(* Deliberately buggy: processor 1 updates lock-bound data without
   acquiring the lock.  Processor 0 initializes the cell under the lock
   before a barrier, so the racy access always touches established data
   — its unlocked read sees a stale copy (the update never reached a
   processor that never synchronized) and its write never joins the
   protocol's consistent history.  The oracle fails and ECSan flags the
   unsynchronized access on every schedule, so the shrunk
   counterexample is the empty choice list. *)
let racy =
  {
    name = "racy";
    judges_crashes = false;
    supports = lock_based;
    (* Statically flagged before any run: p1 touches lock 0's bound data
       without holding it — the exact class ECSan reports dynamically. *)
    ir =
      Some
        (fun ~nprocs ->
          let c = Range.v 0 8 in
          {
            Ir.name = "racy";
            nprocs;
            locks = [ (0, [ c ]) ];
            barriers = [ (1, []) ];
            rounds =
              [|
                Array.init nprocs (fun p ->
                    if p = 0 then [ acq 0; Ir.Write c; rel 0 ] else []);
                Array.init nprocs (fun p ->
                    if p = 0 then [ acq 0; Ir.Read c; Ir.Write c; rel 0 ]
                    else if p = 1 then [ Ir.Read c; Ir.Write c ]
                    else []);
                Array.init nprocs (fun _ -> sweep_locks 1);
              |];
          });
    run =
      (fun cfg ->
        if cfg.Config.nprocs < 2 then invalid_arg "racy needs at least 2 processors";
        run_guarded cfg (fun m ->
            let cell = R.alloc m 8 in
            let lock = R.new_lock m [ Range.v cell 8 ] in
            let fin = R.new_barrier m [] in
            let body c =
              let me = R.id c in
              if me = 0 then begin
                R.acquire c lock;
                R.write_int c cell 10;
                R.release c lock
              end;
              R.barrier c fin;
              if me = 0 then begin
                R.acquire c lock;
                R.write_int c cell (R.read_int c cell + 2);
                R.release c lock
              end
              else if me = 1 then
                (* the bug: no acquire around an access to bound data *)
                R.write_int c cell (R.read_int c cell + 1);
              converge c fin [| lock |]
            in
            let verify () = check_cells m [| cell |] [| 13 |] in
            (body, verify)));
  }

(* Deliberately buggy: processors 0 and 1 nest the two locks in
   opposite orders, with a work window between the two acquisitions so
   that on every virtual-time schedule both outer acquisitions happen
   before either inner one — a guaranteed deadlock (the counterexample
   shrinks to the empty choice list).  Statically this is a cycle in the
   lock-order graph with one witness path per processor. *)
let deadlocky =
  {
    name = "deadlocky";
    judges_crashes = false;
    supports = lock_based;
    ir =
      Some
        (fun ~nprocs ->
          let c0 = Range.v 0 8 and c1 = Range.v 8 8 in
          {
            Ir.name = "deadlocky";
            nprocs;
            locks = [ (0, [ c0 ]); (1, [ c1 ]) ];
            barriers = [ (2, []) ];
            rounds =
              [|
                Array.init nprocs (fun p ->
                    if p = 0 then
                      [ acq 0; Ir.Work 2000; acq 1; Ir.Read c1; Ir.Write c1; rel 1; rel 0 ]
                    else if p = 1 then
                      [ acq 1; Ir.Work 2000; acq 0; Ir.Read c0; Ir.Write c0; rel 0; rel 1 ]
                    else []);
                Array.init nprocs (fun _ -> sweep_locks 2);
              |];
          });
    run =
      (fun cfg ->
        if cfg.Config.nprocs < 2 then invalid_arg "deadlocky needs at least 2 processors";
        run_guarded cfg (fun m ->
            (* one 8-byte line per cell: distinct locks must not share a
               cache line (cf. mix) *)
            let base = R.alloc m ~line_size:8 16 in
            let a = R.new_lock m [ Range.v base 8 ] in
            let b = R.new_lock m ~owner:(1 mod cfg.Config.nprocs) [ Range.v (base + 8) 8 ] in
            let fin = R.new_barrier m [] in
            let bump c addr = R.write_int c addr (R.read_int c addr + 1) in
            let body c =
              (match R.id c with
              | 0 ->
                  R.acquire c a;
                  R.work_ns c 2000;
                  R.acquire c b;
                  bump c (base + 8);
                  R.release c b;
                  R.release c a
              | 1 ->
                  R.acquire c b;
                  R.work_ns c 2000;
                  R.acquire c a;
                  bump c base;
                  R.release c a;
                  R.release c b
              | _ -> ());
              converge c fin [| a; b |]
            in
            let verify () = check_cells m [| base; base + 8 |] [| 1; 1 |] in
            (body, verify)));
  }

(* Crash-fault prey and probe.  All state — one counter cell plus a
   per-processor committed[] ledger — is bound to a single lock and
   updated atomically inside one critical section, so whatever a crash
   destroys it destroys consistently: the quorum failover reverts the
   bound data to the last released snapshot, in which
   [cell = sum (p+1) * committed.(p)] holds by construction.  The oracle
   checks exactly that on the live processors' converged copies, plus
   that no survivor lost a committed section.

   Unless the incoming configuration already arms [Config.crash], the
   workload injects a scripted plan stopping processor 0 at 10 us (with
   a protocol-level recovery later): processor 0 enters its first
   critical section at virtual time ~0 and holds it for [hold_ns] >> 10
   us, so on every backend it dies mid-section holding the lock — the
   canonical failover scenario, and [crashy-broken]'s opening to serve
   stale data. *)
let crashy_with ~name ~broken ~iters =
  let module Crash = Midway_simnet.Crash in
  {
    name;
    judges_crashes = true;
    supports = lock_based;
    (* crash plans and quorum failover are beyond the IR *)
    ir = None;
    run =
      (fun cfg ->
        let n = cfg.Config.nprocs in
        if n < 3 then
          invalid_arg (name ^ " needs at least 3 processors (majority quorum with one down)");
        let cfg =
          match cfg.Config.crash with
          | Some cr -> Config.with_crash ~broken cr.Config.plan cfg
          | None ->
              let plan =
                Crash.scripted
                  [
                    { Crash.at_ns = 10_000; proc = 0; action = Crash.Stop };
                    { Crash.at_ns = 1_500_000; proc = 0; action = Crash.Recover };
                  ]
              in
              Config.with_crash ~broken plan cfg
        in
        run_guarded cfg (fun m ->
            let hold_ns = 30_000 in
            let base = R.alloc m ((n + 1) * 8) in
            let cell = base and committed p = base + ((p + 1) * 8) in
            let lock = R.new_lock m [ Range.v base ((n + 1) * 8) ] in
            let fin = R.new_barrier m [] in
            let body c =
              let me = R.id c in
              for _ = 1 to iters do
                R.acquire c lock;
                R.write_int c cell (R.read_int c cell + me + 1);
                R.write_int c (committed me) (R.read_int c (committed me) + 1);
                (* keep the section open: the plan's crash window *)
                R.work_ns c hold_ns;
                R.release c lock;
                R.work_ns c 500
              done;
              converge c fin [| lock |]
            in
            let verify () =
              let space = R.space m in
              let killed = R.killed_procs m in
              let live = List.filter (fun p -> not (List.mem p killed)) (List.init n Fun.id) in
              match live with
              | [] -> (false, "no live processor left", "")
              | first :: _ ->
                  let get p a = Space.get_int space ~proc:p a in
                  let com = Array.init n (fun i -> get first (committed i)) in
                  let v = get first cell in
                  let bad = ref [] in
                  (* convergence: every live copy agrees with the first *)
                  List.iter
                    (fun p ->
                      if get p cell <> v then
                        bad :=
                          Printf.sprintf "p%d cell diverged: %d vs %d" p (get p cell) v :: !bad;
                      Array.iteri
                        (fun i c0 ->
                          if get p (committed i) <> c0 then
                            bad :=
                              Printf.sprintf "p%d committed[%d] diverged: %d vs %d" p i
                                (get p (committed i)) c0
                              :: !bad)
                        com)
                    live;
                  (* the ledger invariant: atomic sections revert whole *)
                  let want = ref 0 in
                  Array.iteri (fun i c -> want := !want + ((i + 1) * c)) com;
                  if v <> !want then
                    bad := Printf.sprintf "cell is %d but the ledger says %d" v !want :: !bad;
                  (* survivors lose nothing *)
                  List.iter
                    (fun p ->
                      if com.(p) <> iters then
                        bad :=
                          Printf.sprintf "survivor p%d committed %d/%d" p com.(p) iters :: !bad)
                    live;
                  let digest =
                    Printf.sprintf "cell=%d;committed=%s;killed=%s;failovers=%d" v
                      (String.concat "," (Array.to_list (Array.map string_of_int com)))
                      (String.concat "," (List.map string_of_int killed))
                      (R.failover_count m)
                  in
                  (match !bad with
                  | [] -> (true, "", digest)
                  | l -> (false, String.concat "; " l, digest))
            in
            (body, verify)));
  }

let crashy ~iters = crashy_with ~name:"crashy" ~broken:false ~iters

let crashy_broken ~iters = crashy_with ~name:"crashy-broken" ~broken:true ~iters

(* Wrap one of the five paper applications.  The application verifies
   itself against its sequential oracle; the digest is left empty
   because app memory layouts are backend-shaped (the explorer's
   cross-backend digest comparison only applies to the synthetic
   workloads). *)
let app ~scale suite_app =
  let name = Midway_report.Suite.app_name suite_app in
  {
    name;
    judges_crashes = false;
    (* applications are real programs, not IR grids *)
    ir = None;
    supports =
      (function
      | Config.Standalone -> false
      | Config.Blast -> not (Midway_report.Suite.barrier_bound suite_app)
      | _ -> true);
    run =
      (fun cfg ->
        match Midway_report.Suite.run_app suite_app cfg ~scale with
        | o ->
            {
              ok = o.Midway_apps.Outcome.ok;
              detail = String.concat "; " o.Midway_apps.Outcome.notes;
              digest = "";
              machine = Some o.Midway_apps.Outcome.machine;
            }
        | exception Midway_sched.Engine.Deadlock msg ->
            (* Suite.run_app builds its machine internally, so a deadlock
               loses the recorded choices; the schedule seed in [msg]
               still reproduces the hang. *)
            { ok = false; detail = "deadlock: " ^ msg; digest = ""; machine = None }
        | exception e ->
            {
              ok = false;
              detail = "exception: " ^ Printexc.to_string e;
              digest = "";
              machine = None;
            });
  }
