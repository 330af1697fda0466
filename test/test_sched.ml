(* Tests for the discrete-event engine: clock accounting, min-clock
   scheduling, block/wake, determinism and deadlock detection. *)

module Engine = Midway_sched.Engine

let qtest = QCheck_alcotest.to_alcotest

let test_charge_and_elapsed () =
  let e = Engine.create ~nprocs:2 () in
  Engine.spawn e 0 (fun p -> Engine.charge p 100);
  Engine.spawn e 1 (fun p -> Engine.charge p 250);
  Engine.run e;
  Alcotest.(check int) "p0 clock" 100 (Engine.clock_of e 0);
  Alcotest.(check int) "p1 clock" 250 (Engine.clock_of e 1);
  Alcotest.(check int) "elapsed is the max" 250 (Engine.elapsed e)

let test_negative_charge () =
  let e = Engine.create ~nprocs:1 () in
  Engine.spawn e 0 (fun p ->
      Alcotest.check_raises "negative" (Invalid_argument "Engine.charge: negative charge")
        (fun () -> Engine.charge p (-1)));
  Engine.run e

let test_min_clock_yield_order () =
  (* Three processors record the order their post-yield sections run;
     with distinct clocks the order must follow virtual time. *)
  let e = Engine.create ~nprocs:3 () in
  let order = ref [] in
  let body delay p =
    Engine.charge p delay;
    Engine.yield p;
    order := Engine.proc_id p :: !order
  in
  Engine.spawn e 0 (body 300);
  Engine.spawn e 1 (body 100);
  Engine.spawn e 2 (body 200);
  Engine.run e;
  Alcotest.(check (list int)) "virtual-time order" [ 1; 2; 0 ] (List.rev !order)

let test_block_and_wake () =
  let e = Engine.create ~nprocs:2 () in
  let waker = ref None in
  let woke_at = ref 0 in
  Engine.spawn e 0 (fun p ->
      Engine.block p ~setup:(fun ~wake -> waker := Some wake);
      woke_at := Engine.clock p);
  Engine.spawn e 1 (fun p ->
      Engine.charge p 500;
      Engine.yield p;
      (Option.get !waker) ~at:700);
  Engine.run e;
  Alcotest.(check int) "blocked fiber resumed at wake time" 700 !woke_at;
  Alcotest.(check int) "clock advanced to wake time" 700 (Engine.clock_of e 0)

let test_wake_does_not_rewind () =
  let e = Engine.create ~nprocs:2 () in
  let waker = ref None in
  Engine.spawn e 0 (fun p ->
      Engine.charge p 1_000;
      Engine.block p ~setup:(fun ~wake -> waker := Some wake));
  Engine.spawn e 1 (fun p ->
      Engine.yield p;
      (* wake time in the blocked fiber's past: clock must not go back *)
      (Option.get !waker) ~at:10);
  Engine.run e;
  Alcotest.(check int) "clock not rewound" 1_000 (Engine.clock_of e 0)

let test_double_wake_rejected () =
  let e = Engine.create ~nprocs:2 () in
  let waker = ref None in
  let failed = ref false in
  Engine.spawn e 0 (fun p -> Engine.block p ~setup:(fun ~wake -> waker := Some wake));
  Engine.spawn e 1 (fun p ->
      Engine.yield p;
      let w = Option.get !waker in
      w ~at:5;
      (try w ~at:6 with Invalid_argument _ -> failed := true));
  Engine.run e;
  Alcotest.(check bool) "second wake rejected" true !failed

(* A blocked fiber's reason string surfaces in the deadlock message, and
   is cleared once the fiber is woken. *)
let test_deadlock_blocked_reason () =
  let e = Engine.create ~nprocs:3 () in
  let waker = ref None in
  Engine.spawn e 0 (fun p ->
      Engine.block p ~reason:(fun () -> "acquire of lock 7") ~setup:(fun ~wake:_ -> ()));
  Engine.spawn e 1 (fun p ->
      (* woken once, then wedged with no reason given *)
      Engine.block p ~reason:(fun () -> "first wait") ~setup:(fun ~wake -> waker := Some wake);
      Engine.block p ~setup:(fun ~wake:_ -> ()));
  Engine.spawn e 2 (fun p ->
      Engine.charge p 5;
      (Option.get !waker) ~at:10);
  try
    Engine.run e;
    Alcotest.fail "expected Deadlock"
  with Engine.Deadlock msg ->
    let has sub =
      let n = String.length sub and h = String.length msg in
      let rec go i = i + n <= h && (String.sub msg i n = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "reason included" true (has "p0@0ns (blocked in acquire of lock 7)");
    Alcotest.(check bool) "cleared on wake" true (not (has "first wait"))

let test_deadlock_detection () =
  let e = Engine.create ~nprocs:2 () in
  Engine.spawn e 0 (fun p -> Engine.block p ~setup:(fun ~wake:_ -> ()));
  Engine.spawn e 1 (fun p -> Engine.charge p 42);
  try
    Engine.run e;
    Alcotest.fail "expected Deadlock"
  with Engine.Deadlock msg ->
    Alcotest.(check bool) "names the stuck processor" true
      (String.length msg > 0
      &&
      let has sub =
        let n = String.length sub and h = String.length msg in
        let rec go i = i + n <= h && (String.sub msg i n = sub || go (i + 1)) in
        go 0
      in
      has "p0")

let test_spawn_validation () =
  let e = Engine.create ~nprocs:1 () in
  Engine.spawn e 0 (fun _ -> ());
  Alcotest.check_raises "double spawn"
    (Invalid_argument "Engine.spawn: processor already spawned") (fun () ->
      Engine.spawn e 0 (fun _ -> ()));
  Alcotest.check_raises "out of range" (Invalid_argument "Engine.spawn: processor out of range")
    (fun () -> Engine.spawn e 1 (fun _ -> ()))

let test_run_once () =
  let e = Engine.create ~nprocs:1 () in
  Engine.spawn e 0 (fun _ -> ());
  Engine.run e;
  Alcotest.check_raises "second run" (Invalid_argument "Engine.run: engine already ran")
    (fun () -> Engine.run e)

let test_exception_propagates () =
  let e = Engine.create ~nprocs:1 () in
  Engine.spawn e 0 (fun _ -> failwith "app bug");
  Alcotest.check_raises "fiber exception escapes run" (Failure "app bug") (fun () ->
      Engine.run e)

let test_ping_pong () =
  (* Two fibers hand a token back and forth with increasing wake times:
     exercises repeated block/wake cycles on the same fibers. *)
  let e = Engine.create ~nprocs:2 () in
  let wakers = [| None; None |] in
  let hops = ref 0 in
  let rec body p =
    if !hops < 10 then begin
      incr hops;
      let me = Engine.proc_id p in
      let other = 1 - me in
      (match wakers.(other) with
      | Some w ->
          wakers.(other) <- None;
          w ~at:(Engine.clock p + 10)
      | None -> ());
      Engine.block p ~setup:(fun ~wake -> wakers.(me) <- Some wake);
      body p
    end
    else
      match wakers.(1 - Engine.proc_id p) with
      | Some w ->
          wakers.(1 - Engine.proc_id p) <- None;
          w ~at:(Engine.clock p)
      | None -> ()
  in
  Engine.spawn e 0 (fun p ->
      (* p0 kicks things off by waking p1 after its block is set up *)
      Engine.charge p 1;
      body p);
  Engine.spawn e 1 (fun p ->
      Engine.yield p;
      body p);
  (try Engine.run e with Engine.Deadlock _ -> ());
  Alcotest.(check bool) "token moved" true (!hops >= 10)

let engine_deterministic =
  QCheck.Test.make ~name:"identical programs give identical schedules" ~count:50
    QCheck.(list_of_size (Gen.int_range 1 8) (int_bound 1000))
    (fun charges ->
      let run_once () =
        let n = List.length charges in
        let e = Engine.create ~nprocs:n () in
        let trace = ref [] in
        List.iteri
          (fun i c ->
            Engine.spawn e i (fun p ->
                Engine.charge p c;
                Engine.yield p;
                trace := (i, Engine.clock p) :: !trace))
          charges;
        Engine.run e;
        !trace
      in
      run_once () = run_once ())

let random_wake_graph =
  (* random dependency chains: each fiber (except 0) blocks until its
     predecessor wakes it after a random charge; everything must finish
     with nondecreasing clocks along the chain *)
  QCheck.Test.make ~name:"random wake chains complete in causal order" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 7) (int_range 1 1_000))
    (fun charges ->
      let n = List.length charges + 1 in
      let e = Engine.create ~nprocs:n () in
      let wakers = Array.make n None in
      let finish = Array.make n 0 in
      Engine.spawn e 0 (fun p ->
          Engine.charge p 10;
          Engine.yield p;
          (match wakers.(1) with
          | Some w -> w ~at:(Engine.clock p + 5)
          | None -> ());
          finish.(0) <- Engine.clock p);
      List.iteri
        (fun i charge ->
          let id = i + 1 in
          Engine.spawn e id (fun p ->
              Engine.block p ~setup:(fun ~wake -> wakers.(id) <- Some wake);
              Engine.charge p charge;
              if id + 1 < n then begin
                Engine.yield p;
                match wakers.(id + 1) with
                | Some w -> w ~at:(Engine.clock p + 5)
                | None -> ()
              end;
              finish.(id) <- Engine.clock p))
        charges;
      (* fiber id+1 must be woken only after fiber id set up its waker;
         spawn order guarantees that because fiber id blocks first *)
      (try Engine.run e with Engine.Deadlock _ -> ());
      let rec nondecreasing i =
        i + 1 >= n || (finish.(i) <= finish.(i + 1) && nondecreasing (i + 1))
      in
      nondecreasing 0)

(* --- The run queue against a model -------------------------------------------- *)

type op = Charge of int | Yield | Block | Wake of int * int  (* whom, delay *)

type event =
  | Ran of int * int  (* a fiber's first slice, or its return from yield/block: id, clock *)
  | Yielding of int * int
  | Blocking of int * int
  | Woke of int * int  (* whom, at *)
  | Finished of int

(* Run random scripts: fibers charge, yield, block, and wake whichever
   blocked fiber their script names (a wake at a time up to 10 ns in the
   waker's past included).  Returns the events in the order they
   happened. *)
let run_scripts scripts =
  let n = Array.length scripts in
  let e = Engine.create ~nprocs:n () in
  let events = ref [] in
  let note ev = events := ev :: !events in
  let wakers = Array.make n None in
  Array.iteri
    (fun id script ->
      Engine.spawn e id (fun p ->
          note (Ran (id, Engine.clock p));
          List.iter
            (function
              | Charge ns -> Engine.charge p ns
              | Yield ->
                  note (Yielding (id, Engine.clock p));
                  Engine.yield p;
                  note (Ran (id, Engine.clock p))
              | Block ->
                  note (Blocking (id, Engine.clock p));
                  Engine.block p ~setup:(fun ~wake -> wakers.(id) <- Some wake);
                  note (Ran (id, Engine.clock p))
              | Wake (j, delay) -> (
                  match wakers.(j mod n) with
                  | Some wake ->
                      wakers.(j mod n) <- None;
                      let at = max 0 (Engine.clock p + delay) in
                      note (Woke (j mod n, at));
                      wake ~at
                  | None -> ()))
            script;
          note (Finished id)))
    scripts;
  (try Engine.run e with Engine.Deadlock _ -> ());
  List.rev !events

(* Replay the events against a sorted list of (key, sequence, id): every
   suspension or finish must resume the model's minimum, a woken fiber
   at the later of its clock and its wake time, and a yield must switch
   exactly when some queued key is no greater than the caller's clock. *)
let model_agrees events ~nprocs =
  let queue = ref (List.init nprocs (fun id -> (0, id, id))) in
  let seq = ref nprocs in
  let clocks = Array.make nprocs 0 in
  let push key id =
    queue := List.sort compare ((key, !seq, id) :: !queue);
    incr seq
  in
  let next = ref None in  (* the resume the model expects next: id, clock *)
  let pop () =
    match !queue with
    | (key, _, id) :: rest ->
        queue := rest;
        next := Some (id, max key clocks.(id))
    | [] -> next := None
  in
  pop ();
  let ok = ref true in
  List.iter
    (fun ev ->
      match ev with
      | Ran (id, clock) ->
          if !next <> Some (id, clock) then ok := false;
          next := None
      | Yielding (id, clock) ->
          clocks.(id) <- clock;
          if List.exists (fun (key, _, _) -> key <= clock) !queue then begin
            push clock id;
            pop ()
          end
          else next := Some (id, clock)
      | Blocking (id, clock) ->
          clocks.(id) <- clock;
          pop ()
      | Woke (id, at) -> push at id
      | Finished _ -> pop ())
    events;
  !ok && !queue = [] && !next = None

let script_gen =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (3, map (fun ns -> Charge ns) (int_bound 40));
        (3, return Yield);
        (2, return Block);
        (3, map2 (fun j d -> Wake (j, d)) (int_bound 5) (int_range (-10) 30));
      ]
  in
  array_size (int_range 1 5) (list_size (int_bound 12) op)

let show_op = function
  | Charge ns -> Printf.sprintf "charge %d" ns
  | Yield -> "yield"
  | Block -> "block"
  | Wake (j, d) -> Printf.sprintf "wake %d %+d" j d

let run_queue_model =
  QCheck.Test.make ~name:"charges, yields and wakes resume in (clock, FIFO) order" ~count:500
    (QCheck.make script_gen
       ~print:
         (QCheck.Print.array (fun script -> String.concat "; " (List.map show_op script))))
    (fun scripts -> model_agrees (run_scripts scripts) ~nprocs:(Array.length scripts))

(* p1 blocks, p2 charges past p0 and yields behind it, then p0 yields
   with nobody due: the calls must neither switch (a switch allocates
   the continuation it parks; these allocate nothing) nor consult the
   policy.  Returns whether they did not, and the choices made. *)
let yield_with_nobody_due policy =
  let e = Engine.create ~policy ~nprocs:3 () in
  let others_ran = ref 0 in
  let waker = ref None in
  let quiet = ref true in
  Engine.spawn e 0 (fun p ->
      Engine.charge p 10;
      Engine.yield p;
      let choices = Engine.choices e and ran = !others_ran in
      let before = Gc.minor_words () in
      for _ = 1 to 50 do
        Engine.charge p 1;
        Engine.yield p
      done;
      let words = Gc.minor_words () -. before in
      if words > 0. || Engine.choices e <> choices || !others_ran <> ran then quiet := false;
      (Option.get !waker) ~at:2_000);
  Engine.spawn e 1 (fun p ->
      Engine.block p ~setup:(fun ~wake -> waker := Some wake);
      incr others_ran);
  Engine.spawn e 2 (fun p ->
      incr others_ran;
      Engine.charge p 1_000;
      Engine.yield p;
      incr others_ran);
  Engine.run e;
  (!quiet, Engine.choices e)

let test_yield_nobody_due () =
  List.iter
    (fun seed ->
      let quiet, choices = yield_with_nobody_due (Engine.Seeded seed) in
      Alcotest.(check bool) (Printf.sprintf "seed %d: no switch, no choice" seed) true quiet;
      let quiet, rechoices = yield_with_nobody_due (Engine.Replay choices) in
      Alcotest.(check bool) (Printf.sprintf "replay of seed %d: no switch" seed) true quiet;
      Alcotest.(check (list int)) "replay records the same choices" choices rechoices)
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

(* --- Tie-break policies ------------------------------------------------------- *)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* All fibers stay at clock 0, so every scheduling step is a tie among
   every live fiber: the densest possible tie-break exposure. *)
let tie_order ~policy ~nprocs ~rounds =
  let e = Engine.create ~policy ~nprocs () in
  let order = ref [] in
  for id = 0 to nprocs - 1 do
    Engine.spawn e id (fun p ->
        for _ = 1 to rounds do
          order := Engine.proc_id p :: !order;
          Engine.yield p
        done)
  done;
  Engine.run e;
  (List.rev !order, Engine.choices e)

let test_policy_fifo_records_nothing () =
  let order, choices = tie_order ~policy:Engine.Fifo ~nprocs:3 ~rounds:3 in
  Alcotest.(check (list int)) "FIFO ties are round-robin" [ 0; 1; 2; 0; 1; 2; 0; 1; 2 ] order;
  Alcotest.(check (list int)) "FIFO records no choices" [] choices

let test_policy_empty_replay_is_fifo () =
  let fifo, _ = tie_order ~policy:Engine.Fifo ~nprocs:4 ~rounds:4 in
  let replayed, _ = tie_order ~policy:(Engine.Replay []) ~nprocs:4 ~rounds:4 in
  Alcotest.(check (list int)) "an exhausted replay list is FIFO" fifo replayed

let test_policy_seeded_replays_identically () =
  let seeded_order, choices = tie_order ~policy:(Engine.Seeded 42) ~nprocs:4 ~rounds:5 in
  Alcotest.(check bool) "dense ties force recorded choices" true (choices <> []);
  let replayed_order, rechoices = tie_order ~policy:(Engine.Replay choices) ~nprocs:4 ~rounds:5 in
  Alcotest.(check (list int)) "replay reproduces the seeded order" seeded_order replayed_order;
  Alcotest.(check (list int)) "the replay re-records its own choices" choices rechoices

let test_policy_seeds_explore () =
  (* At least one of a handful of seeds must deviate from FIFO — the
     whole point of the dimension.  (Each step has 4 tied fibers; the
     odds of 5 seeds all reproducing FIFO are astronomically small, and
     the PRNG is deterministic, so this cannot flake.) *)
  let fifo, _ = tie_order ~policy:Engine.Fifo ~nprocs:4 ~rounds:4 in
  let deviates =
    List.exists
      (fun seed -> fst (tie_order ~policy:(Engine.Seeded seed) ~nprocs:4 ~rounds:4) <> fifo)
      [ 1; 2; 3; 4; 5 ]
  in
  Alcotest.(check bool) "some seed deviates from FIFO" true deviates

let test_policy_replay_modulo () =
  (* Choices are taken modulo the number of tied candidates, so a
     hand-edited or cross-seed list is always legal. *)
  let order, _ = tie_order ~policy:(Engine.Replay [ 7; 100 ]) ~nprocs:3 ~rounds:1 in
  (* first tie: candidates [p0;p1;p2], 7 mod 3 = 1 -> p1 records and
     yields (its continuation rejoins the tie);
     second tie: [p0;p2;p1'], 100 mod 3 = 1 -> p2;
     list exhausted -> FIFO -> p0. *)
  Alcotest.(check (list int)) "modulo application" [ 1; 2; 0 ] order

let test_policy_negative_replay_rejected () =
  Alcotest.check_raises "negative choice"
    (Invalid_argument "Engine.create: negative replay choice") (fun () ->
      ignore (Engine.create ~policy:(Engine.Replay [ 0; -1 ]) ~nprocs:2 ()))

let test_policy_deadlock_reports_seed () =
  let e = Engine.create ~policy:(Engine.Seeded 7) ~nprocs:2 () in
  Engine.spawn e 0 (fun p -> Engine.block ~reason:(fun () -> "never woken") p ~setup:(fun ~wake:_ -> ()));
  Engine.spawn e 1 (fun p -> Engine.yield p);
  match Engine.run e with
  | () -> Alcotest.fail "expected a deadlock"
  | exception Engine.Deadlock msg ->
      Alcotest.(check bool) "message names the schedule seed" true
        (contains ~sub:"schedule seed 7" msg);
      Alcotest.(check bool) "message keeps the blocked reason" true
        (contains ~sub:"never woken" msg)

let test_policy_fifo_deadlock_message_unchanged () =
  let e = Engine.create ~nprocs:1 () in
  Engine.spawn e 0 (fun p -> Engine.block p ~setup:(fun ~wake:_ -> ()));
  match Engine.run e with
  | () -> Alcotest.fail "expected a deadlock"
  | exception Engine.Deadlock msg ->
      Alcotest.(check bool) "no schedule tag under FIFO" false (contains ~sub:"schedule" msg)

let test_proc_accessor_bounds () =
  let e = Engine.create ~nprocs:2 () in
  ignore (Engine.proc e 0);
  ignore (Engine.proc e 1);
  Alcotest.check_raises "out of range" (Invalid_argument "Engine.proc: index out of range")
    (fun () -> ignore (Engine.proc e 2))

(* A fiber that raises Killed ends there: the rest of its body never
   runs, its clock stays where it died, and the run returns normally. *)
let test_killed_fiber_ends () =
  let e = Engine.create ~nprocs:2 () in
  let after = ref false in
  Engine.spawn e 0 (fun p ->
      Engine.charge p 100;
      Engine.yield p;
      if Engine.clock p = 100 then raise Engine.Killed;
      after := true);
  Engine.spawn e 1 (fun p ->
      Engine.charge p 300;
      Engine.yield p);
  Engine.run e;
  Alcotest.(check bool) "the rest of the body never ran" false !after;
  Alcotest.(check int) "the dead fiber's clock" 100 (Engine.clock_of e 0);
  Alcotest.(check int) "the survivor ran to its end" 300 (Engine.elapsed e)

(* The engine settles nothing for a dead fiber: a survivor waiting for
   a wake only the killed fiber would have sent is a deadlock, and the
   message names the survivor, not the dead fiber. *)
let test_killed_fiber_leaves_waiter_deadlocked () =
  let e = Engine.create ~nprocs:2 () in
  let waker = ref None in
  Engine.spawn e 0 (fun p ->
      Engine.block ~reason:(fun () -> "a wake from p1") p ~setup:(fun ~wake ->
          waker := Some wake));
  Engine.spawn e 1 (fun p ->
      Engine.charge p 10;
      Engine.yield p;
      if Engine.clock p = 10 then raise Engine.Killed;
      Option.get !waker ~at:20);
  match Engine.run e with
  | () -> Alcotest.fail "expected a deadlock"
  | exception Engine.Deadlock msg ->
      Alcotest.(check bool) "one processor stuck" true (contains ~sub:"1 processor(s)" msg);
      Alcotest.(check bool) "names the survivor and its reason" true
        (contains ~sub:"p0@0ns (blocked in a wake from p1)" msg);
      Alcotest.(check bool) "does not name the dead fiber" false (contains ~sub:"p1@" msg)

let () =
  Alcotest.run "sched"
    [
      ( "engine",
        [
          Alcotest.test_case "charge and elapsed" `Quick test_charge_and_elapsed;
          Alcotest.test_case "negative charge" `Quick test_negative_charge;
          Alcotest.test_case "min-clock yield order" `Quick test_min_clock_yield_order;
          Alcotest.test_case "block and wake" `Quick test_block_and_wake;
          Alcotest.test_case "wake never rewinds" `Quick test_wake_does_not_rewind;
          Alcotest.test_case "double wake rejected" `Quick test_double_wake_rejected;
          Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
          Alcotest.test_case "deadlock blocked reason" `Quick test_deadlock_blocked_reason;
          Alcotest.test_case "spawn validation" `Quick test_spawn_validation;
          Alcotest.test_case "run once" `Quick test_run_once;
          Alcotest.test_case "exceptions propagate" `Quick test_exception_propagates;
          Alcotest.test_case "ping pong" `Quick test_ping_pong;
          qtest engine_deterministic;
          qtest random_wake_graph;
          qtest run_queue_model;
          Alcotest.test_case "proc accessor bounds" `Quick test_proc_accessor_bounds;
          Alcotest.test_case "killed fiber ends" `Quick test_killed_fiber_ends;
          Alcotest.test_case "killed fiber leaves its waiter deadlocked" `Quick
            test_killed_fiber_leaves_waiter_deadlocked;
        ] );
      ( "tie-break policy",
        [
          Alcotest.test_case "fifo records nothing" `Quick test_policy_fifo_records_nothing;
          Alcotest.test_case "empty replay is fifo" `Quick test_policy_empty_replay_is_fifo;
          Alcotest.test_case "seeded replays identically" `Quick
            test_policy_seeded_replays_identically;
          Alcotest.test_case "seeds explore" `Quick test_policy_seeds_explore;
          Alcotest.test_case "replay modulo" `Quick test_policy_replay_modulo;
          Alcotest.test_case "negative replay rejected" `Quick
            test_policy_negative_replay_rejected;
          Alcotest.test_case "deadlock reports seed" `Quick test_policy_deadlock_reports_seed;
          Alcotest.test_case "fifo deadlock message unchanged" `Quick
            test_policy_fifo_deadlock_message_unchanged;
          Alcotest.test_case "yield with nobody due" `Quick test_yield_nobody_due;
        ] );
    ]
