(* ECSan: the entry-consistency sanitizer.

   Five layers of tests:
   - the five paper applications (plus water's lock-per-molecule sync
     style, which the scaled suite does not exercise) must be
     sanitizer-clean at smoke scale;
   - the example programs must be sanitizer-clean when run with
     MIDWAY_ECSAN=1, and examples/races.exe must find its own bugs;
   - five seeded-race programs (mirroring examples/races.ml) must each
     report exactly the intended diagnostic class, processor and range;
   - ECSan's report must not depend on whether an event log is armed;
   - unit tests for the checker's own algebra (intervals, binding index,
     deduplication). *)

module Config = Midway.Config
module Runtime = Midway.Runtime
module Range = Midway.Range
module Binding_index = Midway_check.Binding_index
module Diag = Midway_check.Diag
module Report = Midway_check.Report
module Suite = Midway_report.Suite
module Outcome = Midway_apps.Outcome

let ecsan_cfg backend ~nprocs = { (Config.make backend ~nprocs) with Config.ecsan = true }

(* --- the five applications are sanitizer-clean --------------------------- *)

let clean_outcome (outcome : Outcome.t) =
  Alcotest.(check bool) "oracle ok" true outcome.Outcome.ok;
  (match Runtime.check_invariants outcome.Outcome.machine with
  | [] -> ()
  | v -> Alcotest.failf "invariants: %s" (String.concat "; " v));
  let rep = Runtime.check_report outcome.Outcome.machine in
  Alcotest.(check bool) "ecsan armed" true rep.Report.enabled;
  if Report.has_violations rep then Alcotest.failf "ECSan violations:\n%s" (Report.render rep)

let app_clean app backend nprocs scale () =
  let cfg = ecsan_cfg backend ~nprocs in
  clean_outcome (Suite.run_app app cfg ~scale)

let app_cases =
  List.concat_map
    (fun app ->
      List.map
        (fun (backend, nprocs) ->
          Alcotest.test_case
            (Printf.sprintf "%s %s n=%d clean" (Suite.app_name app)
               (Config.backend_name backend) nprocs)
            `Slow
            (app_clean app backend nprocs 0.05))
        [ (Config.Rt, 4); (Config.Vm, 4); (Config.Rt, 8) ])
    Suite.apps
  @ [
      (* the scaled suite always runs water with barrier phases; the
         lock-per-molecule style takes a different synchronization path
         through the checker and must be clean too *)
      Alcotest.test_case "water molecule-locks rt n=4 clean" `Slow (fun () ->
          clean_outcome
            (Midway_apps.Water.run (ecsan_cfg Config.Rt ~nprocs:4)
               {
                 Midway_apps.Water.molecules = 24;
                 steps = 2;
                 sync = Midway_apps.Water.Molecule_locks;
               }));
    ]

(* --- the examples are sanitizer-clean (subprocess, MIDWAY_ECSAN=1) ------- *)

(* the test binary lives in _build/default/test; the examples are its
   siblings in _build/default/examples, wherever dune runs us from *)
let example_exe name =
  Filename.concat
    (Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) "examples")
    (name ^ ".exe")

let example_case name =
  Alcotest.test_case (name ^ " clean under MIDWAY_ECSAN") `Slow (fun () ->
      let cmd = Printf.sprintf "MIDWAY_ECSAN=1 %s >/dev/null 2>&1" (example_exe name) in
      Alcotest.(check int) (name ^ " exits 0") 0 (Sys.command cmd))

let example_cases =
  List.map example_case [ "quickstart"; "task_queue"; "stencil"; "false_sharing"; "readers_writer" ]
  @ [
      Alcotest.test_case "races.exe finds all five seeded races" `Slow (fun () ->
          Alcotest.(check int) "races exits 0" 0
            (Sys.command (Printf.sprintf "%s >/dev/null 2>&1" (example_exe "races"))));
    ]

(* --- seeded races report exactly the intended diagnostic ----------------- *)

module R = Runtime

let race_cfg = { (Config.make Config.Rt ~nprocs:2) with Config.ecsan = true }

(* p1 stores to lock-bound data without acquiring the lock *)
let seed_unsynchronized () =
  let machine = R.create race_cfg in
  let data = R.alloc machine 8 in
  let lock = R.new_lock machine [ Range.v data 8 ] in
  let start = R.new_barrier machine [] in
  R.run machine (fun c ->
      if R.id c = 0 then begin
        R.acquire c lock;
        R.write_int c data 1;
        R.release c lock;
        R.barrier c start
      end
      else begin
        R.barrier c start;
        R.write_int c data 2
      end);
  (machine, data, 1)

(* p1 takes the lock in read mode and stores through it anyway *)
let seed_shared_write () =
  let machine = R.create race_cfg in
  let data = R.alloc machine 8 in
  let lock = R.new_lock machine [ Range.v data 8 ] in
  let start = R.new_barrier machine [] in
  R.run machine (fun c ->
      if R.id c = 0 then begin
        R.acquire c lock;
        R.write_int c data 1;
        R.release c lock;
        R.barrier c start
      end
      else begin
        R.barrier c start;
        R.acquire_read c lock;
        ignore (R.read_int c data);
        R.write_int c data 2
      end;
      if R.id c = 1 then R.release c lock);
  (machine, data, 1)

(* two processors share data that nothing ever binds *)
let seed_unbound () =
  let machine = R.create race_cfg in
  let data = R.alloc machine 8 in
  let start = R.new_barrier machine [] in
  R.run machine (fun c ->
      if R.id c = 0 then begin
        R.write_int c data 41;
        R.barrier c start
      end
      else begin
        R.barrier c start;
        ignore (R.read_int c data)
      end);
  (machine, data, 1)

(* p0 stores through write_int_private but p1 later reads the data *)
let seed_misclassified () =
  let machine = R.create race_cfg in
  let data = R.alloc machine 8 in
  let start = R.new_barrier machine [] in
  R.run machine (fun c ->
      if R.id c = 0 then begin
        R.write_int_private c data 7;
        R.barrier c start
      end
      else begin
        R.barrier c start;
        ignore (R.read_int c data)
      end);
  (machine, data, 0)

(* p1 rebinds the lock to a prefix, then writes the rebound-away suffix *)
let seed_stale () =
  let machine = R.create race_cfg in
  let data = R.alloc machine 16 in
  let lock = R.new_lock machine [ Range.v data 16 ] in
  let start = R.new_barrier machine [] in
  R.run machine (fun c ->
      if R.id c = 0 then begin
        R.acquire c lock;
        R.write_int c data 1;
        R.write_int c (data + 8) 2;
        R.release c lock;
        R.barrier c start
      end
      else begin
        R.barrier c start;
        R.acquire c lock;
        R.rebind c lock [ Range.v data 8 ];
        R.write_int c data 10;
        R.write_int c (data + 8) 20;
        R.release c lock
      end);
  (machine, data + 8, 1)

let seeded_case name expected_cls build =
  Alcotest.test_case name `Quick (fun () ->
      let machine, addr, proc = build () in
      let rep = R.check_report machine in
      match rep.Report.violations with
      | [ v ] ->
          Alcotest.(check string)
            "diagnostic class" (Diag.class_name expected_cls) (Diag.class_name v.Diag.cls);
          Alcotest.(check int) "processor at fault" proc v.Diag.proc;
          Alcotest.(check bool)
            (Printf.sprintf "hull [%#x,%#x) covers %#x" v.Diag.lo v.Diag.hi addr)
            true
            (v.Diag.lo <= addr && addr < v.Diag.hi)
      | vs ->
          Alcotest.failf "wanted exactly one violation, got %d:\n%s" (List.length vs)
            (Report.render rep))

let seeded_cases =
  [
    seeded_case "unsynchronized access" Diag.Unsynchronized_access seed_unsynchronized;
    seeded_case "write under shared hold" Diag.Write_under_shared_hold seed_shared_write;
    seeded_case "unbound shared data" Diag.Unbound_shared_data seed_unbound;
    seeded_case "misclassified private store" Diag.Misclassified_private_store seed_misclassified;
    seeded_case "stale binding access" Diag.Stale_binding_access seed_stale;
  ]

(* --- every typed accessor reaches the hook -------------------------------- *)

(* The accessors are inlined into their callers, each with its own copy
   of ECSan's hook.  For each one, p0 writes a word under its lock and
   p1 then uses the accessor once on that word without the lock: exactly
   one finding, naming the accessor, or none if its hook dropped out.  A
   private store is recorded without its op and flagged only once
   another processor reads the word, so for the two private accessors p0
   reads it back under the lock and the finding names p1. *)
let accessors =
  [
    ("read_f64", fun c a -> ignore (R.read_f64 c a));
    ("read_int", fun c a -> ignore (R.read_int c a));
    ("read_i32", fun c a -> ignore (R.read_i32 c a));
    ("read_u8", fun c a -> ignore (R.read_u8 c a));
    ("read_bytes", fun c a -> ignore (R.read_bytes c a ~len:8));
    ("write_f64", fun c a -> R.write_f64 c a 1.5);
    ("write_int", fun c a -> R.write_int c a 2);
    ("write_i32", fun c a -> R.write_i32 c a 3l);
    ("write_u8", fun c a -> R.write_u8 c a 4);
    ("write_bytes", fun c a -> R.write_bytes c a (Bytes.make 8 'x'));
    ("write_f64_private", fun c a -> R.write_f64_private c a 5.5);
    ("write_int_private", fun c a -> R.write_int_private c a 6);
  ]

let accessor_case (op, use) =
  let private_ = String.ends_with ~suffix:"_private" op in
  Alcotest.test_case op `Quick (fun () ->
      let machine = R.create race_cfg in
      let data = R.alloc machine 8 in
      let lock = R.new_lock machine [ Range.v data 8 ] in
      let written = R.new_barrier machine [] and used = R.new_barrier machine [] in
      R.run machine (fun c ->
          if R.id c = 0 then begin
            R.acquire c lock;
            R.write_int c data 1;
            R.release c lock
          end;
          R.barrier c written;
          if R.id c = 1 then use c data;
          R.barrier c used;
          if R.id c = 0 && private_ then begin
            R.acquire c lock;
            ignore (R.read_int c data);
            R.release c lock
          end);
      let rep = R.check_report machine in
      match rep.Report.violations with
      | [ v ] ->
          let cls, first_op =
            if private_ then (Diag.Misclassified_private_store, "read_int")
            else (Diag.Unsynchronized_access, op)
          in
          Alcotest.(check string) "class" (Diag.class_name cls) (Diag.class_name v.Diag.cls);
          Alcotest.(check int) "processor at fault" 1 v.Diag.proc;
          Alcotest.(check string) "op" first_op v.Diag.first_op
      | vs ->
          Alcotest.failf "%s: wanted exactly one finding, got %d:\n%s" op (List.length vs)
            (Report.render rep))

let accessor_cases = List.map accessor_case accessors

(* --- ECSan reads no log ---------------------------------------------------- *)

(* ECSan's synchronization side reads the protocol's event stream, which
   the log shares: arming a log must change none of its findings.  Each
   program runs with ECSan alone, with a bounded log and with the full
   observability log; the reports must agree in everything but the
   context lines a log adds to a first occurrence. *)
let log_independent name =
  Alcotest.test_case (name ^ ": one report, log or not") `Quick (fun () ->
      let w =
        match Midway_explore.Explore.workload_of_name name with
        | Ok w -> w
        | Error e -> Alcotest.fail e
      in
      let report log =
        let cfg = log (ecsan_cfg Config.Rt ~nprocs:4) in
        match (w.Midway_explore.Workload.run cfg).Midway_explore.Workload.machine with
        | None -> Alcotest.failf "%s lost its machine" name
        | Some m ->
            let rep = R.check_report m in
            let strip (v : Diag.violation) = { v with Diag.context = [] } in
            { rep with Report.violations = List.map strip rep.Report.violations }
      in
      let alone = report Fun.id in
      if name <> "water" && alone.Report.violations = [] then
        Alcotest.failf "%s: ECSan found nothing" name;
      List.iter
        (fun (what, log) ->
          if report log <> alone then Alcotest.failf "%s: the report changes %s" name what)
        [
          ("with a bounded log", fun cfg -> { cfg with Config.trace_capacity = 64 });
          ("with the full log", fun cfg -> { cfg with Config.obs = true });
        ])

let log_cases = List.map log_independent [ "racy"; "ecgen-buggy:1"; "water" ]

(* --- static lint --------------------------------------------------------- *)

let lint_findings machine =
  List.filter (fun (v : Diag.violation) -> Diag.is_lint v.Diag.cls)
    (R.check_report machine).Report.violations

let test_lint_overlap () =
  let machine = R.create race_cfg in
  let data = R.alloc machine 16 in
  let _la = R.new_lock machine [ Range.v data 16 ] in
  let _lb = R.new_lock machine [ Range.v (data + 8) 8 ] in
  R.run machine (fun _ -> ());
  match lint_findings machine with
  | [ v ] ->
      Alcotest.(check string)
        "class" "lint-overlapping-bindings" (Diag.class_name v.Diag.cls);
      Alcotest.(check (pair int int)) "overlap hull" (data + 8, data + 16) (v.Diag.lo, v.Diag.hi)
  | vs -> Alcotest.failf "wanted one lint finding, got %d" (List.length vs)

let test_lint_private_and_degenerate () =
  let machine = R.create race_cfg in
  let priv = R.alloc machine ~private_:true 8 in
  let data = R.alloc machine 8 in
  let _lp = R.new_lock machine [ Range.v priv 8 ] in
  let _ld = R.new_lock machine [ Range.v data 0 ] in
  R.run machine (fun _ -> ());
  let classes = List.map (fun (v : Diag.violation) -> Diag.class_name v.Diag.cls) (lint_findings machine) in
  Alcotest.(check (list string))
    "both lint classes fire"
    [ "lint-degenerate-range"; "lint-private-binding" ]
    (List.sort compare classes)

let lint_cases =
  [
    Alcotest.test_case "overlapping bindings" `Quick test_lint_overlap;
    Alcotest.test_case "private and degenerate bindings" `Quick test_lint_private_and_degenerate;
  ]

(* --- unit tests: the shared range list algebra --------------------------- *)
(* The same edge cases the former lib/check Interval module carried;
   Range (now the single implementation, shared with the runtime and the
   static analyzer) must keep them. *)

let rpairs rs = List.map (fun (r : Range.t) -> (r.Range.addr, Range.limit r)) rs

let test_range_normalize () =
  Alcotest.(check (list (pair int int)))
    "sorts, drops empties, merges adjacent" [ (0, 8); (12, 16) ]
    (rpairs (Range.normalize [ Range.v 4 4; Range.v 10 0; Range.v 12 4; Range.v 0 4 ]));
  Alcotest.(check bool) "mem inside" true (Range.mem [ Range.v 0 8 ] 7);
  Alcotest.(check bool) "mem at limit is out" false (Range.mem [ Range.v 0 8 ] 8)

let test_range_subtract_union () =
  let a = [ Range.v 0 16 ] in
  Alcotest.(check (list (pair int int)))
    "subtract splits" [ (0, 4); (8, 16) ]
    (rpairs (Range.subtract_list a ~minus:[ Range.v 4 4 ]));
  Alcotest.(check (list (pair int int)))
    "union merges" [ (0, 16) ]
    (rpairs (Range.union [ Range.v 0 8 ] [ Range.v 8 8 ]));
  Alcotest.(check (list (pair int int)))
    "inter clips" [ (4, 8); (12, 14) ]
    (rpairs (Range.inter [ Range.v 0 8; Range.v 12 2 ] [ Range.v 4 16 ]));
  Alcotest.(check bool) "covers full" true (Range.covers [ Range.v 0 8; Range.v 8 8 ] [ Range.v 2 10 ]);
  Alcotest.(check bool) "covers with a hole" false
    (Range.covers [ Range.v 0 4; Range.v 8 8 ] [ Range.v 2 10 ]);
  let points = ref [] in
  Range.iter_points [ Range.v 2 3 ] ~f:(fun p -> points := p :: !points);
  Alcotest.(check (list int)) "iter_points visits each point" [ 2; 3; 4 ] (List.rev !points)

(* --- unit tests: binding index ------------------------------------------- *)

let test_binding_index_rebind () =
  let ix = Binding_index.create ~nprocs:2 in
  Binding_index.register ix ~id:0 ~kind:Binding_index.Lock ~raw:[ (64, 16) ];
  let w_lo = 64 asr 3 and w_hi = 72 asr 3 in
  Alcotest.(check int) "both words covered" 1 (List.length (Binding_index.syncs_at ix w_hi));
  Binding_index.rebind ix ~id:0 ~raw:[ (64, 8) ];
  Alcotest.(check (list (pair int int)))
    "current ranges shrink" [ (64, 8) ]
    (Binding_index.current_ranges ix ~id:0);
  Alcotest.(check int) "suffix no longer covered" 0 (List.length (Binding_index.syncs_at ix w_hi));
  Alcotest.(check int) "suffix is retired" 1 (List.length (Binding_index.retired_at ix w_hi));
  Alcotest.(check int) "prefix not retired" 0 (List.length (Binding_index.retired_at ix w_lo));
  Alcotest.(check bool) "suffix was ever bound" true (Binding_index.ever_bound ix w_hi);
  (* re-binding the suffix back un-retires it *)
  Binding_index.rebind ix ~id:0 ~raw:[ (64, 16) ];
  Alcotest.(check int) "re-bound word no longer retired" 0
    (List.length (Binding_index.retired_at ix w_hi))

let test_binding_index_degenerate () =
  let ix = Binding_index.create ~nprocs:2 in
  Binding_index.register ix ~id:3 ~kind:Binding_index.Lock ~raw:[ (128, 0); (160, 8) ];
  Alcotest.(check (list (pair int (pair int int))))
    "degenerate entries recorded"
    [ (3, (128, 0)) ]
    (List.map (fun (id, a, l) -> (id, (a, l))) (Binding_index.degenerate ix));
  Alcotest.(check (list (pair int int)))
    "empty ranges dropped from coverage" [ (160, 8) ]
    (Binding_index.current_ranges ix ~id:3)

(* --- unit tests: deduplication ------------------------------------------- *)

let test_dedup () =
  let tbl = Diag.create_table () in
  let ctx () = [ "ctx" ] in
  Diag.note tbl ~cls:Diag.Unsynchronized_access ~proc:1 ~sync:0 ~lo:0 ~hi:8 ~time:10 ~op:"write_int"
    ~detail:(fun () -> "first") ~context:ctx;
  (* a repeat keeps its count and hull: its detail and context are
     never built *)
  Diag.note tbl ~cls:Diag.Unsynchronized_access ~proc:1 ~sync:0 ~lo:64 ~hi:72 ~time:20 ~op:"read_int"
    ~detail:(fun () -> Alcotest.fail "a repeat formatted its detail")
    ~context:(fun () -> Alcotest.fail "a repeat built its context");
  Diag.note tbl ~cls:Diag.Unsynchronized_access ~proc:0 ~sync:0 ~lo:0 ~hi:8 ~time:15 ~op:"write_int"
    ~detail:(fun () -> "different processor, own record") ~context:ctx;
  match Diag.violations tbl with
  | [ a; b ] ->
      Alcotest.(check int) "first record is the earliest" 10 a.Diag.first_time;
      Alcotest.(check int) "two occurrences folded" 2 a.Diag.count;
      Alcotest.(check (pair int int)) "address hull widened" (0, 72) (a.Diag.lo, a.Diag.hi);
      Alcotest.(check string) "first op kept" "write_int" a.Diag.first_op;
      Alcotest.(check string) "first detail kept" "first" a.Diag.detail;
      Alcotest.(check int) "other key separate" 0 b.Diag.proc;
      Alcotest.(check int) "ordered by first occurrence" 15 b.Diag.first_time
  | vs -> Alcotest.failf "wanted two deduplicated records, got %d" (List.length vs)

let unit_cases =
  [
    Alcotest.test_case "range normalize/mem" `Quick test_range_normalize;
    Alcotest.test_case "range subtract/union/points" `Quick test_range_subtract_union;
    Alcotest.test_case "binding index rebind/retire" `Quick test_binding_index_rebind;
    Alcotest.test_case "binding index degenerate ranges" `Quick test_binding_index_degenerate;
    Alcotest.test_case "violation dedup" `Quick test_dedup;
  ]

let () =
  Alcotest.run "check"
    [
      ("apps-clean", app_cases);
      ("examples-clean", example_cases);
      ("seeded-races", seeded_cases);
      ("accessors", accessor_cases);
      ("log-independent", log_cases);
      ("lint", lint_cases);
      ("unit", unit_cases);
    ]
