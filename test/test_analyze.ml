(* Tests for ECLint, the static entry-consistency analyzer: directed
   IR programs per diagnostic class, the lock-order pass, the hygiene
   lints, the workloads' IR lifts, and the soundness contract against
   ECSan — statically over 200+ random Ecgen programs (a buggy
   program's stripped add must always be in the may-race set, a clean
   one must produce zero warnings) and dynamically (every violation
   ECSan reports on a real run must have been predicted), with the
   measured precision of the static set printed. *)

module Config = Midway.Config
module Engine = Midway_sched.Engine
module Range = Midway_check.Range
module Diag = Midway_check.Diag
module Ir = Midway_analyze.Ir
module Analyze = Midway_analyze.Analyze
module Explore = Midway_explore.Explore
module Workload = Midway_explore.Workload
module Ecgen = Midway_explore.Ecgen

let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let r8 lo = Range.v lo 8

let prog ?(name = "t") ?(locks = []) ?(barriers = []) ~nprocs rounds =
  { Ir.name; nprocs; locks; barriers; rounds }

let warn_slugs (r : Analyze.report) =
  List.map (fun (f : Analyze.finding) -> Analyze.class_slug f.Analyze.cls) r.Analyze.warnings

let lint_slugs (r : Analyze.report) =
  List.sort_uniq compare
    (List.map (fun (f : Analyze.finding) -> Analyze.class_slug f.Analyze.cls) r.Analyze.lints)

let acq ?(mode = Ir.Exclusive) lock = Ir.Acquire { lock; mode }

let find_warning r slug =
  match
    List.find_opt
      (fun (f : Analyze.finding) -> Analyze.class_slug f.Analyze.cls = slug)
      r.Analyze.warnings
  with
  | Some f -> f
  | None -> Alcotest.fail (Printf.sprintf "no [%s] warning in:\n%s" slug (Analyze.render r))

(* ------------------------------------------------------------------ *)
(* Directed programs, one per diagnostic class                         *)
(* ------------------------------------------------------------------ *)

let test_unsynchronized_read_and_write () =
  (* p1 reads, then a variant writes, lock-bound data bare *)
  let read_prog =
    prog ~nprocs:2
      ~locks:[ (0, [ r8 0 ]) ]
      [| [| [ acq 0; Ir.Write (r8 0); Ir.Release 0 ]; [ Ir.Read (r8 0) ] |] |]
  in
  let r = Analyze.analyze read_prog in
  Alcotest.(check (list string)) "bare read of bound data" [ "unsynchronized-access" ]
    (warn_slugs r);
  let f = find_warning r "unsynchronized-access" in
  Alcotest.(check int) "names the binding lock" 0 f.Analyze.sync;
  Alcotest.(check (list int)) "implicates the reader" [ 1 ] f.Analyze.procs;
  Alcotest.(check (pair int int)) "address hull" (0, 8) (f.Analyze.lo, f.Analyze.hi);
  let write_prog =
    prog ~nprocs:2
      ~locks:[ (0, [ r8 0 ]) ]
      [| [| [ acq 0; Ir.Write (r8 0); Ir.Release 0 ]; [ Ir.Write (r8 0) ] |] |]
  in
  Alcotest.(check (list string)) "bare write of bound data" [ "unsynchronized-access" ]
    (warn_slugs (Analyze.analyze write_prog));
  (* a bare read of data nobody writes is not a race: reads only
     conflict with a possible write *)
  let read_only =
    prog ~nprocs:2
      ~locks:[ (0, [ r8 0 ]) ]
      [| [| [ acq 0 ~mode:Ir.Shared; Ir.Read (r8 0); Ir.Release 0 ]; [ Ir.Read (r8 0) ] |] |]
  in
  Alcotest.(check bool) "no writer, no race (only the never-written lint)" true
    ((Analyze.analyze read_only).Analyze.warnings = [])

let test_write_under_shared_hold () =
  let p =
    prog ~nprocs:2
      ~locks:[ (0, [ r8 0 ]) ]
      [|
        [|
          [ acq 0 ~mode:Ir.Shared; Ir.Write (r8 0); Ir.Release 0 ];
          [ acq 0 ~mode:Ir.Shared; Ir.Read (r8 0); Ir.Release 0 ];
        |];
      |]
  in
  let r = Analyze.analyze p in
  Alcotest.(check (list string)) "store through a read-mode hold" [ "write-under-shared-hold" ]
    (warn_slugs r);
  Alcotest.(check int) "sync" 0 (find_warning r "write-under-shared-hold").Analyze.sync

let test_unbound_shared_data () =
  let p = prog ~nprocs:2 [| [| [ Ir.Write (r8 0) ]; [ Ir.Read (r8 0) ] |] |] in
  let r = Analyze.analyze p in
  Alcotest.(check (list string)) "never-bound conflict" [ "unbound-shared-data" ] (warn_slugs r);
  Alcotest.(check (list int)) "both processors" [ 0; 1 ]
    (find_warning r "unbound-shared-data").Analyze.procs;
  (* one processor alone, or two readers, is private use — no warning *)
  let solo = prog ~nprocs:2 [| [| [ Ir.Write (r8 0); Ir.Read (r8 0) ]; [] |] |] in
  Alcotest.(check (list string)) "sole toucher is private" [] (warn_slugs (Analyze.analyze solo))

let test_misclassified_private_store () =
  let p =
    prog ~nprocs:2
      [| [| [ Ir.Write_private (r8 0) ]; [] |]; [| []; [ Ir.Read (r8 0) ] |] |]
  in
  let r = Analyze.analyze p in
  Alcotest.(check (list string)) "private store read by another proc"
    [ "misclassified-private-store" ] (warn_slugs r);
  Alcotest.(check (list int)) "store and reader" [ 0; 1 ]
    (find_warning r "misclassified-private-store").Analyze.procs;
  (* unread private stores are fine *)
  let quiet = prog ~nprocs:2 [| [| [ Ir.Write_private (r8 0) ]; [] |] |] in
  Alcotest.(check (list string)) "unread private store" [] (warn_slugs (Analyze.analyze quiet))

let test_stale_binding_access () =
  (* round 0 shrinks lock 0's binding [0,16) -> [0,8); round 1 writes
     the full former range under the lock: [8,16) is retired *)
  let p =
    prog ~nprocs:2
      ~locks:[ (0, [ Range.v 0 16 ]) ]
      [|
        [| [ acq 0; Ir.Rebind { lock = 0; ranges = [ r8 0 ] }; Ir.Release 0 ]; [] |];
        [| []; [ acq 0; Ir.Write (Range.v 0 16); Ir.Release 0 ] |];
      |]
  in
  let r = Analyze.analyze p in
  Alcotest.(check (list string)) "write through the retired half" [ "stale-binding-access" ]
    (warn_slugs r);
  let f = find_warning r "stale-binding-access" in
  Alcotest.(check int) "names the rebound lock" 0 f.Analyze.sync;
  Alcotest.(check (pair int int)) "only the retired bytes" (8, 16) (f.Analyze.lo, f.Analyze.hi);
  (* the rebinder itself may rely on its own new version while held *)
  let own =
    prog ~nprocs:2
      ~locks:[ (0, [ r8 0 ]) ]
      [|
        [|
          [ acq 0; Ir.Rebind { lock = 0; ranges = [ Range.v 0 16 ] };
            Ir.Write (Range.v 0 16); Ir.Release 0 ];
          [];
        |];
      |]
  in
  Alcotest.(check (list string)) "rebinder trusts its own grown binding" []
    (warn_slugs (Analyze.analyze own))

let test_barrier_same_round_writes () =
  let p =
    prog ~nprocs:3
      ~barriers:[ (0, [ r8 0 ]) ]
      [| [| [ Ir.Write (r8 0) ]; [ Ir.Write (r8 0) ]; [ Ir.Read (r8 0) ] |] |]
  in
  let r = Analyze.analyze p in
  Alcotest.(check (list string)) "same-round barrier write/write" [ "unsynchronized-access" ]
    (warn_slugs r);
  let f = find_warning r "unsynchronized-access" in
  Alcotest.(check int) "names the barrier" 0 f.Analyze.sync;
  Alcotest.(check (list int)) "both writers, not the reader" [ 0; 1 ] f.Analyze.procs;
  (* writers in different rounds are ordered by the crossing: clean *)
  let staged =
    prog ~nprocs:2
      ~barriers:[ (0, [ r8 0 ]) ]
      [| [| [ Ir.Write (r8 0) ]; [] |]; [| []; [ Ir.Write (r8 0); Ir.Read (r8 0) ] |] |]
  in
  Alcotest.(check (list string)) "barrier-ordered writes" []
    (warn_slugs (Analyze.analyze staged))

(* ------------------------------------------------------------------ *)
(* The lock-order pass                                                 *)
(* ------------------------------------------------------------------ *)

let nest a b = [ acq a; Ir.Work 100; acq b; Ir.Release b; Ir.Release a ]

let test_lock_cycle_detected () =
  let p =
    prog ~nprocs:2
      ~locks:[ (0, [ r8 0 ]); (1, [ r8 8 ]) ]
      [| [| nest 0 1; nest 1 0 |] |]
  in
  let r = Analyze.analyze p in
  let cs = Analyze.cycles r in
  Alcotest.(check int) "one cycle" 1 (List.length cs);
  let c = List.hd cs in
  Alcotest.(check (list int)) "both processors implicated" [ 0; 1 ] c.Analyze.procs;
  Alcotest.(check bool) "witness acquisition paths attached" true (c.Analyze.witness <> [])

let test_lock_cycle_needs_same_round () =
  (* opposite nesting orders separated by a barrier cannot deadlock *)
  let p =
    prog ~nprocs:2
      ~locks:[ (0, [ r8 0 ]); (1, [ r8 8 ]) ]
      [| [| nest 0 1; [] |]; [| []; nest 1 0 |] |]
  in
  Alcotest.(check int) "rounds are ordered: no cycle" 0
    (List.length (Analyze.cycles (Analyze.analyze p)))

let test_lock_cycle_needs_two_procs () =
  (* one processor using both orders sequentially never deadlocks *)
  let p =
    prog ~nprocs:2
      ~locks:[ (0, [ r8 0 ]); (1, [ r8 8 ]) ]
      [| [| nest 0 1 @ nest 1 0; [] |] |]
  in
  Alcotest.(check int) "single-processor cycle filtered" 0
    (List.length (Analyze.cycles (Analyze.analyze p)))

(* ------------------------------------------------------------------ *)
(* Hygiene lints                                                       *)
(* ------------------------------------------------------------------ *)

let test_hygiene_lints () =
  let p =
    prog ~nprocs:2
      ~locks:
        [
          (0, [ Range.v 0 16 ]);  (* overlaps lock 1 on [8,16) *)
          (1, [ Range.v 8 16 ]);
          (2, [ Range.v 32 0 ]);  (* degenerate *)
          (3, [ Range.v 40 8 ]);  (* never written *)
        ]
      [|
        [|
          [ acq 0; Ir.Write (Range.v 0 16); Ir.Release 0 ];
          (* same-range rebind under a shared hold: hygiene only *)
          [ acq 3 ~mode:Ir.Shared; Ir.Rebind { lock = 3; ranges = [ Range.v 40 8 ] };
            Ir.Release 3 ];
        |];
      |]
  in
  let r = Analyze.analyze p in
  Alcotest.(check (list string)) "lints never join the warning set" [] (warn_slugs r);
  Alcotest.(check (list string)) "all four hygiene classes"
    [
      "degenerate-binding"; "never-written-binding"; "overlapping-bindings";
      "rebind-without-exclusive-hold";
    ]
    (lint_slugs r)

let test_validate_rejects_malformed () =
  let undeclared = prog ~nprocs:1 [| [| [ acq 7 ] |] |] in
  Alcotest.(check bool) "undeclared lock id" true (Ir.validate undeclared <> []);
  Alcotest.check_raises "analyze refuses a malformed program"
    (Invalid_argument
       "Analyze.analyze: malformed program: round 0 p0: acquire(7,exclusive) references \
        undeclared lock 7")
    (fun () -> ignore (Analyze.analyze undeclared))

(* ------------------------------------------------------------------ *)
(* The workloads' IR lifts                                             *)
(* ------------------------------------------------------------------ *)

let static_of w =
  match w.Workload.ir with
  | Some lift -> Analyze.analyze (lift ~nprocs:4)
  | None -> Alcotest.fail (w.Workload.name ^ " lost its IR lift")

let test_clean_workloads_are_statically_clean () =
  List.iter
    (fun w ->
      let r = static_of w in
      Alcotest.(check (list string)) (w.Workload.name ^ " has zero static warnings") []
        (warn_slugs r))
    (Explore.clean_workloads () @ [ Ecgen.workload ~seed:11 (); Ecgen.workload ~seed:12 () ])

let test_order_sensitive_is_statically_clean () =
  (* the precision story: its bug is a wrong oracle under correct
     locking, invisible to (and rightly unreported by) the analyzer *)
  Alcotest.(check (list string)) "order-sensitive: correct locking, no warning" []
    (warn_slugs (static_of Workload.order_sensitive))

let test_buggy_workloads_are_statically_flagged () =
  let racy = static_of Workload.racy in
  Alcotest.(check bool) "racy predicts unsynchronized-access on lock 0" true
    (Analyze.predicts racy ~cls:Diag.Unsynchronized_access ~sync:0);
  let deadlocky = static_of Workload.deadlocky in
  Alcotest.(check int) "deadlocky has the lock cycle" 1
    (List.length (Analyze.cycles deadlocky));
  Alcotest.(check int) "deadlocky has no may-race" 0
    (List.length (Analyze.may_races deadlocky))

(* ------------------------------------------------------------------ *)
(* Static soundness over random Ecgen programs                         *)
(* ------------------------------------------------------------------ *)

let raw_groups (p : Ecgen.program) =
  Array.to_list p.Ecgen.ops
  |> List.concat_map Array.to_list
  |> List.concat
  |> List.filter_map (function Ecgen.Raw_add { group; _ } -> Some group | _ -> None)
  |> List.sort_uniq compare

(* >= 200 programs: ~count seeds x 2 nprocs choices x (clean, buggy) *)
let static_soundness_over_ecgen =
  QCheck.Test.make ~name:"ecgen x 200+: buggy always flagged, clean never" ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      List.for_all
        (fun nprocs ->
          let clean = Ecgen.generate ~seed ~nprocs () in
          let rc = Analyze.analyze (Ecgen.to_ir clean) in
          if rc.Analyze.warnings <> [] then
            QCheck.Test.fail_reportf "seed=%d nprocs=%d: clean program got warnings:\n%s" seed
              nprocs (Analyze.render rc);
          let buggy = Ecgen.generate ~buggy:true ~seed ~nprocs () in
          let rb = Analyze.analyze (Ecgen.to_ir buggy) in
          (match raw_groups buggy with
          | [] -> QCheck.Test.fail_reportf "seed=%d: buggy program has no Raw_add" seed
          | gs ->
              List.iter
                (fun g ->
                  if not (Analyze.predicts rb ~cls:Diag.Unsynchronized_access ~sync:g) then
                    QCheck.Test.fail_reportf
                      "seed=%d nprocs=%d: Raw_add on group %d not in the may-race set:\n%s" seed
                      nprocs g (Analyze.render rb))
                gs);
          true)
        [ 2; 4 ])

(* ------------------------------------------------------------------ *)
(* Dynamic soundness: ECSan never out-diagnoses the analyzer           *)
(* ------------------------------------------------------------------ *)

let seeded_config ?(nprocs = 4) backend sseed =
  let cfg = Config.make backend ~nprocs in
  { cfg with Config.ecsan = true; sched_policy = Engine.Seeded sseed }

let test_dynamic_soundness_and_precision () =
  let subjects =
    [
      Workload.counter ~iters:4;
      Workload.readers_writer ~iters:4;
      Workload.mix ~groups:3 ~iters:4;
      Workload.order_sensitive;
      Workload.racy;
      Workload.deadlocky;
      Ecgen.workload ~seed:3 ();
      Ecgen.workload ~buggy:true ~seed:3 ();
      Ecgen.workload ~buggy:true ~seed:7 ();
    ]
  in
  let dynamic = ref 0 in
  List.iter
    (fun (w : Workload.t) ->
      let report = static_of w in
      List.iter
        (fun sseed ->
          let o = w.Workload.run (seeded_config Config.Rt sseed) in
          match o.Workload.machine with
          | None -> Alcotest.fail (w.Workload.name ^ ": machine lost")
          | Some m ->
              List.iter
                (fun (v : Diag.violation) ->
                  incr dynamic;
                  if not (Analyze.predicts report ~cls:v.Diag.cls ~sync:v.Diag.sync) then
                    Alcotest.fail
                      (Printf.sprintf
                         "%s seed=%d: dynamic [%s] (sync %d) not in the static may-race set:\n%s"
                         w.Workload.name sseed (Diag.class_name v.Diag.cls) v.Diag.sync
                         (Analyze.render report)))
                (Midway.Runtime.check_report m).Midway_check.Report.violations)
        [ 1; 2; 3 ])
    subjects;
  Alcotest.(check bool) "the sweep produced dynamic diagnoses to check" true (!dynamic > 0);
  (* precision of the static set over the warning-bearing prey: hand
     every warning to the explorer and count how many some schedule
     realizes (1.0 here — these warnings are all real) *)
  let confirmed, total =
    List.fold_left
      (fun (c, t) w ->
        match
          Explore.confirm_static ~backends:[ Config.Rt ] ~schedules:4 ~schedule_seed:1
            ~nprocs:4 w
        with
        | None -> (c, t)
        | Some (_, confs) ->
            ( c
              + List.length
                  (List.filter (fun k -> k.Explore.cf_confirmed <> None) confs),
              t + List.length confs ))
      (0, 0)
      [ Workload.racy; Workload.deadlocky; Ecgen.workload ~buggy:true ~seed:3 () ]
  in
  Printf.printf "static precision over the prey set: %d/%d confirmed (%.2f)\n" confirmed total
    (float_of_int confirmed /. float_of_int (max 1 total));
  Alcotest.(check int) "every prey warning is dynamically realized" total confirmed;
  Alcotest.(check bool) "the prey set exercises both warning kinds" true (total >= 3)

let () =
  Alcotest.run "analyze"
    [
      ( "classes",
        [
          Alcotest.test_case "unsynchronized access" `Quick test_unsynchronized_read_and_write;
          Alcotest.test_case "write under shared hold" `Quick test_write_under_shared_hold;
          Alcotest.test_case "unbound shared data" `Quick test_unbound_shared_data;
          Alcotest.test_case "misclassified private store" `Quick
            test_misclassified_private_store;
          Alcotest.test_case "stale binding access" `Quick test_stale_binding_access;
          Alcotest.test_case "barrier same-round writes" `Quick
            test_barrier_same_round_writes;
        ] );
      ( "lock-order",
        [
          Alcotest.test_case "cycle detected with witnesses" `Quick test_lock_cycle_detected;
          Alcotest.test_case "no cycle across rounds" `Quick test_lock_cycle_needs_same_round;
          Alcotest.test_case "single-proc cycle filtered" `Quick test_lock_cycle_needs_two_procs;
        ] );
      ( "hygiene",
        [
          Alcotest.test_case "all four lints" `Quick test_hygiene_lints;
          Alcotest.test_case "validate rejects malformed" `Quick test_validate_rejects_malformed;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "clean set statically clean" `Quick
            test_clean_workloads_are_statically_clean;
          Alcotest.test_case "order-sensitive statically clean" `Quick
            test_order_sensitive_is_statically_clean;
          Alcotest.test_case "prey statically flagged" `Quick
            test_buggy_workloads_are_statically_flagged;
        ] );
      ("soundness-static", [ qtest static_soundness_over_ecgen ]);
      ( "soundness-dynamic",
        [
          Alcotest.test_case "ECSan subset of the static set, with precision" `Quick
            test_dynamic_soundness_and_precision;
        ] );
    ]
