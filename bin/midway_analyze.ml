(* ECLint's command line: static entry-consistency analysis of the
   workloads' EC-IR lifts, before (and without) any execution.

     midway-analyze                          # report on the default set
     midway-analyze --apps racy,deadlocky --dump-ir
     midway-analyze --apps counter,mix --expect-clean
     midway-analyze --expect racy=unsynchronized-access \
                    --expect deadlocky=lock-cycle       # zero runs
     midway-analyze --apps racy,deadlocky --confirm     # explorer hunts
                                                        # every warning

   Exit codes: 0 all checks pass, 1 an --expect-clean / --expect /
   --confirm assertion failed, 2 usage errors (unknown workload, no IR
   lift, bad expectation spec). *)

module Config = Midway.Config
module Explore = Midway_explore.Explore
module Workload = Midway_explore.Workload
module Analyze = Midway_analyze.Analyze
module Ir = Midway_analyze.Ir

module Cli = Midway_cli.Cli

(* NAME=CLASS expectation specs *)
let parse_expect specs =
  List.map
    (fun s ->
      match String.index_opt s '=' with
      | Some i when i > 0 && i < String.length s - 1 ->
          (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
      | _ ->
          Printf.eprintf "--expect wants NAME=CLASS, got %S\n" s;
          exit 2)
    specs

let ir_of (w : Workload.t) ~nprocs =
  match w.Workload.ir with
  | Some lift -> lift ~nprocs
  | None ->
      Printf.eprintf "workload %s has no EC-IR lift (crash plans and applications are beyond \
                      the IR); pick one of the synthetic workloads or ecgen:SEED\n"
        w.Workload.name;
      exit 2

let has_class report slug =
  List.exists (fun f -> Analyze.class_slug f.Analyze.cls = slug) report.Analyze.warnings

let run apps_csv nprocs dump_ir expect_clean expect_specs confirm schedules schedule_seed
    backends_csv =
  let workloads = Cli.parse_names Explore.workload_of_name apps_csv in
  let expects = parse_expect expect_specs in
  List.iter
    (fun (name, _) ->
      if not (List.exists (fun (w : Workload.t) -> w.Workload.name = name) workloads) then begin
        Printf.eprintf "--expect names %S, which is not in --apps\n" name;
        exit 2
      end)
    expects;
  let backends = Cli.parse_names Config.backend_of_string backends_csv in
  let failed = ref false in
  let fail fmt = Printf.ksprintf (fun s -> print_endline s; failed := true) fmt in
  List.iter
    (fun (w : Workload.t) ->
      let ir = ir_of w ~nprocs in
      if dump_ir then print_string (Ir.pp ir);
      let report = Analyze.analyze ir in
      print_string (Analyze.render report);
      if expect_clean && report.Analyze.warnings <> [] then
        fail "EXPECT-CLEAN FAILED: %s has %d static warning(s)" w.Workload.name
          (List.length report.Analyze.warnings);
      List.iter
        (fun (name, slug) ->
          if name = w.Workload.name then
            if has_class report slug then
              Printf.printf "expect ok: %s statically flagged as [%s] with zero runs\n" name slug
            else fail "EXPECT FAILED: %s has no static [%s] warning" name slug)
        expects;
      if confirm && report.Analyze.warnings <> [] then begin
        match Explore.confirm_static ~backends ~schedules ~schedule_seed ~nprocs w with
        | None -> ()
        | Some (_, confirmations) ->
            List.iter
              (fun c ->
                print_endline (Explore.render_confirmation c);
                if c.Explore.cf_confirmed = None then
                  fail "CONFIRM FAILED: %s warning [%s] was not realized by any schedule"
                    w.Workload.name
                    (Analyze.class_slug c.Explore.cf_finding.Analyze.cls))
              confirmations
      end)
    workloads;
  if !failed then 1 else 0

open Cmdliner

let apps =
  Arg.(
    value
    & opt string "counter,readers-writer,mix,order-sensitive,racy,deadlocky,ecgen:1"
    & info [ "apps"; "a" ] ~docv:"NAMES"
        ~doc:
          "Comma-separated workloads to analyze (any with an EC-IR lift: the synthetic \
           workloads, deadlocky, ecgen:SEED, ecgen-buggy:SEED).")

let nprocs = Cli.nprocs 4

let dump_ir =
  Arg.(value & flag & info [ "dump-ir" ] ~doc:"Print each workload's EC-IR before its report.")

let expect_clean =
  Arg.(
    value & flag
    & info [ "expect-clean" ]
        ~doc:"Exit 1 if any analyzed workload has a static warning (lints are allowed).")

let expect =
  Arg.(
    value & opt_all string []
    & info [ "expect" ] ~docv:"NAME=CLASS"
        ~doc:
          "Assert — with zero executions — that workload NAME's static warnings include \
           class CLASS (e.g. $(i,racy=unsynchronized-access), $(i,deadlocky=lock-cycle)).  \
           Repeatable.  With $(b,--confirm), the warnings must also be dynamically realized.")

let confirm =
  Arg.(
    value & flag
    & info [ "confirm" ]
        ~doc:
          "Hand every static warning to the schedule explorer as a hunt target; exit 1 if \
           any warning is not realized by some execution (CONFIRMED vs unconfirmed).")

let schedules = Cli.schedules ~doc:"Schedule seeds per backend in a --confirm hunt." 6

let schedule_seed =
  Arg.(value & opt int 1 & info [ "schedule-seed" ] ~docv:"SEED" ~doc:"Base schedule seed.")

let backends =
  Arg.(
    value & opt string "rt,vm"
    & info [ "backends"; "b" ] ~docv:"LIST" ~doc:"Backends a --confirm hunt sweeps.")

let cmd =
  let doc = "static entry-consistency analysis (ECLint) over the EC-IR" in
  Cmd.v
    (Cmd.info "midway-analyze" ~doc)
    Term.(
      const run $ apps $ nprocs $ dump_ir $ expect_clean $ expect $ confirm $ schedules
      $ schedule_seed $ backends)

let () = exit (Cmd.eval' cmd)
