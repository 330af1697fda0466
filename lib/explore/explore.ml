(* The schedule explorer: fuzz driver, counterexample shrinking and
   record/replay.

   One fuzzing run sweeps a grid of (workload x backend x schedule
   seed), optionally composed with fault injection (fault schedules x
   thread schedules).  Every run is judged by three independent checks:
   the workload's own sequential oracle, Runtime.check_invariants, and
   (when armed) the ECSan report.  A failing run's recorded tie-break
   choices are shrunk — binary search for the smallest failing prefix,
   then a pointwise zeroing pass — and the result is a counterexample
   that replays from the configuration alone. *)

module Config = Midway.Config
module R = Midway.Runtime
module Crash = Midway_simnet.Crash
module Engine = Midway_sched.Engine

(* ------------------------------------------------------------------ *)
(* Executing one run and judging it                                    *)

type judged = {
  j_failed : bool;
  j_reason : string;  (* "" when the run is clean *)
  j_digest : string;
  j_choices : int list option;  (* None when the machine was lost *)
  j_trace : string list;  (* tail of the protocol event log, oldest first *)
}

let trace_tail ?(n = 12) machine =
  match R.log machine with
  | None -> []
  | Some log -> List.map Midway_obs.Event.to_string (Midway_obs.Obs.tail log n)

(* Judge one execution: oracle, then structural invariants, then ECSan.
   All three verdicts are collected so the report shows every angle of
   a failure, not just the first.  The machine (when the workload kept
   one) rides along so [replay] can export its observability data. *)
let execute_machine (w : Workload.t) cfg =
  let o = w.Workload.run cfg in
  let reasons = ref [] in
  let add r = reasons := r :: !reasons in
  if not o.Workload.ok then
    add
      ("oracle: " ^ (if o.Workload.detail = "" then "verification failed" else o.Workload.detail));
  let choices, trace =
    match o.Workload.machine with
    | None -> (None, [])
    | Some m ->
        (match R.check_invariants m with
        | [] -> ()
        | l when o.Workload.ok ->
            (* invariant violations on an oracle-clean run are protocol
               bugs in their own right *)
            add ("invariants: " ^ String.concat "; " l)
        | _ -> ()  (* a deadlocked/failed run legitimately leaves state held *));
        if cfg.Config.ecsan then begin
          let rep = R.check_report m in
          if Midway_check.Report.has_violations rep then begin
            let lines = String.split_on_char '\n' (Midway_check.Report.render rep) in
            let head = List.filteri (fun i _ -> i < 3) lines in
            add ("ecsan: " ^ String.concat " | " head)
          end
        end;
        (Some (R.schedule_choices m), trace_tail m)
  in
  ( {
      j_failed = !reasons <> [];
      j_reason = String.concat "\n  " (List.rev !reasons);
      j_digest = o.Workload.digest;
      j_choices = choices;
      j_trace = trace;
    },
    o.Workload.machine )

let execute w cfg = fst (execute_machine w cfg)

(* ------------------------------------------------------------------ *)
(* Specifications and configurations                                   *)

type spec = {
  workloads : Workload.t list;
  backends : Config.backend list;
  schedules : int;  (* schedule seeds per (workload, backend) *)
  schedule_seed : int;  (* base seed; run i uses base + i *)
  nprocs : int;
  ecsan : bool;
  adaptive : bool;  (* arm per-region adaptive detection on rt/vm runs *)
  fault_drop : float option;  (* compose fault schedules with thread schedules *)
  fault_seed : int;
  crash_events : int;  (* seeded node-crash episodes per run; 0 = off *)
  crash_seed : int;
  crash_horizon_ns : int;  (* window the seeded episodes land in *)
  crash_plan : Crash.plan option;  (* explicit plan; overrides the seeded dimension *)
  trace_capacity : int;
  max_shrink_runs : int;  (* re-execution budget of one shrink *)
}

let default_spec =
  {
    workloads = [];
    backends = [ Config.Rt; Config.Vm ];
    schedules = 8;
    schedule_seed = 1;
    nprocs = 4;
    ecsan = true;
    adaptive = false;
    fault_drop = None;
    fault_seed = 0x0FA7;
    crash_events = 0;
    crash_seed = 0xC0DE;
    crash_horizon_ns = 2_000_000;
    crash_plan = None;
    trace_capacity = 64;
    max_shrink_runs = 48;
  }

(* The run's fault seed is derived from both spec seed and schedule
   seed, so the fault schedule varies together with the thread schedule
   and the pair is reproducible from the counterexample alone.  The
   crash seed gets the same treatment (with a different mixer so the
   two derived streams never coincide). *)
let effective_fault_seed spec sseed = spec.fault_seed lxor (sseed * 0x9E37)
let effective_crash_seed spec sseed = spec.crash_seed lxor (sseed * 0x6B43)

(* The crash plan for one run: an explicit plan wins; otherwise the
   seeded dimension (when armed) derives one per schedule seed, so
   crash schedules, fault schedules and thread schedules all vary
   together. *)
let crash_plan_for spec sseed =
  match spec.crash_plan with
  | Some _ as p -> p
  | None ->
      if spec.crash_events <= 0 then None
      else
        Some
          (Crash.seeded ~seed:(effective_crash_seed spec sseed) ~nprocs:spec.nprocs
             ~events:spec.crash_events ~horizon_ns:spec.crash_horizon_ns)

(* The adaptive dimension only applies where the controller is legal:
   a machine default of rt or vm (the per-region electable backends). *)
let adaptive_for spec backend =
  spec.adaptive && (backend = Config.Rt || backend = Config.Vm)

(* Every explorer run's configuration comes from here: the sweep,
   [confirm_static] and the counterexample parser call it, and both
   shrinkers vary one dimension of the failing run's, so a replay runs
   the configuration that failed.  [faults] is the drop rate and the
   fault seed. *)
let run_config backend ~nprocs ~ecsan ~adaptive ~trace_capacity ~faults ~crash policy =
  let cfg =
    {
      (Config.make backend ~nprocs) with
      Config.ecsan;
      adaptive;
      trace_capacity;
      sched_policy = policy;
    }
  in
  let cfg =
    match faults with None -> cfg | Some (drop, seed) -> Config.with_faults ~drop ~seed cfg
  in
  match crash with None -> cfg | Some plan -> Config.with_crash plan cfg

(* ------------------------------------------------------------------ *)
(* Counterexamples and shrinking                                       *)

type counterexample = {
  c_workload : string;
  c_config : Config.t;
      (* the failing run's, with the (possibly shrunk) crash plan; its
         schedule policy replays the shrunk choices when they reproduced *)
  c_schedule_seed : int;
  c_choices : int list option;  (* as recorded by the failing run *)
  c_reason : string;
  c_shrink_runs : int;
  c_trace : string list;
}

let shrunk c =
  match c.c_config.Config.sched_policy with
  | Engine.Replay l -> Some l
  | Engine.Fifo | Engine.Seeded _ -> None

let take n l = List.filteri (fun i _ -> i < n) l

(* Shrink a failing choice list under a replay oracle.  [fails] must
   re-execute the run with the given replay list and report whether it
   still fails.  Greedy prefix trim by binary search (replay lists are
   tails-off-FIFO: an exhausted list falls back to choice 0), then a
   pointwise zeroing pass.  Prefix failure need not be monotone, so the
   search only guarantees a verified-failing local minimum — which is
   what a counterexample needs. *)
let shrink ~budget ~fails choices =
  let runs = ref 0 in
  let try_fails l =
    if !runs >= budget then false
    else begin
      incr runs;
      fails l
    end
  in
  if not (try_fails choices) then (None, !runs)
  else begin
    let best = ref choices in
    (* smallest failing prefix: lo passes, hi fails *)
    if try_fails [] then best := []
    else begin
      let lo = ref 0 and hi = ref (List.length choices) in
      while !hi - !lo > 1 && !runs < budget do
        let mid = (!lo + !hi) / 2 in
        if try_fails (take mid choices) then hi := mid else lo := mid
      done;
      best := take !hi choices
    end;
    (* pointwise zeroing: a 0 replays as FIFO at that tie *)
    let arr = Array.of_list !best in
    Array.iteri
      (fun i c ->
        if c <> 0 && !runs < budget then begin
          let saved = arr.(i) in
          arr.(i) <- 0;
          if not (try_fails (Array.to_list arr)) then arr.(i) <- saved
        end)
      arr;
    (* drop trailing zeros: replay exhaustion is FIFO anyway *)
    let l = Array.to_list arr in
    let rec strip = function 0 :: rest -> strip rest | l -> l in
    (Some (List.rev (strip (List.rev l))), !runs)
  end

(* Shrink a failing crash plan by pointwise event deletion.  Removing
   an event can break a processor's Stop/Recover alternation
   ([Crash.scripted] rejects a Recover with no preceding Stop) — such
   candidates are skipped, not counted against the budget.  [fails]
   must re-execute the run under the candidate plan; because a changed
   plan changes all downstream timing, callers re-run the *seeded*
   schedule rather than replaying recorded choices.  Returns the
   minimal verified-failing plan (possibly the input) and the number of
   re-executions spent. *)
let shrink_crash ~budget ~fails plan =
  let runs = ref 0 in
  let best = ref (Crash.events plan) in
  let progress = ref true in
  (* deletion passes to a fixpoint: removing one event (say a Stop) can
     make another (its Recover) deletable on the next pass *)
  while !progress && !runs < budget do
    progress := false;
    let i = ref 0 in
    while !i < List.length !best && !runs < budget do
      let cand = List.filteri (fun j _ -> j <> !i) !best in
      match Crash.scripted cand with
      | exception Invalid_argument _ -> incr i
      | p ->
          incr runs;
          if fails p then begin
            best := Crash.events p;  (* same index now names the next event *)
            progress := true
          end
          else incr i
    done
  done;
  (Crash.scripted !best, !runs)

(* ------------------------------------------------------------------ *)
(* The sweep                                                           *)

type report = {
  total_runs : int;
  grid_points : int;  (* (workload, backend) combinations swept *)
  failures : counterexample list;
}

let null_progress _ = ()

(* Crashes are armed only on workloads whose oracle can tell a dead
   processor's missing work from a wrong answer. *)
let refuse_crashes (w : Workload.t) =
  Printf.sprintf
    "workload %s cannot run with crashes: its oracle counts a dead processor's missing work \
     as a wrong answer (crashes need crashy, crashy-broken or a kv workload)"
    w.Workload.name

let validate spec =
  if spec.crash_events <= 0 && spec.crash_plan = None then Ok ()
  else
    match List.find_opt (fun w -> not w.Workload.judges_crashes) spec.workloads with
    | None -> Ok ()
    | Some w -> Error (refuse_crashes w)

let run_spec ?(progress = null_progress) spec =
  Result.iter_error invalid_arg (validate spec);
  let total = ref 0 in
  let points = ref 0 in
  let failures = ref [] in
  List.iter
    (fun (w : Workload.t) ->
      List.iter
        (fun backend ->
          if w.Workload.supports backend then begin
            incr points;
            let found = ref false in
            let i = ref 0 in
            while (not !found) && !i < spec.schedules do
              let sseed = spec.schedule_seed + !i in
              incr i;
              let faults =
                Option.map (fun drop -> (drop, effective_fault_seed spec sseed)) spec.fault_drop
              in
              let cfg =
                run_config backend ~nprocs:spec.nprocs ~ecsan:spec.ecsan
                  ~adaptive:(adaptive_for spec backend) ~trace_capacity:spec.trace_capacity ~faults
                  ~crash:(crash_plan_for spec sseed) (Engine.Seeded sseed)
              in
              incr total;
              let j = execute w cfg in
              if j.j_failed then begin
                found := true;
                progress
                  (Printf.sprintf "FAIL %s/%s seed=%d: %s" w.Workload.name
                     (Config.backend_name backend) sseed j.j_reason);
                (* the crash dimension shrinks first: a smaller plan
                   changes all downstream timing, so it re-runs the
                   seeded schedule and invalidates recorded choices,
                   which are refreshed before the choice-list shrink *)
                let j, cfg, crash_runs =
                  match cfg.Config.crash with
                  | None -> (j, cfg, 0)
                  | Some { Config.plan = p; _ } when Crash.events p = [] -> (j, cfg, 0)
                  | Some { Config.plan = p; _ } ->
                      let fails q = (execute w (Config.with_crash q cfg)).j_failed in
                      let q, r = shrink_crash ~budget:(spec.max_shrink_runs / 2) ~fails p in
                      if Crash.events q = Crash.events p then (j, cfg, r)
                      else
                        let cfg = Config.with_crash q cfg in
                        (execute w cfg, cfg, r + 1)
                in
                let shrunk, runs =
                  match j.j_choices with
                  | None | Some [] -> (j.j_choices, 0)
                  | Some choices ->
                      let fails l = (execute w (Config.with_replay l cfg)).j_failed in
                      shrink ~budget:spec.max_shrink_runs ~fails choices
                in
                total := !total + crash_runs + runs;
                failures :=
                  {
                    c_workload = w.Workload.name;
                    c_config =
                      (match shrunk with Some l -> Config.with_replay l cfg | None -> cfg);
                    c_schedule_seed = sseed;
                    c_choices = j.j_choices;
                    c_reason = j.j_reason;
                    c_shrink_runs = crash_runs + runs;
                    c_trace = j.j_trace;
                  }
                  :: !failures
              end
            done;
            if not !found then
              progress
                (Printf.sprintf "ok   %s/%s (%d schedules)" w.Workload.name
                   (Config.backend_name backend) spec.schedules)
          end)
        spec.backends)
    spec.workloads;
  { total_runs = !total; grid_points = !points; failures = List.rev !failures }

(* ------------------------------------------------------------------ *)
(* Counterexample files: dump, parse, replay                           *)

let render_choices l = String.concat "," (List.map string_of_int l)

let header = "# midway-fuzz counterexample"

let render_counterexample c =
  let cfg = c.c_config in
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "%s" header;
  line "workload=%s" c.c_workload;
  line "backend=%s" (Config.backend_name cfg.Config.backend);
  line "nprocs=%d" cfg.Config.nprocs;
  line "ecsan=%b" cfg.Config.ecsan;
  if cfg.Config.adaptive then line "adaptive=true";
  (match cfg.Config.faults with
  | Some f ->
      line "fault-drop=%g" f.Midway_simnet.Net.link.Midway_simnet.Net.drop;
      line "fault-seed=%d" f.Midway_simnet.Net.fault_seed
  | None -> ());
  (match cfg.Config.crash with
  | Some cr -> line "crash=%s" (Crash.render cr.Config.plan)
  | None -> ());
  line "schedule-seed=%d" c.c_schedule_seed;
  (match (shrunk c, c.c_choices) with
  | Some l, _ | None, Some l -> line "choices=%s" (render_choices l)
  | None, None -> line "# choices unavailable (machine lost); replay by schedule seed");
  List.iter (fun r -> line "# reason: %s" r) (String.split_on_char '\n' c.c_reason);
  List.iter (fun t -> line "# trace: %s" t) c.c_trace;
  Buffer.contents b

let keys =
  [ "workload"; "backend"; "nprocs"; "ecsan"; "adaptive"; "fault-drop"; "fault-seed"; "crash";
    "schedule-seed"; "choices" ]

let parse_counterexample text =
  let ( let* ) = Result.bind in
  (* The key=value lines of the first counterexample (a dump may
     concatenate several), the last occurrence of a key first. *)
  let rec fields acc headers = function
    | [] -> Ok acc
    | raw :: rest -> (
        let line = String.trim raw in
        if line = header then if headers > 0 then Ok acc else fields acc 1 rest
        else if line = "" || line.[0] = '#' then fields acc headers rest
        else
          match String.index_opt line '=' with
          | None -> Error (Printf.sprintf "malformed line %S (expected key=value)" line)
          | Some i ->
              let key = String.sub line 0 i in
              let v = String.sub line (i + 1) (String.length line - i - 1) in
              if List.mem key keys then fields ((key, v) :: acc) headers rest
              else Error (Printf.sprintf "unknown key %S" key))
  in
  let* kvs = fields [] 0 (String.split_on_char '\n' text) in
  let value key conv ~default =
    match List.assoc_opt key kvs with
    | None -> Ok default
    | Some v -> (
        match conv v with
        | Some x -> Ok x
        | None -> Error (Printf.sprintf "bad value %S for %s" v key))
  in
  let some conv v = Option.map Option.some (conv v) in
  let* workload =
    match List.assoc_opt "workload" kvs with
    | Some w when w <> "" -> Ok w
    | _ -> Error "counterexample names no workload"
  in
  let* backend =
    match List.assoc_opt "backend" kvs with
    | None -> Ok Config.Rt
    | Some v -> Config.backend_of_string v
  in
  let* nprocs = value "nprocs" int_of_string_opt ~default:4 in
  let* ecsan = value "ecsan" bool_of_string_opt ~default:true in
  let* adaptive = value "adaptive" bool_of_string_opt ~default:false in
  let* drop = value "fault-drop" (some float_of_string_opt) ~default:None in
  let* fault_seed = value "fault-seed" (some int_of_string_opt) ~default:None in
  let* schedule_seed = value "schedule-seed" (some int_of_string_opt) ~default:None in
  let* choices =
    value "choices"
      (fun v ->
        if String.trim v = "" then Some (Some [])
        else
          let l =
            List.map (fun s -> int_of_string_opt (String.trim s)) (String.split_on_char ',' v)
          in
          if List.for_all (function Some c -> c >= 0 | None -> false) l then
            Some (Some (List.filter_map Fun.id l))
          else None)
      ~default:None
  in
  let* faults =
    match (drop, fault_seed) with
    | None, None -> Ok None
    | Some drop, Some seed -> Ok (Some (drop, seed))
    | _ -> Error "fault-drop and fault-seed go together"
  in
  let* crash =
    match List.assoc_opt "crash" kvs with
    | None -> Ok None
    (* a crash-armed counterexample whose event list shrank to empty:
       the layer stays armed (reliable routing, failure detection) with
       no scheduled crash *)
    | Some "" -> Ok (Some (Crash.scripted []))
    | Some spec -> Result.map Option.some (Crash.parse_spec ~nprocs spec)
  in
  let* policy =
    match (choices, schedule_seed) with
    | Some l, _ -> Ok (Engine.Replay l)
    | None, Some s -> Ok (Engine.Seeded s)
    | None, None -> Error "counterexample has neither schedule-seed nor choices"
  in
  match run_config backend ~nprocs ~ecsan ~adaptive ~trace_capacity:64 ~faults ~crash policy with
  | cfg -> Ok (workload, cfg)
  | exception Invalid_argument msg -> Error msg

(* The workload registry: how a counterexample (or a --apps flag) names
   its subject. *)
let workload_of_name ?(scale = 0.05) name =
  let prefixed prefix =
    if String.length name > String.length prefix
       && String.sub name 0 (String.length prefix) = prefix
    then
      int_of_string_opt
        (String.sub name (String.length prefix) (String.length name - String.length prefix))
    else None
  in
  match name with
  | "counter" -> Ok (Workload.counter ~iters:6)
  | "readers-writer" -> Ok (Workload.readers_writer ~iters:6)
  | "mix" -> Ok (Workload.mix ~groups:3 ~iters:6)
  | "order-sensitive" -> Ok Workload.order_sensitive
  | "racy" -> Ok Workload.racy
  | "deadlocky" -> Ok Workload.deadlocky
  | "crashy" -> Ok (Workload.crashy ~iters:6)
  | "crashy-broken" -> Ok (Workload.crashy_broken ~iters:6)
  | "kv" -> Ok (Kv_workload.workload ~name:"kv" Kv_workload.default)
  | "kv-migrate" ->
      Ok
        (Kv_workload.workload ~name:"kv-migrate"
           { Kv_workload.default with migrate_every = 10 })
  | "kv-broken-migration" ->
      (* read-only mix over a preloaded keyspace: the broken migration's
         dropped presence flags can never be repaired by a later put, so
         the refinement violation is deterministic on every schedule *)
      Ok
        (Kv_workload.workload ~name:"kv-broken-migration"
           {
             Kv_workload.default with
             ycsb = { Kv_workload.default.ycsb with mix = Ycsb.mix_c };
             migrate_every = 10;
             broken_migration = true;
           })
  | "kv-crashy" -> Ok (Kv_workload.crashy_workload ~name:"kv-crashy" Kv_workload.default)
  | _ -> (
      match prefixed "kv:" with
      | Some seed ->
          Ok
            (Kv_workload.workload
               ~name:(Printf.sprintf "kv:%d" seed)
               { Kv_workload.default with ycsb = { Kv_workload.default.ycsb with seed } })
      | None -> (
      match prefixed "ecgen:" with
      | Some seed -> Ok (Ecgen.workload ~seed ())
      | None -> (
          match prefixed "ecgen-buggy:" with
          | Some seed -> Ok (Ecgen.workload ~buggy:true ~seed ())
          | None -> (
              match Midway_report.Suite.app_of_string name with
              | Ok app -> Ok (Workload.app ~scale app)
              | Error _ ->
                  Error
                    (Printf.sprintf
                       "unknown workload %S (expected \
                        counter|readers-writer|mix|order-sensitive|racy|deadlocky|crashy|crashy-broken|kv|kv-migrate|kv-broken-migration|kv-crashy|kv:SEED|ecgen:SEED|ecgen-buggy:SEED|water|quicksort|matrix|sor|cholesky)"
                       name)))))

let clean_workloads () =
  [
    Workload.counter ~iters:6;
    Workload.readers_writer ~iters:6;
    Workload.mix ~groups:3 ~iters:6;
  ]

let crash_workloads () =
  Workload.crashy ~iters:6
  :: List.map
       (fun name -> match workload_of_name name with Ok w -> w | Error e -> failwith e)
       [ "kv"; "kv-migrate"; "kv-crashy" ]

let buggy_workloads () =
  [
    Workload.order_sensitive;
    Workload.racy;
    Workload.deadlocky;
    (match workload_of_name "kv-broken-migration" with Ok w -> w | Error e -> failwith e);
  ]

let replay ?scale ?trace_out ?metrics_out (name, (cfg : Config.t)) =
  let ( let* ) = Result.bind in
  let* w = workload_of_name ?scale name in
  let* () =
    if w.Workload.supports cfg.Config.backend then Ok ()
    else
      Error
        (Printf.sprintf "workload %s does not support backend %s" name
           (Config.backend_name cfg.Config.backend))
  in
  let* () =
    if cfg.Config.crash <> None && not w.Workload.judges_crashes then Error (refuse_crashes w)
    else Ok ()
  in
  let* () = R.validate cfg in
  (* Dumping a trace of the replayed (typically shrunk) schedule arms
     the observability layer; obs never perturbs the run, so the
     counterexample still reproduces. *)
  let cfg =
    if trace_out <> None || metrics_out <> None then { cfg with Config.obs = true } else cfg
  in
  let j, machine = execute_machine w cfg in
  (match Option.bind machine R.obs with
  | Some o ->
      let name = Printf.sprintf "%s/%s replay" name (Config.backend_name cfg.Config.backend) in
      (match trace_out with
      | Some file ->
          Midway_obs.Trace_export.write file
            (Midway_obs.Trace_export.to_json ~name (Midway_obs.Obs.spans o))
      | None -> ());
      (match metrics_out with
      | Some file ->
          Midway_obs.Trace_export.write file
            (Midway_obs.Metrics.to_json (Midway_obs.Metrics.snapshot (Midway_obs.Obs.metrics o)))
      | None -> ())
  | None -> ());
  Ok j

(* ------------------------------------------------------------------ *)
(* Static analysis x dynamic confirmation                              *)

module Analyze = Midway_analyze.Analyze

type confirmation = {
  cf_finding : Analyze.finding;
  cf_confirmed : (Config.backend * int) option;
  cf_runs : int;
}

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* Does one judged execution realize a static warning?  A may-race is
   realized when ECSan reports a violation of the same class (and the
   same sync object, when both name one); a lock cycle is realized by a
   deadlocked run. *)
let realizes (f : Analyze.finding) (j : judged) machine =
  match f.Analyze.cls with
  | Analyze.Lock_cycle -> j.j_failed && contains j.j_reason "deadlock"
  | Analyze.May_race d -> (
      match machine with
      | None -> false
      | Some m ->
          List.exists
            (fun (v : Midway_check.Diag.violation) ->
              v.Midway_check.Diag.cls = d
              && (f.Analyze.sync < 0 || v.Midway_check.Diag.sync < 0
                || v.Midway_check.Diag.sync = f.Analyze.sync))
            (R.check_report m).Midway_check.Report.violations)
  | Analyze.Hygiene _ -> false

(* Hunt each static warning across (backend x schedule seed) until some
   execution realizes it: PLAUSIBLE warnings become CONFIRMED, the rest
   stay unconfirmed with the spent run count — the static analyzer's
   precision, measured by the explorer.  ECSan is forced on (the
   may-race classes are its diagnoses). *)
let confirm_static ?(backends = [ Config.Rt; Config.Vm ]) ?(schedules = 6)
    ?(schedule_seed = 1) ?(nprocs = 4) (w : Workload.t) =
  match w.Workload.ir with
  | None -> None
  | Some lift ->
      let rep = Analyze.analyze (lift ~nprocs) in
      let confirm f =
        let runs = ref 0 in
        let hit = ref None in
        (try
           List.iter
             (fun backend ->
               if w.Workload.supports backend then
                 for i = 0 to schedules - 1 do
                   let sseed = schedule_seed + i in
                   let cfg =
                     run_config backend ~nprocs ~ecsan:true ~adaptive:false ~trace_capacity:64
                       ~faults:None ~crash:None (Engine.Seeded sseed)
                   in
                   incr runs;
                   let j, machine = execute_machine w cfg in
                   if realizes f j machine then begin
                     hit := Some (backend, sseed);
                     raise Exit
                   end
                 done)
             backends
         with Exit -> ());
        { cf_finding = f; cf_confirmed = !hit; cf_runs = !runs }
      in
      Some (rep, List.map confirm rep.Analyze.warnings)

let render_confirmation c =
  let f = c.cf_finding in
  match c.cf_confirmed with
  | Some (backend, sseed) ->
      Printf.sprintf "  CONFIRMED [%s] by %s seed=%d (%d run%s): %s"
        (Analyze.class_slug f.Analyze.cls) (Config.backend_name backend) sseed c.cf_runs
        (if c.cf_runs = 1 then "" else "s")
        f.Analyze.detail
  | None ->
      Printf.sprintf "  unconfirmed [%s] after %d runs (may be a false positive): %s"
        (Analyze.class_slug f.Analyze.cls) c.cf_runs f.Analyze.detail
