(* Host-time benchmark of the simulator.

     bench.exe --workload apps|kv|fuzz --seed N --seconds S --trace 0|1
               [--smoke] [--setup-only]

   Set-up generates the workload's inputs from the seed and runs one
   untimed warm-up pass on a cold heap; then the line "set-up done" is
   printed, so that run.py can time set-up from the process's start, and
   the host speed is sampled (calib.ml).  With --setup-only the program
   stops there.  With --trace 0, about S seconds of timed passes follow,
   and the end-to-end metrics are printed with host times scaled to a
   reference speed.  With --trace 1, one untraced pass is followed by one
   traced pass, the layer probes run at the workload's shape, the
   per-layer metrics are printed and the span log is written to
   .perfbench/trace-<workload>-<seed>.tsv.  Every pass checks every
   output; a failed check is counted, never fatal.  The last line of
   standard output is one JSON object, which always holds host.speed; the
   human-readable report goes to standard error.  See README.md in this
   directory. *)

module R = Midway.Runtime
module Config = Midway.Config
module Counters = Midway_stats.Counters
module Suite = Midway_report.Suite
module Outcome = Midway_apps.Outcome
module Kvstore = Midway_kv.Kvstore
module Ycsb = Midway_explore.Ycsb
module Explore = Midway_explore.Explore
module Workload = Midway_explore.Workload
module Space = Midway_memory.Space
module Region = Midway_memory.Region
module Net = Midway_simnet.Net

(* ------------------------------------------------------------------ *)
(* Output checks                                                        *)

let attempted = ref 0
let failed = ref 0

let check ok what =
  incr attempted;
  if not ok then begin
    incr failed;
    if !failed <= 20 then prerr_endline ("check failed: " ^ what)
  end

(* ------------------------------------------------------------------ *)
(* What a pass did, read from each machine after it ran                *)

type tally = {
  counters : Counters.t;  (* summed over every processor of every machine *)
  mutable sim_ns : int;
  mutable machines : int;
  mutable messages : int;
  mutable payload : int;
  mutable backings : int;  (* touched (region, processor) copies *)
  mutable provisioned : int;  (* their bytes *)
  mutable used : int;  (* Σ Region.used over the same copies *)
  mutable rt_scans : int;  (* RT collections: remote acquires + barrier crossings *)
  mutable rt_lines : int;
  mutable rt_dirty : int;
  mutable vm_pages : int;
  mutable vm_dirty_bytes : int;
}

let new_tally () =
  {
    counters = Counters.create ();
    sim_ns = 0;
    machines = 0;
    messages = 0;
    payload = 0;
    backings = 0;
    provisioned = 0;
    used = 0;
    rt_scans = 0;
    rt_lines = 0;
    rt_dirty = 0;
    vm_pages = 0;
    vm_dirty_bytes = 0;
  }

let account tally m =
  let per_proc = R.all_counters m in
  let total = Counters.total per_proc in
  Counters.add ~into:tally.counters total;
  tally.sim_ns <- tally.sim_ns + R.elapsed_ns m;
  tally.machines <- tally.machines + 1;
  let net = R.net m in
  tally.messages <- tally.messages + Net.total_messages net;
  tally.payload <- tally.payload + Net.total_payload_bytes net;
  let space = R.space m in
  List.iter
    (fun (r : Region.t) ->
      for p = 0 to Space.nprocs space - 1 do
        if Region.touched r ~proc:p then begin
          tally.backings <- tally.backings + 1;
          tally.provisioned <- tally.provisioned + r.Region.region_size;
          tally.used <- tally.used + r.Region.used
        end
      done)
    (Space.regions space);
  match (R.config m).Config.backend with
  | Config.Rt ->
      tally.rt_scans <- tally.rt_scans + total.lock_acquires_remote + total.barrier_crossings;
      tally.rt_lines <- tally.rt_lines + total.clean_dirtybits_read + total.dirty_dirtybits_read;
      tally.rt_dirty <- tally.rt_dirty + total.dirty_dirtybits_read
  | Config.Vm ->
      tally.vm_pages <- tally.vm_pages + total.pages_diffed;
      tally.vm_dirty_bytes <- tally.vm_dirty_bytes + total.dirty_bytes_found
  | _ -> ()

(* The simulated results a pass must reproduce exactly. *)
let fingerprint t = (t.sim_ns, t.messages, t.payload, t.counters)

(* ------------------------------------------------------------------ *)
(* Timed segments                                                       *)

(* A pass's wall time and allocation are the sums over its segments:
   the library calls and output checks.  Reading counts between them is
   the benchmark's own bookkeeping and stays outside. *)
type meter = { mutable ns : int; mutable words : float; mutable minor : float }

let segment meter f =
  let d0 = Probe.major_direct () in
  let m0 = Gc.minor_words () in
  let t0 = Span.now_ns () in
  let r = f () in
  let t1 = Span.now_ns () in
  let m1 = Gc.minor_words () in
  let d1 = Probe.major_direct () in
  meter.ns <- meter.ns + (t1 - t0);
  meter.minor <- meter.minor +. (m1 -. m0);
  meter.words <- meter.words +. (m1 -. m0) +. (d1 -. d0);
  r

(* The span log stays empty unless --trace 1 reserves room in it. *)
let tr = Span.create ()
(* Runs between segments: the GC event ring's poll in the traced pass,
   the host-speed sampler in the timed passes. *)
let between = ref ignore
let host = -1
let span_invariants = Span.name tr "verify.invariants"
let span_account = Span.name tr "bench.account"

(* Between segments: drain the GC event ring or sample the host speed,
   then read the finished machine's counts and drop it.  Its span keeps
   this bookkeeping apart from the layers' self times. *)
let bookkeep tally machine =
  let sp = Span.enter tr ~proc:host span_account in
  !between ();
  Option.iter (account tally) machine;
  Span.leave tr sp

let invariants m what =
  let sp = Span.enter tr ~proc:host span_invariants in
  let v = R.check_invariants m in
  Span.leave tr sp;
  check (v = []) (what ^ ": invariants: " ^ String.concat "; " v)

(* A workload after set-up: its passes close over the generated inputs. *)
type workload = {
  nprocs : int;
  nominal_pass_s : float;  (* a warm pass on the reference host (see README.md) *)
  pass : tally -> meter -> unit;
  ecsan_off_pass : (tally -> meter -> unit) option;
}

(* ------------------------------------------------------------------ *)
(* apps: the five paper applications on rt and vm                      *)

let apps_setup ~smoke ~seed =
  let nprocs = 8 in
  let scale app =
    if smoke then 0.05
    else match app with Suite.Sor | Suite.Matmul -> 0.5 | _ -> 1.0
  in
  let plan =
    List.concat_map
      (fun app ->
        List.map
          (fun backend ->
            let name =
              Printf.sprintf "apps.%s.%s" (Suite.app_name app) (Config.backend_name backend)
            in
            let cfg = { (Config.make backend ~nprocs) with Config.seed } in
            (app, scale app, cfg, name, Span.name tr name))
          [ Config.Rt; Config.Vm ])
      Suite.apps
  in
  let pass tally meter =
    List.iter
      (fun (app, scale, cfg, what, nm) ->
        let machine =
          segment meter (fun () ->
              let sp = Span.enter tr ~proc:host nm in
              let m =
                match Suite.run_app app cfg ~scale with
                | o ->
                    check o.Outcome.ok (what ^ ": oracle");
                    invariants o.Outcome.machine what;
                    Some o.Outcome.machine
                | exception e ->
                    check false (what ^ ": " ^ Printexc.to_string e);
                    None
              in
              Span.leave tr sp;
              m)
        in
        bookkeep tally machine)
      plan
  in
  { nprocs; nominal_pass_s = 6.0; pass; ecsan_off_pass = None }

(* ------------------------------------------------------------------ *)
(* kv: the sharded store under a closed-loop YCSB crud mix             *)

let kv_keys = 1024
let kv_buckets = 32
let kv_clients = 4
let kv_migrate_every = 50
let kv_ops = [ "get"; "put"; "delete"; "scan"; "migrate" ]
let ycsb_ns = ref 0

let kv_setup ~smoke ~seed =
  let requests = if smoke then 2_000 else 100_000 in
  (* the pass runs the same streams on rt and on vm *)
  let per_client = requests / 2 / kv_clients in
  let ycfg =
    {
      Ycsb.keys = kv_keys;
      requests = per_client;
      mix = Ycsb.mix_crud;
      dist = Ycsb.Zipfian 0.99;
      arrival = Ycsb.Closed;
      max_scan = 16;
      seed;
    }
  in
  let t0 = Span.now_ns () in
  let streams = Array.init kv_clients (fun client -> Ycsb.client_stream ycfg ~client) in
  ycsb_ns := Span.now_ns () - t0;
  let sp_barrier = Span.name tr "core.barrier" in
  let run_one backend tally meter =
    let b = Config.backend_name backend in
    let nm op = Span.name tr (Printf.sprintf "kv.%s.%s" b op) in
    let sp_get = nm "get" and sp_put = nm "put" and sp_delete = nm "delete" in
    let sp_scan = nm "scan" and sp_migrate = nm "migrate" and sp_load = nm "load" in
    let sp_sweep = nm "read_sweep" and sp_run = nm "run" and sp_oracle = nm "oracle" in
    let what = "kv/" ^ b in
    let machine =
      segment meter (fun () ->
          let sp = Span.enter tr ~proc:host sp_run in
          let m = R.create (Config.make backend ~nprocs:kv_clients) in
          let store = Kvstore.create ~service_ns:300 m ~keys:kv_keys ~buckets:kv_buckets in
          let fin = R.new_barrier m [] in
          let barrier c =
            let s = Span.enter tr ~proc:(R.id c) sp_barrier in
            R.barrier c fin;
            Span.leave tr s
          in
          let prog c =
            let me = R.id c in
            let pairs = ref [] in
            for k = (kv_keys / 2) - 1 downto 0 do
              if Kvstore.bucket_of store k mod kv_clients = me then
                pairs := (k, 1_000_000 + k) :: !pairs
            done;
            let s = Span.enter tr ~proc:me sp_load in
            Kvstore.load c store !pairs;
            Span.leave tr s;
            barrier c;
            Array.iter
              (fun (r : Ycsb.req) ->
                (match r.Ycsb.r_op with
                | Ycsb.Get k ->
                    let s = Span.enter tr ~proc:me sp_get in
                    ignore (Kvstore.get c store k);
                    Span.leave tr s
                | Ycsb.Put (k, v) ->
                    let s = Span.enter tr ~proc:me sp_put in
                    Kvstore.put c store k v;
                    Span.leave tr s
                | Ycsb.Delete k ->
                    let s = Span.enter tr ~proc:me sp_delete in
                    Kvstore.delete c store k;
                    Span.leave tr s
                | Ycsb.Scan (lo, n) ->
                    let s = Span.enter tr ~proc:me sp_scan in
                    ignore (Kvstore.scan c store ~lo ~n ());
                    Span.leave tr s);
                if (r.Ycsb.r_idx + 1) mod kv_migrate_every = 0 then begin
                  let s = Span.enter tr ~proc:me sp_migrate in
                  Kvstore.migrate c store ((me + r.Ycsb.r_idx) mod kv_buckets);
                  Span.leave tr s
                end)
              streams.(me);
            barrier c;
            let s = Span.enter tr ~proc:me sp_sweep in
            Kvstore.read_sweep c store;
            Span.leave tr s
          in
          let result =
            match R.run m prog with
            | () ->
                let so = Span.enter tr ~proc:host sp_oracle in
                let v = Kvstore.check store in
                Span.leave tr so;
                check (v = []) (what ^ ": refinement: " ^ String.concat "; " v);
                invariants m what;
                Some m
            | exception e ->
                check false (what ^ ": " ^ Printexc.to_string e);
                None
          in
          Span.leave tr sp;
          result)
    in
    bookkeep tally machine
  in
  let pass tally meter =
    run_one Config.Rt tally meter;
    run_one Config.Vm tally meter
  in
  { nprocs = kv_clients; nominal_pass_s = 0.7; pass; ecsan_off_pass = None }

(* ------------------------------------------------------------------ *)
(* fuzz: midway_fuzz's default clean grid under seeded schedules        *)

let fuzz_setup ~smoke ~seed =
  let nprocs = Explore.default_spec.Explore.nprocs in
  let schedules = if smoke then 1 else 16 in
  let base = 1 + (seed * schedules) in
  let workloads =
    Explore.clean_workloads () @ [ Midway_explore.Ecgen.workload ~seed:1 () ]
  in
  let sp_run = Span.name tr "explore.run" in
  let grid ~ecsan =
    List.concat_map
      (fun (w : Workload.t) ->
        List.concat_map
          (fun backend ->
            List.init schedules (fun i ->
                let cfg =
                  {
                    (Config.make backend ~nprocs) with
                    Config.ecsan;
                    trace_capacity = Explore.default_spec.Explore.trace_capacity;
                  }
                  |> Config.with_schedule_seed (base + i)
                in
                (w, cfg, Printf.sprintf "fuzz %s/%s seed=%d" w.Workload.name
                           (Config.backend_name backend) (base + i))))
          Explore.default_spec.Explore.backends)
      workloads
  in
  let run_grid runs tally meter =
    List.iter
      (fun ((w : Workload.t), cfg, what) ->
        let kept = ref None in
        let keep = { w with Workload.run = (fun cfg ->
                         let o = w.Workload.run cfg in
                         kept := o.Workload.machine;
                         o) }
        in
        segment meter (fun () ->
            let sp = Span.enter tr ~proc:host sp_run in
            (match Explore.execute keep cfg with
            | j -> check (not j.Explore.j_failed) (what ^ ": " ^ j.Explore.j_reason)
            | exception e -> check false (what ^ ": " ^ Printexc.to_string e));
            Span.leave tr sp);
        bookkeep tally !kept)
      runs
  in
  let on = grid ~ecsan:true and off = grid ~ecsan:false in
  { nprocs; nominal_pass_s = 2.9; pass = run_grid on; ecsan_off_pass = Some (run_grid off) }

(* ------------------------------------------------------------------ *)
(* Passes                                                               *)

type pass_result = {
  tally : tally;
  wall_ns : int;
  words : float;  (* minor words plus direct major allocation *)
  minor : float;
  sys_s : float;
}

let run_pass pass =
  let tally = new_tally () and meter = { ns = 0; words = 0.0; minor = 0.0 } in
  let sys0 = Span.sys_now () in
  pass tally meter;
  {
    tally;
    wall_ns = meter.ns;
    words = meter.words;
    minor = meter.minor;
    sys_s = Span.sys_now () -. sys0;
  }

let same_result ~reference r what =
  check (fingerprint r.tally = fingerprint reference.tally)
    (what ^ ": simulated results differ from the warm-up pass")

(* ------------------------------------------------------------------ *)
(* Host speed                                                           *)

let median = Probe.median

(* calib.exe (see calib.ml), run as a process of its own with the
   runtime's default settings for as long as this one needs samples. *)
type calib = { pid : int; ask : out_channel; answer : in_channel }

let calib_start () =
  let exe = Filename.concat (Filename.dirname Sys.executable_name) "calib.exe" in
  let env =
    Array.of_list
      (List.filter
         (fun v ->
           not (String.starts_with ~prefix:"OCAMLRUNPARAM=" v
                || String.starts_with ~prefix:"CAMLRUNPARAM=" v))
         (Array.to_list (Unix.environment ())))
  in
  let ask_r, ask_w = Unix.pipe ~cloexec:true () in
  let answer_r, answer_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process_env exe [| exe |] env ask_r answer_w Unix.stderr in
  Unix.close ask_r;
  Unix.close answer_w;
  { pid; ask = Unix.out_channel_of_descr ask_w; answer = Unix.in_channel_of_descr answer_r }

(* The host ns of one run of the reference work. *)
let calib_sample c =
  output_char c.ask '\n';
  flush c.ask;
  int_of_string (input_line c.answer)

let calib_stop c =
  close_out c.ask;
  close_in c.answer;
  match Unix.waitpid [] c.pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith "calib.exe failed"

(* The median sample on the reference host (see README.md): a host
   running at the reference speed reads a speed of 1. *)
let nominal_ns = 22_000_000.0

(* Reference speed ÷ measured speed, from a run's samples. *)
let slowdown samples = median (Array.of_list (List.map float_of_int samples)) /. nominal_ns

(* Host seconds at the reference speed.  The reference is user-mode code,
   so it scales only the user part of [wall]; the kernel's share ([sys],
   mostly first-touch of fresh backings) is taken as measured. *)
let at_reference ~slowdown ~wall ~sys =
  let sys = Float.min sys wall in
  sys +. ((wall -. sys) /. slowdown)

(* ------------------------------------------------------------------ *)
(* Output                                                               *)

let percentile a p =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let finite v = if Float.is_finite v then v else 0.0

let print_result metrics =
  List.iter (fun (k, v, u) -> Printf.eprintf "  %-28s %16.6f %s\n" k v u) metrics;
  let field (k, v, u) = Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" k (finite v) u in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0 && !attempted > 0) (max 1 !attempted) !failed
    (String.concat ", " (List.map field metrics))

(* The line that ends set-up on standard output, followed by the ns spent
   waiting on host-speed samples during set-up and the process's system
   CPU ns so far.  run.py times set-up from the process's start to this
   line, less that wait. *)
let set_up_done = "set-up done"

(* Where the traced pass's span log goes, relative to the checkout. *)
let trace_dir = ".perfbench"

let peak_heap_mb () = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * 8) /. 1e6

(* ------------------------------------------------------------------ *)
(* Per-layer metrics of the traced pass                                 *)

let layer_metrics ~workload ~w ~seed ~untraced ~traced ~ecsan_ratio ~summary =
  let s : Span.summary = summary in
  let t = traced.tally in
  let c = t.counters in
  let fi = float_of_int in
  let ratio a b = if b = 0 then 0.0 else fi a /. fi b in
  let by_name nm =
    match Hashtbl.find_opt tr.Span.names nm with
    | Some i -> (s.Span.name_self_ns.(i), s.Span.name_count.(i), Span.self_times tr s i)
    | None -> (0, 0, [||])
  in
  let self_s nm = let ns, _, _ = by_name nm in fi ns /. 1e9 in
  let self_ms nm = let ns, _, _ = by_name nm in fi ns /. 1e6 in
  let shape =
    {
      Probe.nprocs = w.nprocs;
      scan_lines = (if t.rt_scans = 0 then 1 else max 1 (t.rt_lines / t.rt_scans));
      dirty_ratio = ratio t.rt_dirty t.rt_lines;
      changed_bytes = (if t.vm_pages = 0 then 4096 else t.vm_dirty_bytes / t.vm_pages);
      payload_bytes = (if t.messages = 0 then 0 else t.payload / t.messages);
    }
  in
  let batches = 7 in
  let access = Probe.access ~batches in
  let backing = Probe.backing ~batches:5 in
  let core = Probe.core ~batches in
  let scan = Probe.scan ~batches shape in
  let fault = Probe.fault ~batches in
  let diff = Probe.diff ~batches shape in
  let switch = Probe.switch ~batches shape in
  let send = Probe.send ~batches shape in
  let cost name (p : Probe.cost) ~scale ~unit_ =
    [ (name ^ "_" ^ unit_, p.Probe.ns /. scale, unit_); (name ^ "_words", p.Probe.words, "words") ]
  in
  let kv =
    List.concat_map
      (fun b ->
        List.concat_map
          (fun op ->
            let _, n, selfs = by_name (Printf.sprintf "kv.%s.%s" b op) in
            let us = Array.map (fun ns -> fi ns /. 1e3) selfs in
            let pre = Printf.sprintf "kv.%s.%s" b op in
            [
              (pre ^ "_us", median us, "us");
              (pre ^ "_p99_us", percentile us 0.99, "us");
              (pre ^ "_n", fi n, "count");
            ])
          kv_ops)
      [ "rt"; "vm" ]
  in
  let runs_ms =
    let _, _, selfs = by_name "explore.run" in
    Array.map (fun ns -> fi ns /. 1e6) selfs
  in
  let apps =
    List.concat_map
      (fun app ->
        List.map
          (fun b ->
            let n = Printf.sprintf "apps.%s.%s" (Suite.app_name app) b in
            (n ^ "_s", self_s n, "s"))
          [ "rt"; "vm" ])
      Suite.apps
  in
  let metrics =
    [
      ("gc.minor_ms", fi s.Span.gc_minor_ns /. 1e6, "ms");
      ("gc.major_ms", fi s.Span.gc_major_ns /. 1e6, "ms");
      ("os.sys_ms", traced.sys_s *. 1e3, "ms");
      ("alloc.minor_mwords", traced.minor /. 1e6, "Mwords");
      ("alloc.major_mwords", (traced.words -. traced.minor) /. 1e6, "Mwords");
      ("memory.backings", fi t.backings, "count");
      ("memory.provisioned_mb", fi t.provisioned /. 1e6, "MB");
      ("memory.used_ratio", ratio t.used t.provisioned, "ratio");
    ]
    @ cost "memory.backing" backing ~scale:1e3 ~unit_:"us"
    @ cost "memory.access" access ~scale:1.0 ~unit_:"ns"
    @ cost "core.read" core.Probe.read ~scale:1.0 ~unit_:"ns"
    @ cost "core.rt.write" core.Probe.rt_write ~scale:1.0 ~unit_:"ns"
    @ cost "core.vm.write" core.Probe.vm_write ~scale:1.0 ~unit_:"ns"
    @ cost "core.private.write" core.Probe.private_write ~scale:1.0 ~unit_:"ns"
    @ [
        ("core.scan_ns_per_line", scan.Probe.ns, "ns");
        ("core.scan_words_per_line", scan.Probe.words, "words");
        ("core.stores_trapped", fi c.dirtybits_set, "count");
        ("core.lines_scanned", fi (c.clean_dirtybits_read + c.dirty_dirtybits_read), "count");
        ("core.scan_dirty_ratio", ratio t.rt_dirty t.rt_lines, "ratio");
        ("core.lines_applied", fi c.dirtybits_updated, "count");
        ("core.acquires_local", fi c.lock_acquires_local, "count");
        ("core.acquires_remote", fi c.lock_acquires_remote, "count");
        ("core.barrier_crossings", fi c.barrier_crossings, "count");
        ("vmem.write_faults", fi c.write_faults, "count");
        ("vmem.pages_diffed", fi c.pages_diffed, "count");
      ]
    @ cost "vmem.fault" fault ~scale:1e3 ~unit_:"us"
    @ [
        ("vmem.diff_us_per_page", diff.Probe.ns /. 1e3, "us");
        ("vmem.diff_words_per_page", diff.Probe.words, "words");
      ]
    @ cost "sched.switch" switch ~scale:1.0 ~unit_:"ns"
    @ [
        ("simnet.messages", fi t.messages, "count");
        ("simnet.payload_mb", fi t.payload /. 1e6, "MB");
      ]
    @ cost "simnet.send" send ~scale:1.0 ~unit_:"ns"
    @ kv
    @ [
        ("kv.oracle_ms", self_ms "kv.rt.oracle" +. self_ms "kv.vm.oracle", "ms");
        ("explore.ycsb_ms", fi !ycsb_ns /. 1e6, "ms");
        ("explore.run_ms", median runs_ms, "ms");
        ("explore.run_p90_ms", percentile runs_ms 0.90, "ms");
        ("check.ecsan_ratio", ecsan_ratio, "ratio");
      ]
    @ apps
    @ [
        ("verify.invariants_ms", self_ms "verify.invariants", "ms");
        ("trace.overhead_ratio", fi traced.wall_ns /. fi (max 1 untraced.wall_ns), "ratio");
      ]
  in
  let self_sum = Array.fold_left ( + ) 0 s.Span.name_self_ns in
  Printf.eprintf
    "traced pass: %.3f s in segments; self times %.3f s, of which bench.account %.3f ms and \
     unattributed (bench.pass, (client)) %.3f ms\n"
    (fi traced.wall_ns /. 1e9) (fi self_sum /. 1e9) (self_ms "bench.account")
    (self_ms "bench.pass"
     +. (fi s.Span.name_self_ns.(Array.length s.Span.by_name - 1) /. 1e6));
  let path = Filename.concat trace_dir (Printf.sprintf "trace-%s-%d.tsv" workload seed) in
  Span.write tr s ~path
    ~header:
      [
        ("workload", workload);
        ("seed", string_of_int seed);
        ("segments_ns", string_of_int traced.wall_ns);
      ];
  Printf.eprintf "span log written to %s\n" path;
  metrics

(* ------------------------------------------------------------------ *)
(* Main                                                                 *)

let usage =
  "bench.exe --workload apps|kv|fuzz --seed N --seconds S --trace 0|1 [--smoke] [--setup-only]"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let smoke = ref false and setup_only = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "apps, kv or fuzz");
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--seconds", Arg.Set_float seconds, "how long the timed passes run");
      ("--trace", Arg.Set_int trace, "1: one traced pass and the per-layer metrics");
      ("--smoke", Arg.Set smoke, "tiny sizes, for the benchmark's own test");
      ("--setup-only", Arg.Set setup_only, "stop after set-up and the host-speed sample");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let smoke = !smoke and seed = !seed in
  let w =
    match !workload with
    | "apps" -> apps_setup ~smoke ~seed
    | "kv" -> kv_setup ~smoke ~seed
    | "fuzz" -> fuzz_setup ~smoke ~seed
    | s ->
        Printf.eprintf "unknown workload %S\n%s\n" s usage;
        exit 2
  in
  let calib = calib_start () in
  (* Host-speed samples are spread through the work they scale: one
     before it, then one between machines whenever half a second has gone
     by since the last. *)
  let samples = ref [] and last = ref 0 and sampling_ns = ref 0 in
  let sample () =
    let t0 = Span.now_ns () in
    samples := calib_sample calib :: !samples;
    last := Span.now_ns ();
    sampling_ns := !sampling_ns + (!last - t0)
  in
  (* set-up ends with an untimed warm-up pass on a cold heap *)
  sample ();
  between := (fun () -> if Span.now_ns () - !last >= 500_000_000 then sample ());
  let reference = run_pass w.pass in
  (* run.py times set-up up to this line, less the time spent on samples,
     and scales it as [at_reference] does with this system time *)
  Printf.printf "%s %d %d\n%!" set_up_done !sampling_ns
    (Float.to_int (Span.sys_now () *. 1e9));
  sample ();
  let speed = 1.0 /. slowdown !samples in
  Printf.eprintf "%s: warm-up pass %.3f s, %d machines; host speed %.3f (%d samples)\n%!"
    !workload (float_of_int reference.wall_ns /. 1e9) reference.tally.machines speed
    (List.length !samples);
  let host_speed = ("host.speed", speed, "ratio") in
  if !setup_only then begin
    between := ignore;
    calib_stop calib;
    print_result [ host_speed ]
  end
  else if !trace = 0 then begin
    (* A fixed number of passes for a given --seconds, not a time limit:
       the heap peak grows a little with every pass, so the pass count
       must not depend on how fast the host happens to run. *)
    let passes =
      if smoke then 2 else max 1 (Float.to_int (Float.round (!seconds /. w.nominal_pass_s)))
    in
    (* Each pass is scaled by the host speed sampled while it ran. *)
    let walls = ref [] and scaled = ref [] and words = ref [] in
    for p = 1 to passes do
      samples := [];
      sample ();
      Gc.full_major ();
      let r = run_pass w.pass in
      same_result ~reference r !workload;
      let wall = float_of_int r.wall_ns /. 1e9 and slowdown = slowdown !samples in
      walls := wall :: !walls;
      scaled := at_reference ~slowdown ~wall ~sys:r.sys_s :: !scaled;
      words := r.words :: !words;
      Printf.eprintf "pass %d: %.3f s at host speed %.3f, %.3f s at the reference speed \
                      (%.3f s system; samples %s ms)\n%!"
        p wall (1.0 /. slowdown) (List.hd !scaled) r.sys_s
        (String.concat " "
           (List.rev_map (fun ns -> Printf.sprintf "%.1f" (float_of_int ns /. 1e6)) !samples))
    done;
    between := ignore;
    calib_stop calib;
    let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
    Printf.eprintf "%d timed passes: mean %.4f s, %.4f s at the reference speed\n" passes
      (mean !walls) (mean !scaled);
    print_result
      [
        ("wall_s", mean !scaled, "s");
        ("peak_heap_mb", peak_heap_mb (), "MB");
        ("alloc_mwords", median (Array.of_list !words) /. 1e6, "Mwords");
        ("sim_s", float_of_int reference.tally.sim_ns /. 1e9, "s");
        host_speed;
      ]
  end
  else begin
    between := ignore;
    calib_stop calib;
    Gc.full_major ();
    let untraced = run_pass w.pass in
    same_result ~reference untraced !workload;
    let root_name = Span.name tr "bench.pass" in
    Span.reserve tr (1 lsl 18);
    if not (Sys.file_exists trace_dir) then Sys.mkdir trace_dir 0o755;
    Gc.full_major ();
    let gc, poll, stop = Span.gc_start () in
    between := poll;
    tr.Span.on <- true;
    let root = Span.enter tr ~proc:host root_name in
    let traced = run_pass w.pass in
    Span.leave tr root;
    tr.Span.on <- false;
    stop ();
    between := ignore;
    check (gc.Span.lost = 0) (Printf.sprintf "runtime events lost: %d" gc.Span.lost);
    same_result ~reference traced (!workload ^ " (traced)");
    let summary = Span.analyse tr gc in
    let ecsan_ratio =
      match w.ecsan_off_pass with
      | None -> 0.0
      | Some p ->
          Gc.full_major ();
          let off = run_pass p in
          float_of_int untraced.wall_ns /. float_of_int (max 1 off.wall_ns)
    in
    print_result
      (layer_metrics ~workload:!workload ~w ~seed ~untraced ~traced ~ecsan_ratio ~summary
      @ [ host_speed ])
  end
