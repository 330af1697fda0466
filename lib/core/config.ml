type backend = Rt | Vm | Blast | Twin | Vm_fine | Standalone

let backend_name = function
  | Rt -> "rt"
  | Vm -> "vm"
  | Blast -> "blast"
  | Twin -> "twin"
  | Vm_fine -> "vm-fine"
  | Standalone -> "standalone"

let backend_names = [ "rt"; "vm"; "blast"; "twin"; "vm-fine"; "standalone" ]

(* THE backend parser: every binary (midway_run, experiments,
   midway_fuzz, midway_kv) routes backend names through here, with no
   local trimming or case-folding, so whitespace and case drift are
   rejected identically everywhere.  A name that would parse after
   normalization gets a did-you-mean hint instead of a bare failure. *)
let backend_of_string s =
  let exact = function
    | "rt" -> Some Rt
    | "vm" -> Some Vm
    | "blast" -> Some Blast
    | "twin" -> Some Twin
    | "vm-fine" | "vmfine" -> Some Vm_fine
    | "standalone" | "uni" -> Some Standalone
    | _ -> None
  in
  match exact s with
  | Some b -> Ok b
  | None -> (
      let valid = String.concat "|" backend_names in
      let norm = String.lowercase_ascii (String.trim s) in
      match exact norm with
      | Some _ when norm <> s ->
          Error
            (Printf.sprintf
               "unknown backend %S: names are matched exactly, did you mean %S? (valid: %s)" s
               norm valid)
      | _ -> Error (Printf.sprintf "unknown backend %S (valid: %s)" s valid))

type rt_mode = Plain | Two_level | Update_queue

let rt_mode_name = function
  | Plain -> "plain"
  | Two_level -> "two-level"
  | Update_queue -> "update-queue"

type crash = { plan : Midway_simnet.Crash.plan; broken_failover : bool }

type t = {
  backend : backend;
  nprocs : int;
  cost : Midway_stats.Cost_model.t;
  region_size : int;
  untargetted : bool;
  rt_mode : rt_mode;
  update_log_window : int;
  trace_capacity : int;
  seed : int;
  sched_policy : Midway_sched.Engine.policy;
  ecsan : bool;
  faults : Midway_simnet.Net.fault_policy option;
  crash : crash option;
  obs : bool;
  adaptive : bool;
}

let make ?(cost = Midway_stats.Cost_model.default) backend ~nprocs =
  if nprocs <= 0 then invalid_arg "Config.make: nprocs must be positive";
  {
    backend;
    nprocs;
    cost;
    region_size = 16 * 1024 * 1024;
    untargetted = false;
    rt_mode = Plain;
    update_log_window = 16;
    trace_capacity = 0;
    seed = 0x5EED;
    sched_policy = Midway_sched.Engine.Fifo;
    ecsan = false;
    faults = None;
    crash = None;
    obs = false;
    adaptive = false;
  }

let with_schedule_seed seed cfg = { cfg with sched_policy = Midway_sched.Engine.Seeded seed }

let with_replay choices cfg = { cfg with sched_policy = Midway_sched.Engine.Replay choices }

let with_faults ?duplicate ?jitter_ns ?seed ~drop cfg =
  let seed = Option.value seed ~default:cfg.seed in
  { cfg with faults = Some (Midway_simnet.Net.uniform_faults ?duplicate ?jitter_ns ~seed ~drop ()) }

let with_crash ?(broken = false) plan cfg =
  { cfg with crash = Some { plan; broken_failover = broken } }
