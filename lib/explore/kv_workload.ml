(* The sharded KV store as a schedule-explorer workload: simulated
   client processors drive a {!Midway_kv.Kvstore} with seeded YCSB
   streams, and the verdict is the refinement oracle — every run must
   linearize to the centralized dictionary.

   The program has three phases separated by a data-less barrier:
   load (each client seeds the buckets it initially owns), the open-loop
   client loop (with optional periodic bucket migrations), and a final
   converge (barrier + read sweep) so the host-side oracle reads
   committed, converged state — including after crashes, where the
   sweep forces failover of any bucket whose owner died. *)

module R = Midway.Runtime
module Config = Midway.Config
module Crash = Midway_simnet.Crash
module Kvstore = Midway_kv.Kvstore

type cfg = {
  ycsb : Ycsb.cfg;
  buckets : int;
  service_ns : int;
  preload : int;  (* keys [0, preload) start present with value 1_000_000 + key *)
  migrate_every : int;  (* client migrates a bucket after every k-th request; 0 = never *)
  broken_migration : bool;  (* migrations drop the presence flags (prey) *)
}

let default =
  {
    ycsb = { Ycsb.default with keys = 64; requests = 40; arrival = Ycsb.Poisson 4_000 };
    buckets = 8;
    service_ns = 300;
    preload = 32;
    migrate_every = 0;
    broken_migration = false;
  }

let preload_value k = 1_000_000 + k

(* Execute one client's stream with open-loop pacing: wait out the gap
   until the scheduled arrival (never ahead of it), then issue; when the
   server is behind, the request goes out immediately but its latency
   still counts from the schedule. *)
let run_stream ?(migrate_every = 0) ?(broken = false) c store stream =
  let base = R.now_ns c in
  let me = R.id c in
  Array.iter
    (fun (r : Ycsb.req) ->
      let sched = if r.Ycsb.r_sched_ns < 0 then R.now_ns c else base + r.Ycsb.r_sched_ns in
      if R.now_ns c < sched then R.work_ns c (sched - R.now_ns c);
      (match r.Ycsb.r_op with
      | Ycsb.Get k -> ignore (Kvstore.get c store ~sched_ns:sched k)
      | Ycsb.Put (k, v) -> Kvstore.put c store ~sched_ns:sched k v
      | Ycsb.Delete k -> Kvstore.delete c store ~sched_ns:sched k
      | Ycsb.Scan (lo, n) -> ignore (Kvstore.scan c store ~sched_ns:sched ~lo ~n ()));
      if migrate_every > 0 && (r.Ycsb.r_idx + 1) mod migrate_every = 0 then
        Kvstore.migrate ~broken c store ((me + r.Ycsb.r_idx) mod Kvstore.buckets store))
    stream

let build rt cfg =
  let store = Kvstore.create ~service_ns:cfg.service_ns rt ~keys:cfg.ycsb.Ycsb.keys
      ~buckets:cfg.buckets
  in
  let fin = R.new_barrier rt [] in
  let prog c =
    let me = R.id c in
    let n = R.nprocs c in
    (* load: client p seeds the buckets it initially owns *)
    let pairs = ref [] in
    for k = cfg.preload - 1 downto 0 do
      if Kvstore.bucket_of store k mod n = me then pairs := (k, preload_value k) :: !pairs
    done;
    Kvstore.load c store !pairs;
    R.barrier c fin;
    run_stream ~migrate_every:cfg.migrate_every ~broken:cfg.broken_migration c store
      (Ycsb.client_stream cfg.ycsb ~client:me);
    R.barrier c fin;
    Kvstore.read_sweep c store
  in
  (store, prog)

let outcome_of_store store =
  match Kvstore.check store with
  | [] -> (true, "", Kvstore.digest store)
  | viols ->
      let shown = List.filteri (fun i _ -> i < 8) viols in
      let detail =
        Printf.sprintf "refinement: %s%s" (String.concat "; " shown)
          (if List.length viols > 8 then Printf.sprintf " (+%d more)" (List.length viols - 8)
           else "")
      in
      (false, detail, Kvstore.digest store)

let workload ~name cfg =
  {
    Workload.name;
    judges_crashes = true;
    supports = Workload.lock_based;
    (* a full application over dynamic streams — beyond the EC-IR *)
    ir = None;
    run =
      (fun mcfg ->
        Workload.run_guarded mcfg (fun rt ->
            let store, prog = build rt cfg in
            (prog, fun () -> outcome_of_store store)));
  }

(* The crash-dimension variant: unless the incoming configuration
   already arms [Config.crash], inject a scripted plan killing client 1
   early in the run phase — with 3+ clients a majority quorum survives
   and the oracle exercises journal-gap recovery and post-crash
   failover reads. *)
let crashy_workload ~name cfg =
  {
    Workload.name;
    judges_crashes = true;
    supports = Workload.lock_based;
    ir = None;
    run =
      (fun mcfg ->
        let n = mcfg.Config.nprocs in
        if n < 3 then
          invalid_arg (name ^ " needs at least 3 processors (majority quorum with one down)");
        let mcfg =
          match mcfg.Config.crash with
          | Some _ -> mcfg
          | None ->
              Config.with_crash
                (Crash.scripted [ { Crash.at_ns = 60_000; proc = 1; action = Crash.Stop } ])
                mcfg
        in
        Workload.run_guarded mcfg (fun rt ->
            let store, prog = build rt cfg in
            (prog, fun () -> outcome_of_store store)));
  }
