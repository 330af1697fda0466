(* The protocol event log and the views computed from it.

   One log per machine, armed by Config.obs (every event) or
   Config.trace_capacity (the last N).  The Perfetto spans and the
   metrics registry are pure functions of the events, so a fact recorded
   once shows up consistently in every view. *)

type t = {
  capacity : int;  (* 0 = keep every event *)
  mutable ring : Event.t array;  (* valid slots: [start, start+size) mod length *)
  mutable start : int;
  mutable size : int;
  mutable total : int;
}

let create ?capacity () =
  let capacity =
    match capacity with
    | Some c when c <= 0 -> invalid_arg "Obs.create: capacity must be positive"
    | Some c -> c
    | None -> 0
  in
  { capacity; ring = [||]; start = 0; size = 0; total = 0 }

let record t e =
  t.total <- t.total + 1;
  let n = Array.length t.ring in
  if t.size < n then begin
    t.ring.((t.start + t.size) mod n) <- e;
    t.size <- t.size + 1
  end
  else if n = 0 || t.capacity = 0 then begin
    (* the first event allocates the ring, filled with itself; an
       unbounded log doubles it when full and never wraps, so its
       [start] stays 0 *)
    let ring = Array.make (if t.capacity > 0 then t.capacity else max 256 (2 * n)) e in
    Array.blit t.ring 0 ring 0 n;
    t.ring <- ring;
    t.size <- n + 1
  end
  else begin
    t.ring.(t.start) <- e;
    t.start <- (t.start + 1) mod n
  end

let length t = t.size
let total t = t.total

let tail t k =
  let k = max 0 (min k t.size) in
  let n = Array.length t.ring in
  List.init k (fun i -> t.ring.((t.start + t.size - k + i) mod n))

let events t = tail t t.size

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

type kind =
  | Acquire_wait
  | Barrier_wait
  | Collect
  | Diff
  | Apply
  | Retransmit
  | Sched_block
  | Failover
  | Request

let kind_name = function
  | Acquire_wait -> "lock_wait"
  | Barrier_wait -> "barrier_wait"
  | Collect -> "collect"
  | Diff -> "diff"
  | Apply -> "apply"
  | Retransmit -> "retransmit"
  | Sched_block -> "sched_block"
  | Failover -> "failover"
  | Request -> "kv_request"

type span = {
  kind : kind;
  proc : int;
  sync : int;
  bytes : int;
  t0 : int;
  t1 : int;
  note : string;
}

let span ?(sync = -1) ?(bytes = 0) ?(note = "") kind ~proc ~t0 ~t1 =
  { kind; proc; sync; bytes; t0; t1; note }

let spans_of : Event.t -> span list = function
  | Collect { proc; id; t0; ns; bytes; scan; _ } ->
      [
        span Collect ~proc ~sync:id ~bytes ~t0 ~t1:(t0 + ns);
        span Diff ~proc ~sync:id ~note:scan ~t0 ~t1:(t0 + ns);
      ]
  | Apply { proc; id; t0; ns; bytes; _ } -> [ span Apply ~proc ~sync:id ~bytes ~t0 ~t1:(t0 + ns) ]
  | Acquire_wait { proc; lock; t0; t1 } -> [ span Acquire_wait ~proc ~sync:lock ~t0 ~t1 ]
  | Barrier_wait { proc; barrier; t0; t1 } -> [ span Barrier_wait ~proc ~sync:barrier ~t0 ~t1 ]
  | Sched_block { proc; reason; t0; t1 } -> [ span Sched_block ~proc ~note:reason ~t0 ~t1 ]
  | Send_episode { src; dst; msg; seq; retransmits; bytes; t0; t1 } ->
      if retransmits = 0 then []
      else
        [
          span Retransmit ~proc:src ~bytes
            ~note:(Printf.sprintf "%s seq %d to p%d (%d retransmit(s))" msg seq dst retransmits)
            ~t0 ~t1;
        ]
  | Lock_failover { t0; t; lock; from_; to_; votes; _ } ->
      [
        span Failover ~proc:to_ ~sync:lock
          ~note:(Printf.sprintf "p%d suspected, %d vote(s)" from_ votes)
          ~t0 ~t1:(max t0 t);
      ]
  | Request { proc; lock; op; t0; t1 } -> [ span Request ~proc ~sync:lock ~note:op ~t0 ~t1 ]
  | Lock_requested _ | Lock_granted _ | Lock_local _ | Lock_released _ | Lock_rebound _
  | Barrier_arrived _ | Barrier_completed _ | Proc_crashed _ | Proc_recovered _ | Replicated _
  | No_quorum _ | Backend_switched _ ->
      []

let spans t = List.concat_map spans_of (events t)

let span_count t = List.length (spans t)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let observe m : Event.t -> unit =
  let per_sync proc sync id = Printf.sprintf "p%d/%s%d" proc (Event.sync_name sync) id in
  let count name label = Metrics.incr m ~name ~label 1 in
  function
  | Collect { proc; sync; id; ns; bytes; pages; dirty_bytes; _ } ->
      let label = per_sync proc sync id in
      Metrics.observe m ~name:"collect_ns" ~label ns;
      Metrics.observe m ~name:"transfer_bytes" ~label ~buckets:Metrics.bytes_buckets bytes;
      if pages > 0 then
        Metrics.observe m ~name:"diff_bytes_per_page" ~label:(Printf.sprintf "p%d" proc)
          ~buckets:Metrics.bytes_buckets (dirty_bytes / pages)
  | Apply { proc; sync; id; ns; _ } ->
      Metrics.observe m ~name:"apply_ns" ~label:(per_sync proc sync id) ns
  | Acquire_wait { proc; lock; t0; t1 } ->
      Metrics.observe m ~name:"acquire_latency_ns" ~label:(per_sync proc Lock lock) (t1 - t0)
  | Barrier_wait { proc; barrier; t0; t1 } ->
      Metrics.observe m ~name:"barrier_wait_ns" ~label:(per_sync proc Barrier barrier) (t1 - t0)
  | Send_episode { src; dst; retransmits; _ } ->
      let label = Printf.sprintf "p%d->p%d" src dst in
      Metrics.observe m ~name:"retransmits_per_send" ~label ~buckets:Metrics.count_buckets
        retransmits;
      count "reliable_sends" label
  | Replicated { proc; _ } -> count "replications" (Printf.sprintf "p%d" proc)
  | No_quorum { lock; _ } -> count "failover_no_quorum" (Printf.sprintf "lock%d" lock)
  | Lock_failover { lock; to_; _ } -> count "failovers" (per_sync to_ Lock lock)
  | Backend_switched { region; _ } -> count "backend_switches" (Printf.sprintf "region%d" region)
  | Proc_crashed { proc; _ } -> count "crash_stops" (Printf.sprintf "p%d" proc)
  | Proc_recovered { proc; _ } -> count "crash_recoveries" (Printf.sprintf "p%d" proc)
  | Lock_requested _ | Lock_granted _ | Lock_local _ | Lock_released _ | Lock_rebound _
  | Barrier_arrived _ | Barrier_completed _ | Sched_block _ | Request _ ->
      ()

let metrics t =
  let m = Metrics.create () in
  List.iter (observe m) (events t);
  m
