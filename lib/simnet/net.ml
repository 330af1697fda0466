type kind =
  | Lock_request
  | Lock_reply
  | Barrier_arrive
  | Barrier_release
  | Ack
  | Replicate
  | Vote
  | Vote_reply

let kind_name = function
  | Lock_request -> "lock-request"
  | Lock_reply -> "lock-reply"
  | Barrier_arrive -> "barrier-arrive"
  | Barrier_release -> "barrier-release"
  | Ack -> "ack"
  | Replicate -> "replicate"
  | Vote -> "vote"
  | Vote_reply -> "vote-reply"

let kind_index = function
  | Lock_request -> 0
  | Lock_reply -> 1
  | Barrier_arrive -> 2
  | Barrier_release -> 3
  | Ack -> 4
  | Replicate -> 5
  | Vote -> 6
  | Vote_reply -> 7

let nkinds = 8

type fault_link = { drop : float; duplicate : float; jitter_ns : int }

type fault_policy = { link : fault_link; fault_seed : int }

(* A [fault_link] with a probability outside [0, 1] would silently
   misbehave: the PRNG draw is compared raw, so drop = 1.5 behaves like
   certain loss and drop = -0.1 like none, with no hint the policy is
   nonsense.  Validate the link at policy-construction time and name
   the offending field. *)
let validate_fault_policy policy =
  let l = policy.link in
  let bad field v =
    invalid_arg (Printf.sprintf "Net.fault_policy: link.%s = %g outside [0, 1]" field v)
  in
  if l.drop < 0.0 || l.drop > 1.0 then bad "drop" l.drop;
  if l.duplicate < 0.0 || l.duplicate > 1.0 then bad "duplicate" l.duplicate;
  if l.jitter_ns < 0 then
    invalid_arg (Printf.sprintf "Net.fault_policy: link.jitter_ns = %d is negative" l.jitter_ns);
  policy

let uniform_faults ?(duplicate = 0.0) ?(jitter_ns = 0) ?(seed = 42) ~drop () =
  validate_fault_policy { link = { drop; duplicate; jitter_ns }; fault_seed = seed }

type fault_state = {
  policy : fault_policy;
  prng : Midway_util.Prng.t;
  mutable drops : int;
  mutable dups : int;
}

let latency_ns = 150_000

let ns_per_byte = 57

let header_bytes = 64

type t = {
  nprocs : int;
  msgs_sent : int array;
  payload_sent : int array;
  payload_received : int array;
  by_kind : int array;
  mutable fault : fault_state option;
  (* Node-level faults: when set, a message from or to a processor the
     plan has down is destroyed deterministically (no PRNG draw),
     composing with the probabilistic hazards below. *)
  mutable crash : Crash.plan option;
  mutable crash_drops : int;
}

let create ~nprocs () =
  if nprocs <= 0 then invalid_arg "Net.create: nprocs must be positive";
  {
    nprocs;
    msgs_sent = Array.make nprocs 0;
    payload_sent = Array.make nprocs 0;
    payload_received = Array.make nprocs 0;
    by_kind = Array.make nkinds 0;
    fault = None;
    crash = None;
    crash_drops = 0;
  }

let set_fault_policy t policy =
  t.fault <-
    Some
      {
        policy = validate_fault_policy policy;
        prng = Midway_util.Prng.create ~seed:policy.fault_seed;
        drops = 0;
        dups = 0;
      }

let set_crash_plan t plan = t.crash <- Some plan

let is_down t ~proc ~at =
  match t.crash with None -> false | Some plan -> Crash.is_down plan ~proc ~at

let crash_drops_injected t = t.crash_drops

let nprocs t = t.nprocs

let transfer_ns ~payload_bytes = latency_ns + ((header_bytes + payload_bytes) * ns_per_byte)

type outcome = Delivered of int | Dropped | Duplicated of int * int

let delivery = function
  | Delivered at -> at
  | Duplicated (at, _) -> at
  | Dropped -> invalid_arg "Net.delivery: message was dropped"

(* Decide one copy's fate: a drop draw, then a duplication draw, then a
   jitter draw per arriving copy, always in that order so a fixed seed
   reproduces the exact injection sequence. *)
let inject f ~base ~echo_ns =
  let link = f.policy.link in
  let draw () = Midway_util.Prng.float f.prng 1.0 in
  let jitter () =
    if link.jitter_ns > 0 then Midway_util.Prng.int f.prng (link.jitter_ns + 1) else 0
  in
  if link.drop > 0.0 && draw () < link.drop then begin
    f.drops <- f.drops + 1;
    Dropped
  end
  else begin
    let dup = link.duplicate > 0.0 && draw () < link.duplicate in
    let first = base + jitter () in
    if dup then begin
      f.dups <- f.dups + 1;
      (* the echo trails the original by one switch latency (plus jitter) *)
      let second = first + echo_ns + jitter () in
      Duplicated (first, second)
    end
    else Delivered first
  end

let check_send t ~src ~dst ~payload_bytes ~overhead_bytes =
  if src < 0 || src >= t.nprocs || dst < 0 || dst >= t.nprocs then
    invalid_arg "Net.send: processor out of range";
  if payload_bytes < 0 || overhead_bytes < 0 then invalid_arg "Net.send: negative payload"

(* A copy goes on the wire: count it; returns its undisturbed arrival. *)
let put_on_wire t ~kind ~src ~payload_bytes ~overhead_bytes ~at =
  t.msgs_sent.(src) <- t.msgs_sent.(src) + 1;
  t.payload_sent.(src) <- t.payload_sent.(src) + payload_bytes;
  t.by_kind.(kind_index kind) <- t.by_kind.(kind_index kind) + 1;
  at + transfer_ns ~payload_bytes:(payload_bytes + overhead_bytes)

let send ?(overhead_bytes = 0) t ~kind ~src ~dst ~payload_bytes ~at =
  check_send t ~src ~dst ~payload_bytes ~overhead_bytes;
  if src = dst then Delivered at
  else if is_down t ~proc:src ~at then begin
    (* a halted processor puts nothing on the wire *)
    t.crash_drops <- t.crash_drops + 1;
    Dropped
  end
  else begin
    let base = put_on_wire t ~kind ~src ~payload_bytes ~overhead_bytes ~at in
    let outcome =
      match t.fault with
      | None -> Delivered base
      | Some f -> inject f ~base ~echo_ns:latency_ns
    in
    (* a copy arriving at a down destination is destroyed in the NIC;
       each surviving copy is judged at its own arrival time, so an
       echo can outlive a recovery the original missed *)
    let outcome =
      match outcome with
      | Dropped -> Dropped
      | Delivered a ->
          if is_down t ~proc:dst ~at:a then begin
            t.crash_drops <- t.crash_drops + 1;
            Dropped
          end
          else outcome
      | Duplicated (a, b) -> (
          match (is_down t ~proc:dst ~at:a, is_down t ~proc:dst ~at:b) with
          | false, false -> outcome
          | false, true ->
              t.crash_drops <- t.crash_drops + 1;
              Delivered a
          | true, false ->
              t.crash_drops <- t.crash_drops + 1;
              Delivered b
          | true, true ->
              t.crash_drops <- t.crash_drops + 2;
              Dropped)
    in
    (match outcome with
    | Dropped -> ()
    | Delivered _ | Duplicated _ ->
        t.payload_received.(dst) <- t.payload_received.(dst) + payload_bytes);
    outcome
  end

let arrival t ~kind ~src ~dst ~payload_bytes ~overhead_bytes ~at =
  match (t.fault, t.crash) with
  | None, None when src <> dst ->
      check_send t ~src ~dst ~payload_bytes ~overhead_bytes;
      let a = put_on_wire t ~kind ~src ~payload_bytes ~overhead_bytes ~at in
      t.payload_received.(dst) <- t.payload_received.(dst) + payload_bytes;
      a
  | _ -> delivery (send ~overhead_bytes t ~kind ~src ~dst ~payload_bytes ~at)

let messages_sent t ~proc = t.msgs_sent.(proc)

let bytes_sent t ~proc = t.payload_sent.(proc)

let bytes_received t ~proc = t.payload_received.(proc)

let total_messages t = Array.fold_left ( + ) 0 t.msgs_sent

let total_payload_bytes t = Array.fold_left ( + ) 0 t.payload_sent

let messages_of_kind t kind = t.by_kind.(kind_index kind)

let drops_injected t = match t.fault with None -> 0 | Some f -> f.drops

let duplicates_injected t = match t.fault with None -> 0 | Some f -> f.dups
