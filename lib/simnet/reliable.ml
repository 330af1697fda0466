type config = { timeout_ns : int; backoff_cap_ns : int; max_attempts : int }

let default_config = { timeout_ns = 1_000_000; backoff_cap_ns = 16_000_000; max_attempts = 20 }

type t = {
  cfg : config;
  net : Net.t;
  seqs : int array;  (* next sequence number per (src, dst) link *)
  mutable unacked : int;
}

type suspicion = {
  s_kind : Net.kind;
  s_src : int;
  s_dst : int;
  s_seq : int;
  s_attempts : int;
  s_elapsed_ns : int;  (** virtual time burned before giving up *)
}

exception Exhausted of string

exception Suspected of suspicion

let create ?(config = default_config) net =
  if config.timeout_ns <= 0 then invalid_arg "Reliable.create: timeout must be positive";
  if config.backoff_cap_ns < config.timeout_ns then
    invalid_arg "Reliable.create: backoff cap below the initial timeout";
  if config.max_attempts < 1 then invalid_arg "Reliable.create: need at least one attempt";
  let n = Net.nprocs net in
  { cfg = config; net; seqs = Array.make (n * n) 0; unacked = 0 }

type delivery = {
  seq : int;
  delivered_at : int;
  acked_at : int;
  retransmits : int;
  drops_seen : int;
  dups_suppressed : int;
  backoff_ns : int;
}

let local_delivery at =
  {
    seq = -1;
    delivered_at = at;
    acked_at = at;
    retransmits = 0;
    drops_seen = 0;
    dups_suppressed = 0;
    backoff_ns = 0;
  }

let send ?(overhead_bytes = 0) t ~kind ~src ~dst ~payload_bytes ~at =
  if src = dst then local_delivery at
  else begin
    let ch = (src * Net.nprocs t.net) + dst in
    let seq = t.seqs.(ch) in
    t.seqs.(ch) <- seq + 1;
    t.unacked <- t.unacked + 1;
    let timeout = ref t.cfg.timeout_ns in
    let drops = ref 0 and dups = ref 0 and backoff = ref 0 in
    let delivered = ref None in
    let acked = ref None in
    let attempts = ref 0 in
    let send_at = ref at in
    (* One copy reaches the receiver: a fresh sequence number is
       delivered to the application, a repeat is suppressed; either way
       the receiver (re-)acks, since the original ack may have died. *)
    let receive d =
      (match !delivered with
      | None -> delivered := Some d
      | Some _ -> incr dups);
      match Net.send t.net ~kind:Net.Ack ~src:dst ~dst:src ~payload_bytes:0 ~at:d with
      | Net.Delivered a | Net.Duplicated (a, _) -> Some a
      | Net.Dropped ->
          incr drops;
          None
    in
    while !acked = None do
      if !attempts >= t.cfg.max_attempts then begin
        t.unacked <- t.unacked - 1;
        let elapsed_ns = !send_at - at in
        (* Either end down in the fabric's crash plan explains the
           exhaustion as a crash fault, a failure-detector event the
           recovery protocol reacts to: a dead receiver never acks, and
           a sender that crashed mid-episode stops retransmitting (its
           remaining copies drop at the network).  The caller tells the
           cases apart from the plan — a dead source means the caller
           itself is the crash. *)
        if Net.is_down t.net ~proc:dst ~at:!send_at || Net.is_down t.net ~proc:src ~at:!send_at
        then
          raise
            (Suspected
               {
                 s_kind = kind;
                 s_src = src;
                 s_dst = dst;
                 s_seq = seq;
                 s_attempts = !attempts;
                 s_elapsed_ns = elapsed_ns;
               })
        else
          raise
            (Exhausted
               (Printf.sprintf
                  "Reliable.send: exhausted {kind=%s; src=p%d; dst=p%d; seq=%d; attempts=%d; \
                   elapsed_ns=%d}"
                  (Net.kind_name kind) src dst seq !attempts elapsed_ns))
      end;
      incr attempts;
      let ack =
        match
          Net.send ~overhead_bytes t.net ~kind ~src ~dst ~payload_bytes ~at:!send_at
        with
        | Net.Dropped ->
            incr drops;
            None
        | Net.Delivered d -> receive d
        | Net.Duplicated (d1, d2) ->
            let a1 = receive d1 in
            let a2 = receive d2 in
            (match (a1, a2) with
            | Some x, Some y -> Some (min x y)
            | (Some _ as a), None | None, (Some _ as a) -> a
            | None, None -> None)
      in
      match ack with
      | Some a -> acked := Some a
      | None ->
          (* nothing came back: time out and retransmit with backoff *)
          backoff := !backoff + !timeout;
          send_at := !send_at + !timeout;
          timeout := min (2 * !timeout) t.cfg.backoff_cap_ns
    done;
    t.unacked <- t.unacked - 1;
    {
      seq;
      delivered_at = Option.get !delivered;
      acked_at = Option.get !acked;
      retransmits = !attempts - 1;
      drops_seen = !drops;
      dups_suppressed = !dups;
      backoff_ns = !backoff;
    }
  end

let unacked t = t.unacked

let next_seq t ~src ~dst = t.seqs.((src * Net.nprocs t.net) + dst)
