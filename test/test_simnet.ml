(* Tests for the interconnect model: transfer-time arithmetic, the
   fabric's message and payload totals, fault injection, node-crash
   plans and the reliable delivery channel built on top of it. *)

module Net = Midway_simnet.Net
module Reliable = Midway_simnet.Reliable
module Crash = Midway_simnet.Crash

let qtest = QCheck_alcotest.to_alcotest

let all_kinds =
  [ Net.Lock_request; Net.Lock_reply; Net.Barrier_arrive; Net.Barrier_release; Net.Ack;
    Net.Replicate; Net.Vote; Net.Vote_reply ]

let deliver net ?overhead_bytes ~kind ~src ~dst ~payload_bytes ~at () =
  Net.delivery (Net.send ?overhead_bytes net ~kind ~src ~dst ~payload_bytes ~at)

let test_transfer_time () =
  Alcotest.(check int) "empty message = latency + header"
    (150_000 + (64 * 57))
    (Net.transfer_ns ~payload_bytes:0);
  Alcotest.(check int) "1 KB payload"
    (150_000 + ((64 + 1024) * 57))
    (Net.transfer_ns ~payload_bytes:1024)

let test_send_accounting () =
  let net = Net.create ~nprocs:3 () in
  let t1 = deliver net ~kind:Net.Lock_request ~src:0 ~dst:1 ~payload_bytes:100 ~at:5 () in
  Alcotest.(check bool) "delivery after send" true (t1 > 5);
  ignore (Net.send net ~kind:Net.Lock_reply ~src:1 ~dst:0 ~payload_bytes:200 ~at:t1);
  Alcotest.(check int) "totals" 2 (Net.total_messages net);
  Alcotest.(check int) "total payload" 300 (Net.total_payload_bytes net);
  Alcotest.(check int) "kind counter" 1 (Net.messages_of_kind net Net.Lock_request);
  Alcotest.(check int) "the reply's kind counter" 1 (Net.messages_of_kind net Net.Lock_reply)

(* Pins the documented self-send contract: src = dst costs nothing,
   arrives instantly and updates no counter. *)
let test_self_send_free () =
  let net = Net.create ~nprocs:2 () in
  let t = deliver net ~kind:Net.Barrier_arrive ~src:1 ~dst:1 ~payload_bytes:4096 ~at:77 () in
  Alcotest.(check int) "no time" 77 t;
  Alcotest.(check int) "no message" 0 (Net.total_messages net);
  Alcotest.(check int) "no payload" 0 (Net.total_payload_bytes net)

(* ... and that fault injection never applies to self-sends: even under
   a certain-drop policy a message that does not cross the fabric
   arrives, and nothing is put on the wire. *)
let test_self_send_immune_to_faults () =
  let net = Net.create ~nprocs:2 () in
  Net.set_fault_policy net (Net.uniform_faults ~duplicate:1.0 ~drop:1.0 ());
  (match Net.send net ~kind:Net.Lock_reply ~src:0 ~dst:0 ~payload_bytes:64 ~at:9 with
  | Net.Delivered t -> Alcotest.(check int) "instant" 9 t
  | Net.Dropped | Net.Duplicated _ -> Alcotest.fail "self-send was faulted");
  Alcotest.(check int) "nothing on the wire" 0 (Net.total_messages net)

let test_overhead_excluded_from_accounting () =
  let net = Net.create ~nprocs:2 () in
  let t =
    deliver ~overhead_bytes:50 net ~kind:Net.Lock_reply ~src:0 ~dst:1 ~payload_bytes:10 ~at:0 ()
  in
  Alcotest.(check int) "wire time includes overhead" (Net.transfer_ns ~payload_bytes:60) t;
  Alcotest.(check int) "accounting excludes overhead" 10 (Net.total_payload_bytes net)

let test_validation () =
  let net = Net.create ~nprocs:2 () in
  Alcotest.check_raises "bad proc" (Invalid_argument "Net.send: processor out of range")
    (fun () -> ignore (Net.send net ~kind:Net.Lock_request ~src:0 ~dst:2 ~payload_bytes:0 ~at:0));
  Alcotest.check_raises "negative payload" (Invalid_argument "Net.send: negative payload")
    (fun () ->
      ignore (Net.send net ~kind:Net.Lock_request ~src:0 ~dst:1 ~payload_bytes:(-1) ~at:0))

let test_kind_names () =
  List.iter
    (fun k -> Alcotest.(check bool) "nonempty name" true (String.length (Net.kind_name k) > 0))
    all_kinds

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)
(* ------------------------------------------------------------------ *)

let outcome_tag = function
  | Net.Delivered t -> Printf.sprintf "D%d" t
  | Net.Dropped -> "X"
  | Net.Duplicated (a, b) -> Printf.sprintf "2[%d,%d]" a b

(* Same seed, same traffic => the exact same sequence of drops,
   duplicates and jittered arrival times. *)
let test_fault_determinism () =
  let run () =
    let net = Net.create ~nprocs:4 () in
    Net.set_fault_policy net (Net.uniform_faults ~duplicate:0.2 ~jitter_ns:5_000 ~seed:7 ~drop:0.3 ());
    List.init 200 (fun i ->
        outcome_tag
          (Net.send net ~kind:Net.Lock_reply ~src:(i mod 4) ~dst:((i + 1) mod 4)
             ~payload_bytes:(i * 13 mod 512) ~at:(i * 1000)))
  in
  Alcotest.(check (list string)) "identical fault schedule" (run ()) (run ())

let test_fault_seed_changes_schedule () =
  let run seed =
    let net = Net.create ~nprocs:2 () in
    Net.set_fault_policy net (Net.uniform_faults ~seed ~drop:0.5 ());
    List.init 100 (fun i ->
        outcome_tag (Net.send net ~kind:Net.Lock_reply ~src:0 ~dst:1 ~payload_bytes:0 ~at:i))
  in
  Alcotest.(check bool) "different seeds diverge" true (run 1 <> run 2)

let test_certain_drop () =
  let net = Net.create ~nprocs:2 () in
  Net.set_fault_policy net (Net.uniform_faults ~drop:1.0 ());
  for i = 0 to 9 do
    match Net.send net ~kind:Net.Lock_request ~src:0 ~dst:1 ~payload_bytes:8 ~at:i with
    | Net.Dropped -> ()
    | Net.Delivered _ | Net.Duplicated _ -> Alcotest.fail "drop=1.0 delivered a message"
  done;
  (* dropped copies still count as put on the wire *)
  Alcotest.(check int) "sent accounting" 10 (Net.total_messages net);
  Alcotest.(check int) "their payload" 80 (Net.total_payload_bytes net)

let test_certain_duplication () =
  let net = Net.create ~nprocs:2 () in
  Net.set_fault_policy net (Net.uniform_faults ~duplicate:1.0 ~drop:0.0 ());
  (match Net.send net ~kind:Net.Lock_reply ~src:0 ~dst:1 ~payload_bytes:100 ~at:0 with
  | Net.Duplicated (a, b) ->
      Alcotest.(check int) "first copy on time" (Net.transfer_ns ~payload_bytes:100) a;
      Alcotest.(check bool) "echo strictly later" true (b > a)
  | Net.Delivered _ | Net.Dropped -> Alcotest.fail "duplicate=1.0 did not duplicate");
  (* the switch's echo is not a second send *)
  Alcotest.(check int) "one copy on the wire" 1 (Net.total_messages net);
  Alcotest.(check int) "its payload counted once" 100 (Net.total_payload_bytes net)

(* An out-of-range probability would be compared raw against the PRNG
   draw and silently act like 0 or 1; construction must refuse it and
   name the offending field. *)
let test_fault_policy_validation () =
  Alcotest.check_raises "drop above one"
    (Invalid_argument "Net.fault_policy: link.drop = 1.5 outside [0, 1]")
    (fun () -> ignore (Net.uniform_faults ~drop:1.5 ()));
  Alcotest.check_raises "negative duplicate"
    (Invalid_argument "Net.fault_policy: link.duplicate = -0.25 outside [0, 1]")
    (fun () -> ignore (Net.uniform_faults ~duplicate:(-0.25) ~drop:0.0 ()));
  Alcotest.check_raises "negative jitter"
    (Invalid_argument "Net.fault_policy: link.jitter_ns = -5 is negative")
    (fun () -> ignore (Net.uniform_faults ~jitter_ns:(-5) ~drop:0.0 ()));
  (* arming a hand-built policy validates too *)
  let net = Net.create ~nprocs:2 () in
  Alcotest.check_raises "set_fault_policy validates"
    (Invalid_argument "Net.fault_policy: link.drop = -1 outside [0, 1]")
    (fun () ->
      Net.set_fault_policy net
        { Net.link = { Net.drop = -1.0; duplicate = 0.0; jitter_ns = 0 }; fault_seed = 1 });
  (* a valid policy passes through unchanged *)
  let p = Net.uniform_faults ~duplicate:1.0 ~drop:0.0 () in
  Alcotest.(check bool) "valid policy survives validation" true
    (Net.validate_fault_policy p == p)

let test_delivery_of_dropped_raises () =
  Alcotest.check_raises "delivery of Dropped"
    (Invalid_argument "Net.delivery: message was dropped")
    (fun () -> ignore (Net.delivery Net.Dropped))

(* ------------------------------------------------------------------ *)
(* Reliable channel                                                    *)
(* ------------------------------------------------------------------ *)

let test_reliable_faultless_passthrough () =
  let net = Net.create ~nprocs:2 () in
  let ch = Reliable.create net in
  let d = Reliable.send ch ~kind:Net.Lock_request ~src:0 ~dst:1 ~payload_bytes:32 ~at:10 in
  Alcotest.(check int) "delivered on the bare-fabric schedule"
    (Net.transfer_ns ~payload_bytes:32 + 10)
    d.Reliable.delivered_at;
  Alcotest.(check int) "single transmission" 1 (Net.messages_of_kind net Net.Lock_request);
  Alcotest.(check int) "no retransmit" 0 d.Reliable.retransmits;
  Alcotest.(check bool) "ack completes after delivery" true
    (d.Reliable.acked_at > d.Reliable.delivered_at);
  Alcotest.(check int) "nothing in flight" 0 (Reliable.unacked ch);
  Alcotest.(check int) "sequence advanced" 1 (Reliable.next_seq ch ~src:0 ~dst:1)

let test_reliable_self_send () =
  let net = Net.create ~nprocs:2 () in
  let ch = Reliable.create net in
  let d = Reliable.send ch ~kind:Net.Lock_request ~src:1 ~dst:1 ~payload_bytes:64 ~at:3 in
  Alcotest.(check int) "instant" 3 d.Reliable.delivered_at;
  Alcotest.(check int) "no wire traffic" 0 (Net.total_messages net);
  Alcotest.(check int) "no sequence number" (-1) d.Reliable.seq;
  Alcotest.(check int) "no sequence consumed" 0 (Reliable.next_seq ch ~src:1 ~dst:1)

let test_reliable_survives_drops () =
  let net = Net.create ~nprocs:2 () in
  Net.set_fault_policy net (Net.uniform_faults ~seed:11 ~drop:0.5 ());
  let ch = Reliable.create net in
  let retr = ref 0 and backoff = ref 0 in
  for i = 0 to 99 do
    let seq = Reliable.next_seq ch ~src:0 ~dst:1 in
    let d = Reliable.send ch ~kind:Net.Lock_reply ~src:0 ~dst:1 ~payload_bytes:128 ~at:(i * 10_000) in
    Alcotest.(check int) "the link's next sequence number" seq d.Reliable.seq;
    retr := !retr + d.Reliable.retransmits;
    backoff := !backoff + d.Reliable.backoff_ns;
    Alcotest.(check bool) "delivered at or after send" true
      (d.Reliable.delivered_at >= i * 10_000)
  done;
  Alcotest.(check bool) "a 50% loss rate forced retransmissions" true (!retr > 0);
  Alcotest.(check int) "every data copy was put on the wire" (100 + !retr)
    (Net.messages_of_kind net Net.Lock_reply);
  Alcotest.(check bool) "backoff time accumulated" true (!backoff > 0);
  Alcotest.(check int) "all acked" 0 (Reliable.unacked ch)

let test_reliable_suppresses_duplicates () =
  let net = Net.create ~nprocs:2 () in
  Net.set_fault_policy net (Net.uniform_faults ~duplicate:1.0 ~drop:0.0 ());
  let ch = Reliable.create net in
  let d = Reliable.send ch ~kind:Net.Lock_reply ~src:0 ~dst:1 ~payload_bytes:64 ~at:0 in
  Alcotest.(check int) "second copy suppressed" 1 d.Reliable.dups_suppressed;
  Alcotest.(check int) "payload put on the wire once" 64 (Net.total_payload_bytes net)

(* One event of a scripted crash plan: the outages below are plans. *)
let ev at_ns proc action = { Crash.at_ns; proc; action }

let test_reliable_backoff_doubles () =
  (* Every processor is down for the first 3.5 ms, so nothing sent
     before then reaches the wire: each retry waits twice the previous
     timeout, capped, so total backoff for n retries is the geometric
     sum. *)
  let net = Net.create ~nprocs:2 () in
  Net.set_crash_plan net
    (Crash.scripted
       [ ev 0 0 Crash.Stop; ev 0 1 Crash.Stop; ev 3_500_000 0 Crash.Recover;
         ev 3_500_000 1 Crash.Recover ]);
  let ch =
    Reliable.create
      ~config:{ Reliable.timeout_ns = 1_000_000; backoff_cap_ns = 16_000_000; max_attempts = 20 }
      net
  in
  let d = Reliable.send ch ~kind:Net.Lock_request ~src:0 ~dst:1 ~payload_bytes:0 ~at:0 in
  (* copies at 0, 1ms, 3ms die in the outage; the copy at 3ms+2ms*2=7ms
     escapes: backoff = 1 + 2 + 4 ms *)
  Alcotest.(check int) "three retransmissions" 3 d.Reliable.retransmits;
  Alcotest.(check int) "geometric backoff" 7_000_000 d.Reliable.backoff_ns

let test_reliable_exhausts () =
  let net = Net.create ~nprocs:2 () in
  Net.set_fault_policy net (Net.uniform_faults ~drop:1.0 ());
  let ch =
    Reliable.create
      ~config:{ Reliable.timeout_ns = 1_000; backoff_cap_ns = 4_000; max_attempts = 3 } net
  in
  (match Reliable.send ch ~kind:Net.Lock_request ~src:0 ~dst:1 ~payload_bytes:0 ~at:0 with
  | exception Reliable.Exhausted msg ->
      (* copies at 0, 1000, 3000; the give-up check happens one (capped)
         timeout after the last copy, so the episode burned 7000 ns *)
      Alcotest.(check string) "structured episode context in the message"
        "Reliable.send: exhausted {kind=lock-request; src=p0; dst=p1; seq=0; attempts=3; \
         elapsed_ns=7000}"
        msg
  | _ -> Alcotest.fail "a 100% loss rate must exhaust the retry budget");
  Alcotest.(check int) "gave up cleanly: nothing left in flight" 0 (Reliable.unacked ch)

(* With a crash plan armed, a retry budget burned against a dead
   RECEIVER surfaces as the failure-detector event the recovery protocol
   reacts to, with the full episode context. *)
let test_reliable_suspects_dead_receiver () =
  let net = Net.create ~nprocs:2 () in
  Net.set_crash_plan net (Crash.scripted [ ev 0 1 Crash.Stop ]);
  let ch =
    Reliable.create
      ~config:{ Reliable.timeout_ns = 1_000; backoff_cap_ns = 4_000; max_attempts = 3 } net
  in
  (match Reliable.send ch ~kind:Net.Lock_request ~src:0 ~dst:1 ~payload_bytes:0 ~at:100 with
  | exception Reliable.Suspected s ->
      Alcotest.(check int) "suspect is the receiver" 1 s.Reliable.s_dst;
      Alcotest.(check int) "sender recorded" 0 s.Reliable.s_src;
      Alcotest.(check int) "sequence recorded" 0 s.Reliable.s_seq;
      Alcotest.(check int) "whole budget burned" 3 s.Reliable.s_attempts;
      Alcotest.(check int) "elapsed virtual time" 7_000 s.Reliable.s_elapsed_ns;
      Alcotest.(check string) "kind recorded" "lock-request" (Net.kind_name s.Reliable.s_kind)
  | _ -> Alcotest.fail "sending to a dead peer must raise Suspected");
  (* the receiver's NIC destroyed all three copies, so it sent no ack *)
  Alcotest.(check int) "every copy was put on the wire" 3
    (Net.messages_of_kind net Net.Lock_request);
  Alcotest.(check int) "no copy arrived to be acked" 0 (Net.messages_of_kind net Net.Ack);
  Alcotest.(check int) "nothing left in flight" 0 (Reliable.unacked ch)

(* ... and a SENDER that crashes mid-episode is also a suspicion, not a
   generic exhaustion: its remaining copies drop at the network, and the
   caller (the runtime) recognises its own crash from the plan. *)
let test_reliable_suspects_dead_sender () =
  let net = Net.create ~nprocs:2 () in
  Net.set_crash_plan net (Crash.scripted [ ev 2_000 0 Crash.Stop ]);
  (* the first two copies (at 100 and 1100) die to certain loss; the
     third is never put on the wire — the sender is down by then *)
  Net.set_fault_policy net (Net.uniform_faults ~drop:1.0 ());
  let ch =
    Reliable.create
      ~config:{ Reliable.timeout_ns = 1_000; backoff_cap_ns = 4_000; max_attempts = 3 } net
  in
  (match Reliable.send ch ~kind:Net.Lock_request ~src:0 ~dst:1 ~payload_bytes:0 ~at:100 with
  | exception Reliable.Suspected s ->
      Alcotest.(check int) "episode blamed on a crash, src recorded" 0 s.Reliable.s_src;
      Alcotest.(check int) "receiver was alive the whole time" 1 s.Reliable.s_dst;
      Alcotest.(check int) "whole budget burned" 3 s.Reliable.s_attempts
  | exception Reliable.Exhausted _ ->
      Alcotest.fail "a sender crash mid-episode must surface as Suspected, not Exhausted"
  | _ -> Alcotest.fail "the episode cannot succeed: every copy died");
  Alcotest.(check int) "nothing left in flight" 0 (Reliable.unacked ch)

let test_reliable_ack_lost_on_final_attempt () =
  (* The nastiest give-up: every data copy arrives but every ack dies,
     so the sender burns its whole budget for a transfer that in fact
     succeeded.  The channel must still raise Exhausted and clean up.
     p0's NIC goes down after it sent both data copies (at 0 and 1 us),
     so each ack dies on arrival (~300 us).  The channel gives up at
     3 us, before p0's stop, so neither end is down to blame. *)
  let net = Net.create ~nprocs:2 () in
  Net.set_crash_plan net (Crash.scripted [ ev 100_000 0 Crash.Stop ]);
  let ch =
    Reliable.create
      ~config:{ Reliable.timeout_ns = 1_000; backoff_cap_ns = 4_000; max_attempts = 2 }
      net
  in
  (match Reliable.send ch ~kind:Net.Lock_request ~src:0 ~dst:1 ~payload_bytes:16 ~at:0 with
  | exception Reliable.Exhausted _ -> ()
  | _ -> Alcotest.fail "losing every ack must exhaust the retry budget");
  Alcotest.(check int) "both data copies were put on the wire" 2
    (Net.messages_of_kind net Net.Lock_request);
  Alcotest.(check int) "an ack answered each data copy" 2 (Net.messages_of_kind net Net.Ack);
  Alcotest.(check int) "nothing left in flight after giving up" 0 (Reliable.unacked ch)

let test_reliable_dup_suppression_across_retransmit () =
  (* An ack lost in a bounded outage: the payload arrives on the first
     try, the retransmitted copy is suppressed by sequence number, and
     the second ack completes the exchange. *)
  let net = Net.create ~nprocs:2 () in
  let data = Net.transfer_ns ~payload_bytes:8 and ack = Net.transfer_ns ~payload_bytes:0 in
  (* p0 is down for the 1000 ns from the first ack's arrival: that ack
     dies, the second (sent a 1000 ns timeout later) does not *)
  Net.set_crash_plan net
    (Crash.scripted [ ev (data + ack) 0 Crash.Stop; ev (data + ack + 1_000) 0 Crash.Recover ]);
  let ch =
    Reliable.create
      ~config:{ Reliable.timeout_ns = 1_000; backoff_cap_ns = 16_000; max_attempts = 5 }
      net
  in
  let d = Reliable.send ch ~kind:Net.Lock_reply ~src:0 ~dst:1 ~payload_bytes:8 ~at:0 in
  Alcotest.(check int) "payload arrived on the first copy" data d.Reliable.delivered_at;
  Alcotest.(check int) "two data copies on the wire" 2 (Net.messages_of_kind net Net.Lock_reply);
  Alcotest.(check int) "one retransmission" 1 d.Reliable.retransmits;
  Alcotest.(check int) "the redundant copy was suppressed by seqno" 1 d.Reliable.dups_suppressed;
  Alcotest.(check int) "one copy (the first ack) was destroyed" 1 d.Reliable.drops_seen;
  Alcotest.(check int) "one full timeout of backoff" 1_000 d.Reliable.backoff_ns;
  (* the retransmission leaves at 1000 *)
  Alcotest.(check int) "acked by the retransmitted copy's ack" (1_000 + data + ack)
    d.Reliable.acked_at;
  (* the fabric counts both data copies (each was a real wire transfer);
     suppression by sequence number happens above the fabric *)
  Alcotest.(check int) "both copies' payload counted on the wire" 16
    (Net.total_payload_bytes net);
  Alcotest.(check int) "all acked" 0 (Reliable.unacked ch)

let test_reliable_backoff_cap_clamps () =
  (* Timeouts double 1000 -> 2000 and would reach 4000, but the cap
     clamps them at 2000: copies go out at 0, 1000, 3000, 5000 (all
     while the sender is down until 6000) and 7000 (delivered). *)
  let net = Net.create ~nprocs:2 () in
  Net.set_crash_plan net (Crash.scripted [ ev 0 0 Crash.Stop; ev 6_000 0 Crash.Recover ]);
  let ch =
    Reliable.create
      ~config:{ Reliable.timeout_ns = 1_000; backoff_cap_ns = 2_000; max_attempts = 10 }
      net
  in
  let d = Reliable.send ch ~kind:Net.Lock_request ~src:0 ~dst:1 ~payload_bytes:0 ~at:0 in
  Alcotest.(check int) "four retransmissions" 4 d.Reliable.retransmits;
  Alcotest.(check int) "four copies destroyed" 4 d.Reliable.drops_seen;
  Alcotest.(check int) "backoff clamped at the cap: 1+2+2+2 ms" 7_000 d.Reliable.backoff_ns;
  (* a down sender puts nothing on the wire *)
  Alcotest.(check int) "only the copy after the recovery went out" 1
    (Net.messages_of_kind net Net.Lock_request);
  Alcotest.(check int) "all acked in the end" 0 (Reliable.unacked ch)

(* ------------------------------------------------------------------ *)
(* Crash plans                                                         *)
(* ------------------------------------------------------------------ *)

let test_crash_scripted_validation () =
  Alcotest.check_raises "double stop"
    (Invalid_argument "Crash.scripted: p1 stopped twice (second at 30 ns)")
    (fun () -> ignore (Crash.scripted [ ev 10 1 Crash.Stop; ev 30 1 Crash.Stop ]));
  Alcotest.check_raises "recovery of a live processor"
    (Invalid_argument "Crash.scripted: p0 recovers at 5 ns but is not down")
    (fun () -> ignore (Crash.scripted [ ev 5 0 Crash.Recover ]));
  Alcotest.check_raises "negative event time"
    (Invalid_argument "Crash.scripted: negative event time")
    (fun () -> ignore (Crash.scripted [ ev (-1) 0 Crash.Stop ]));
  Alcotest.check_raises "negative processor"
    (Invalid_argument "Crash.scripted: negative processor")
    (fun () -> ignore (Crash.scripted [ ev 10 (-2) Crash.Stop ]))

let test_crash_plan_queries () =
  let p =
    Crash.scripted
      [ ev 100 1 Crash.Stop; ev 300 1 Crash.Recover; ev 200 0 Crash.Stop ]
  in
  Alcotest.(check bool) "up before its stop" false (Crash.is_down p ~proc:1 ~at:99);
  Alcotest.(check bool) "down from the stop instant" true (Crash.is_down p ~proc:1 ~at:100);
  Alcotest.(check bool) "still down just before recovery" true (Crash.is_down p ~proc:1 ~at:299);
  Alcotest.(check bool) "up from the recovery instant" false (Crash.is_down p ~proc:1 ~at:300);
  Alcotest.(check bool) "crash-stop never comes back" true (Crash.is_down p ~proc:0 ~at:max_int);
  Alcotest.(check bool) "unscripted processor never down" false
    (Crash.is_down p ~proc:2 ~at:max_int);
  Alcotest.(check int) "two down mid-plan" 2 (Crash.down_count p ~nprocs:3 ~at:250);
  Alcotest.(check int) "one down after the recovery" 1 (Crash.down_count p ~nprocs:3 ~at:400);
  Alcotest.(check int) "stops seen so far" 1 (Crash.stops_before p ~proc:1 ~at:250);
  Alcotest.(check (option int)) "first stop" (Some 100) (Crash.first_stop p ~proc:1);
  Alcotest.(check (option int)) "no stop scripted" None (Crash.first_stop p ~proc:2);
  Alcotest.(check int) "empty plan is empty" 0 (List.length (Crash.events Crash.empty))

let test_crash_render_parse_roundtrip () =
  let p =
    Crash.scripted
      [ ev 100 1 Crash.Stop; ev 300 1 Crash.Recover; ev 200 0 Crash.Stop ]
  in
  (* events are kept sorted by time, so rendering is canonical *)
  Alcotest.(check string) "canonical rendering" "stop@100:p1,stop@200:p0,recover@300:p1"
    (Crash.render p);
  (match Crash.parse_spec ~nprocs:2 (Crash.render p) with
  | Ok q -> Alcotest.(check string) "round trip" (Crash.render p) (Crash.render q)
  | Error e -> Alcotest.fail e);
  (* time suffixes scale to nanoseconds *)
  (match Crash.parse_spec ~nprocs:4 "stop@2ms:p1,recover@8ms:p1" with
  | Ok q -> Alcotest.(check string) "ms suffix" "stop@2000000:p1,recover@8000000:p1" (Crash.render q)
  | Error e -> Alcotest.fail e);
  (* the seeded form is parsed and reproducible *)
  (match (Crash.parse_spec ~nprocs:4 "n=2,seed=7", Crash.parse_spec ~nprocs:4 "n=2,seed=7") with
  | Ok a, Ok b ->
      Alcotest.(check string) "seeded form deterministic" (Crash.render a) (Crash.render b)
  | _ -> Alcotest.fail "seeded form must parse");
  (* malformed specs come back as Error, never as an exception *)
  let expect_error what s =
    match Crash.parse_spec ~nprocs:4 s with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (what ^ " must be rejected")
  in
  expect_error "out-of-range target" "stop@2ms:p9";
  expect_error "unknown action" "pause@2ms:p1";
  expect_error "bad time" "stop@soon:p1";
  expect_error "seeded form without n" "seed=7";
  expect_error "alternation break" "recover@5:p0";
  expect_error "empty spec" ""

(* The seeded generator must never script a majority down — quorum
   failover has to stay able to make progress under any seed. *)
let crash_seeded_keeps_majority_up =
  QCheck.Test.make ~name:"seeded crash plans keep a strict majority up" ~count:100
    QCheck.(pair (int_bound 10_000) (int_range 1 8))
    (fun (seed, nprocs) ->
      let mk () = Crash.seeded ~seed ~nprocs ~events:nprocs ~horizon_ns:1_000_000 in
      let p = mk () in
      (* the down set only changes at event instants, so checking each
         one bounds the whole timeline *)
      List.for_all
        (fun (e : Crash.event) -> 2 * Crash.down_count p ~nprocs ~at:e.Crash.at_ns < nprocs)
        (Crash.events p)
      && Crash.render (mk ()) = Crash.render p)

let delivery_monotone =
  QCheck.Test.make ~name:"delivery time grows with payload" ~count:200
    QCheck.(pair (int_bound 100_000) (int_bound 100_000))
    (fun (a, b) ->
      let net = Net.create ~nprocs:2 () in
      let lo = min a b and hi = max a b in
      deliver net ~kind:Net.Lock_reply ~src:0 ~dst:1 ~payload_bytes:lo ~at:0 ()
      <= deliver net ~kind:Net.Lock_reply ~src:0 ~dst:1 ~payload_bytes:hi ~at:0 ())

(* One message on a four-processor fabric: (src, dst), its kind's index
   in [all_kinds], (payload, overhead) bytes and its send time, which
   falls inside the crash plans' horizon. *)
let message =
  QCheck.(
    quad
      (pair (int_bound 3) (int_bound 3))
      (int_bound 7)
      (pair (int_bound 10_000) (int_bound 64))
      (int_bound 3_000_000))

(* Under any fault policy and crash plan, the totals count the copies put
   on the wire: every send but a self-send and one from a down source,
   whatever becomes of it (a dropped copy counts, a duplicated one counts
   once), with its payload and without its overhead. *)
let wire_accounting =
  QCheck.Test.make ~name:"the totals count every copy put on the wire" ~count:200
    QCheck.(
      triple
        (option (triple (int_bound 60) (int_bound 60) small_nat))
        (option (pair small_nat (int_range 1 3)))
        (list message))
    (fun (faults, crash, msgs) ->
      let net = Net.create ~nprocs:4 () in
      Option.iter
        (fun (drop, dup, seed) ->
          Net.set_fault_policy net
            (Net.uniform_faults ~duplicate:(float_of_int dup /. 100.) ~jitter_ns:5_000 ~seed
               ~drop:(float_of_int drop /. 100.) ()))
        faults;
      let plan =
        match crash with
        | None -> Crash.empty
        | Some (seed, events) ->
            let p = Crash.seeded ~seed ~nprocs:4 ~events ~horizon_ns:3_000_000 in
            Net.set_crash_plan net p;
            p
      in
      let by_kind = Array.make (List.length all_kinds) 0 and payload = ref 0 in
      List.iter
        (fun ((src, dst), k, (payload_bytes, overhead_bytes), at) ->
          ignore
            (Net.send ~overhead_bytes net ~kind:(List.nth all_kinds k) ~src ~dst ~payload_bytes
               ~at);
          if src <> dst && not (Crash.is_down plan ~proc:src ~at) then begin
            by_kind.(k) <- by_kind.(k) + 1;
            payload := !payload + payload_bytes
          end)
        msgs;
      let on_wire = Array.fold_left ( + ) 0 by_kind in
      List.for_all2 (fun kind n -> Net.messages_of_kind net kind = n) all_kinds
        (Array.to_list by_kind)
      && Net.total_messages net = on_wire
      && List.fold_left (fun n kind -> n + Net.messages_of_kind net kind) 0 all_kinds = on_wire
      && Net.total_payload_bytes net = !payload)

(* With neither a fault policy nor a crash plan armed, [arrival] is the
   first arrival [send] reports, and it counts the same copies. *)
let arrival_matches_send =
  QCheck.Test.make ~name:"arrival agrees with send on a fault-free fabric" ~count:200
    QCheck.(list message)
    (fun msgs ->
      let a = Net.create ~nprocs:4 () and b = Net.create ~nprocs:4 () in
      List.for_all
        (fun ((src, dst), k, (payload_bytes, overhead_bytes), at) ->
          let kind = List.nth all_kinds k in
          Net.arrival a ~kind ~src ~dst ~payload_bytes ~overhead_bytes ~at
          = Net.delivery (Net.send ~overhead_bytes b ~kind ~src ~dst ~payload_bytes ~at))
        msgs
      && Net.total_messages a = Net.total_messages b
      && Net.total_payload_bytes a = Net.total_payload_bytes b
      && List.for_all
           (fun kind -> Net.messages_of_kind a kind = Net.messages_of_kind b kind)
           all_kinds)

let reliable_always_delivers =
  QCheck.Test.make ~name:"reliable channel delivers under any sub-certain loss" ~count:50
    QCheck.(pair (int_bound 1000) (int_bound 70))
    (fun (seed, drop_pct) ->
      let net = Net.create ~nprocs:2 () in
      Net.set_fault_policy net
        (Net.uniform_faults ~seed ~drop:(float_of_int drop_pct /. 100.) ());
      (* at 70% loss the data+ack round trip survives an attempt with
         probability 0.09; 256 attempts leave ~1e-11 odds of a flake *)
      let ch =
        Reliable.create
          ~config:{ Reliable.timeout_ns = 100_000; backoff_cap_ns = 1_600_000; max_attempts = 256 }
          net
      in
      let ok = ref true in
      for i = 0 to 19 do
        let d = Reliable.send ch ~kind:Net.Lock_reply ~src:0 ~dst:1 ~payload_bytes:64 ~at:(i * 1000) in
        ok := !ok && d.Reliable.delivered_at >= i * 1000
      done;
      !ok && Reliable.unacked ch = 0)

let () =
  Alcotest.run "simnet"
    [
      ( "net",
        [
          Alcotest.test_case "transfer time" `Quick test_transfer_time;
          Alcotest.test_case "send accounting" `Quick test_send_accounting;
          Alcotest.test_case "self-send free" `Quick test_self_send_free;
          Alcotest.test_case "self-send immune to faults" `Quick test_self_send_immune_to_faults;
          Alcotest.test_case "overhead bytes" `Quick test_overhead_excluded_from_accounting;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "kind names" `Quick test_kind_names;
          qtest delivery_monotone;
          qtest wire_accounting;
          qtest arrival_matches_send;
        ] );
      ( "faults",
        [
          Alcotest.test_case "deterministic schedule" `Quick test_fault_determinism;
          Alcotest.test_case "seed changes schedule" `Quick test_fault_seed_changes_schedule;
          Alcotest.test_case "certain drop" `Quick test_certain_drop;
          Alcotest.test_case "certain duplication" `Quick test_certain_duplication;
          Alcotest.test_case "policy validation names the field" `Quick
            test_fault_policy_validation;
          Alcotest.test_case "delivery of Dropped raises" `Quick test_delivery_of_dropped_raises;
        ] );
      ( "crash",
        [
          Alcotest.test_case "scripted plan validation" `Quick test_crash_scripted_validation;
          Alcotest.test_case "plan queries" `Quick test_crash_plan_queries;
          Alcotest.test_case "render/parse round trip" `Quick test_crash_render_parse_roundtrip;
          qtest crash_seeded_keeps_majority_up;
        ] );
      ( "reliable",
        [
          Alcotest.test_case "faultless passthrough" `Quick test_reliable_faultless_passthrough;
          Alcotest.test_case "self-send" `Quick test_reliable_self_send;
          Alcotest.test_case "survives drops" `Quick test_reliable_survives_drops;
          Alcotest.test_case "suppresses duplicates" `Quick test_reliable_suppresses_duplicates;
          Alcotest.test_case "exponential backoff" `Quick test_reliable_backoff_doubles;
          Alcotest.test_case "retry budget exhaustion" `Quick test_reliable_exhausts;
          Alcotest.test_case "suspects a dead receiver" `Quick
            test_reliable_suspects_dead_receiver;
          Alcotest.test_case "suspects a dead sender" `Quick test_reliable_suspects_dead_sender;
          Alcotest.test_case "ack lost on final attempt" `Quick
            test_reliable_ack_lost_on_final_attempt;
          Alcotest.test_case "dup suppression across retransmit" `Quick
            test_reliable_dup_suppression_across_retransmit;
          Alcotest.test_case "backoff cap clamps" `Quick test_reliable_backoff_cap_clamps;
          qtest reliable_always_delivers;
        ] );
    ]
