(* The sharded KV store: the YCSB-style generator's determinism and
   distribution properties, the refinement oracle's soundness (passing
   hand-written interleavings, rejected mutants, the same verdicts as
   the list-and-Hashtbl checker it replaced), the migration edge
   cases (re-bind under shared readers, under message faults, across a
   crash of the old owner), the latency-percentile report
   cross-checked against exact percentiles from the event log's
   requests, and the request views folded from the observation log
   counting each request once, at its end. *)

module Config = Midway.Config
module R = Midway.Runtime
module Engine = Midway_sched.Engine
module Crash = Midway_simnet.Crash
module Event = Midway_obs.Event
module Metrics = Midway_obs.Metrics
module Obs = Midway_obs.Obs
module Oracle = Midway_kv.Oracle
module Kvstore = Midway_kv.Kvstore
module Ycsb = Midway_explore.Ycsb
module Kv_workload = Midway_explore.Kv_workload
module Explore = Midway_explore.Explore

let qtest = QCheck_alcotest.to_alcotest

(* --- the generator ------------------------------------------------------ *)

let gen_cfg =
  {
    Ycsb.keys = 64;
    requests = 1000;
    mix = Ycsb.mix_crud;
    dist = Ycsb.Zipfian 0.99;
    arrival = Ycsb.Poisson 2_000;
    max_scan = 8;
    seed = 11;
  }

(* Same seed => bit-identical stream, every call (the generator is a pure
   function of (cfg, client), so this also covers "across backends": no
   machine state is consulted at all).  Different clients and different
   seeds decouple. *)
let test_gen_determinism () =
  let d1 = Ycsb.stream_digest (Ycsb.client_stream gen_cfg ~client:0) in
  let d2 = Ycsb.stream_digest (Ycsb.client_stream gen_cfg ~client:0) in
  Alcotest.(check string) "same seed, same stream" d1 d2;
  let other = Ycsb.stream_digest (Ycsb.client_stream gen_cfg ~client:1) in
  Alcotest.(check bool) "clients decoupled" true (d1 <> other);
  let reseeded =
    Ycsb.stream_digest (Ycsb.client_stream { gen_cfg with Ycsb.seed = 12 } ~client:0)
  in
  Alcotest.(check bool) "seeds decoupled" true (d1 <> reseeded)

let count_kinds stream =
  let g = ref 0 and p = ref 0 and d = ref 0 and s = ref 0 in
  Array.iter
    (fun (r : Ycsb.req) ->
      match r.Ycsb.r_op with
      | Ycsb.Get _ -> incr g
      | Ycsb.Put _ -> incr p
      | Ycsb.Delete _ -> incr d
      | Ycsb.Scan _ -> incr s)
    stream;
  [| !g; !p; !d; !s |]

(* The finite stream respects the mix *exactly* (largest-remainder
   apportionment, not sampling). *)
let test_gen_exact_mix () =
  let counts = count_kinds (Ycsb.client_stream gen_cfg ~client:2) in
  Alcotest.(check (array int)) "crud mix apportioned exactly" [| 700; 200; 50; 50 |] counts;
  let m = gen_cfg.Ycsb.mix in
  let expected =
    Ycsb.apportion ~n:gen_cfg.Ycsb.requests
      [| m.Ycsb.w_get; m.Ycsb.w_put; m.Ycsb.w_delete; m.Ycsb.w_scan |]
  in
  Alcotest.(check (array int)) "matches apportion" expected counts

let test_apportion () =
  Alcotest.(check (array int)) "integral split" [| 500; 500 |]
    (Ycsb.apportion ~n:1000 [| 50; 50 |]);
  Alcotest.(check (array int)) "ycsb a over 7" [| 4; 3 |] (Ycsb.apportion ~n:7 [| 50; 50 |]);
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"apportion sums to n" ~count:100
       QCheck.(pair (int_bound 500) (array_of_size Gen.(1 -- 6) (int_bound 20)))
       (fun (n, w) ->
         QCheck.assume (Array.fold_left ( + ) 0 w > 0);
         Array.fold_left ( + ) 0 (Ycsb.apportion ~n w) = n))

(* generator determinism + exactness over arbitrary seeds *)
let gen_property =
  QCheck.Test.make ~name:"any seed: stable stream, exact mix" ~count:25
    QCheck.(int_bound 100_000)
    (fun seed ->
      let cfg = { gen_cfg with Ycsb.seed; requests = 200 } in
      let s1 = Ycsb.client_stream cfg ~client:0 in
      let s2 = Ycsb.client_stream cfg ~client:0 in
      Ycsb.stream_digest s1 = Ycsb.stream_digest s2
      && count_kinds s1 = Ycsb.apportion ~n:200 [| 70; 20; 5; 5 |])

let sample_counts ~n ~total ~dist ~seed =
  let cfg =
    {
      Ycsb.keys = n;
      requests = total;
      mix = Ycsb.mix_c;
      dist;
      arrival = Ycsb.Closed;
      max_scan = 1;
      seed;
    }
  in
  let counts = Array.make n 0 in
  Array.iter
    (fun (r : Ycsb.req) ->
      match r.Ycsb.r_op with
      | Ycsb.Get k -> counts.(k) <- counts.(k) + 1
      | _ -> Alcotest.fail "mix_c must be read-only")
    (Ycsb.client_stream cfg ~client:0);
  counts

let chi2_against counts pmf total =
  let s = ref 0.0 in
  Array.iteri
    (fun k c ->
      let e = float_of_int total *. pmf.(k) in
      let d = float_of_int c -. e in
      s := !s +. (d *. d /. e))
    counts;
  !s

(* The zipfian sampler hits the configured skew: chi-squared over a
   large seeded sample against {!Ycsb.zipf_pmf}.  The sampler is Gray
   et al.'s incremental approximation (YCSB's own): ranks 1-2 are
   exact, the tail comes from a continuous inverse-CDF, so the
   statistic carries a small systematic bias on top of sampling noise —
   measured at ~0.0032 per sample at n = 64, theta = 0.99 (chi2 ~160
   at 50k draws against ~63 expected from noise alone).  The bound of
   250 admits that bias plus >5 sd of noise while still rejecting any
   materially wrong skew: theta 0.8 or 0.95 scores in the thousands on
   the same sample.  The uniform control shows the harness itself is
   sharp — an exact sampler sits at the degrees of freedom. *)
let test_gen_zipf_chi2 () =
  let n = 64 and total = 50_000 in
  let counts = sample_counts ~n ~total ~dist:(Ycsb.Zipfian 0.99) ~seed:5 in
  let pmf = Ycsb.zipf_pmf ~n ~theta:0.99 in
  let chi2 = chi2_against counts pmf total in
  Alcotest.(check bool) (Printf.sprintf "chi2 %.1f within bound" chi2) true (chi2 < 250.0);
  (* the same sample must *reject* visibly different skews *)
  List.iter
    (fun theta ->
      let off = chi2_against counts (Ycsb.zipf_pmf ~n ~theta) total in
      Alcotest.(check bool)
        (Printf.sprintf "chi2 %.0f rejects theta %.2f" off theta)
        true (off > 1_000.0))
    [ 0.80; 0.60 ];
  (* rank order: the head of the distribution must dominate *)
  Alcotest.(check bool) "key 0 hottest" true (counts.(0) > counts.(1));
  Alcotest.(check bool) "head over tail" true (counts.(0) > 8 * counts.(n - 1));
  (* control: the uniform sampler is exact, so its chi-squared sits at
     the degrees of freedom (63): no hidden slack in the harness *)
  let u = sample_counts ~n ~total ~dist:Ycsb.Uniform ~seed:5 in
  let upmf = Array.make n (1.0 /. float_of_int n) in
  let uchi2 = chi2_against u upmf total in
  Alcotest.(check bool)
    (Printf.sprintf "uniform control chi2 %.1f ~ df" uchi2)
    true (uchi2 < 110.0)

(* --- the oracle on hand-written histories ------------------------------- *)

let obs ?(read = []) ~proc ~bucket ~seq ~kind ~key ~value () =
  {
    Oracle.o_proc = proc;
    o_bucket = bucket;
    o_seq = seq;
    o_kind = kind;
    o_key = key;
    o_value = value;
    o_read = read;
    o_sched_ns = 0;
    o_done_ns = 0;
  }

(* keys 0-3 in bucket 0, keys 4-7 in bucket 1 *)
let passing_history =
  [
    obs ~proc:0 ~bucket:0 ~seq:1 ~kind:Oracle.K_load ~key:0 ~value:10 ();
    obs ~proc:1 ~bucket:0 ~seq:2 ~kind:Oracle.K_put ~key:1 ~value:5 ();
    obs ~proc:2 ~bucket:0 ~seq:2 ~kind:Oracle.K_get ~key:0 ~value:0
      ~read:[ (0, true, 10) ] ();
    obs ~proc:0 ~bucket:0 ~seq:3 ~kind:Oracle.K_delete ~key:0 ~value:0 ();
    obs ~proc:3 ~bucket:0 ~seq:3 ~kind:Oracle.K_get ~key:0 ~value:0
      ~read:[ (0, false, 0) ] ();
    obs ~proc:2 ~bucket:0 ~seq:4 ~kind:Oracle.K_migrate ~key:0 ~value:2 ();
    obs ~proc:3 ~bucket:1 ~seq:1 ~kind:Oracle.K_put ~key:4 ~value:7 ();
    obs ~proc:1 ~bucket:1 ~seq:1 ~kind:Oracle.K_scan ~key:4 ~value:0
      ~read:[ (4, true, 7); (5, false, 0) ] ();
  ]

let final_ok =
  {
    Oracle.f_entries =
      [|
        (0, false, 0);
        (1, true, 5);
        (2, false, 0);
        (3, false, 0);
        (4, true, 7);
        (5, false, 0);
        (6, false, 0);
        (7, false, 0);
      |];
    f_opcounts = [| 4; 1 |];
  }

let run_oracle ?(killed = []) ?(journal = []) ?final history =
  Oracle.check ~keys:8 ~buckets:2 ~killed ~journal ~final (Array.of_list history)

let test_oracle_passes () =
  Alcotest.(check (list string)) "hand-written interleaving linearizes" []
    (run_oracle ~final:final_ok passing_history);
  (* reads before any write observe the empty prefix *)
  Alcotest.(check (list string)) "prefix-0 read" []
    (run_oracle
       [ obs ~proc:0 ~bucket:0 ~seq:0 ~kind:Oracle.K_get ~key:2 ~value:0
           ~read:[ (2, false, 0) ] () ])

let expect_reject name history ?killed ?journal ?final () =
  match run_oracle ?killed ?journal ?final history with
  | [] -> Alcotest.failf "%s: oracle accepted a bad history" name
  | _ -> ()

let test_oracle_rejects () =
  (* stale read: the get at prefix 2 must see key 0 = 10 *)
  expect_reject "stale read"
    (obs ~proc:2 ~bucket:0 ~seq:2 ~kind:Oracle.K_get ~key:0 ~value:0
       ~read:[ (0, true, 99) ] ()
    :: passing_history)
    ();
  (* lost update: two writes claim the same sequence number *)
  expect_reject "duplicate seq"
    (obs ~proc:2 ~bucket:0 ~seq:2 ~kind:Oracle.K_put ~key:2 ~value:9 () :: passing_history)
    ();
  (* key routed to the wrong bucket *)
  expect_reject "wrong bucket"
    [ obs ~proc:0 ~bucket:1 ~seq:1 ~kind:Oracle.K_put ~key:0 ~value:1 () ]
    ();
  (* final state disagreeing with the replay *)
  expect_reject "final state" passing_history
    ~final:{ final_ok with Oracle.f_opcounts = [| 4; 2 |] }
    ()

(* A sequence gap is admissible exactly when a *killed* processor's
   journal records the missing write — the crash shape the store's
   release-then-log window can produce — and inadmissible otherwise. *)
let test_oracle_crash_gaps () =
  let gapped =
    [
      obs ~proc:0 ~bucket:0 ~seq:1 ~kind:Oracle.K_put ~key:0 ~value:3 ();
      obs ~proc:0 ~bucket:0 ~seq:3 ~kind:Oracle.K_put ~key:1 ~value:4 ();
      obs ~proc:2 ~bucket:0 ~seq:3 ~kind:Oracle.K_get ~key:2 ~value:0
        ~read:[ (2, true, 8) ] ();
    ]
  in
  let j =
    {
      Oracle.j_bucket = 0;
      j_proc = 1;
      j_seq = 2;
      j_kind = Oracle.K_put;
      j_key = 2;
      j_value = 8;
    }
  in
  Alcotest.(check (list string)) "journal-covered gap accepted" []
    (run_oracle ~killed:[ 1 ] ~journal:[ j ] gapped);
  expect_reject "uncovered gap" gapped ();
  expect_reject "journal of a live processor does not cover" gapped ~journal:[ j ] ();
  expect_reject "wrong seq in journal" gapped ~killed:[ 1 ]
    ~journal:[ { j with Oracle.j_seq = 4 } ]
    ()

(* Every read is judged: one whose op counter is negative or above the
   bucket's committed count is reported, even when no write ever
   reached that prefix. *)
let test_oracle_read_counters () =
  let put = obs ~proc:0 ~bucket:0 ~seq:1 ~kind:Oracle.K_put ~key:0 ~value:3 () in
  Alcotest.(check (list string)) "counter above the committed count"
    [
      "bucket 0: p1 get key 0 (bucket 0, seq 5) observed op counter 5 but only 1 write(s) ever \
       committed";
    ]
    (run_oracle
       [
         put;
         obs ~proc:1 ~bucket:0 ~seq:5 ~kind:Oracle.K_get ~key:0 ~value:0 ~read:[ (0, true, 4) ] ();
       ]);
  Alcotest.(check (list string)) "negative counter"
    [ "bucket 0: p1 get key 0 (bucket 0, seq -1) observed a negative op counter -1" ]
    (run_oracle
       [
         obs ~proc:1 ~bucket:0 ~seq:(-1) ~kind:Oracle.K_get ~key:0 ~value:0
           ~read:[ (0, false, 0) ] ();
       ])

(* A killed processor's write may also be the bucket's last: committed
   by its release, with the log entry lost.  Its journal entry admits it
   after the last logged write, and the reads and the final state see
   it; a live processor's journal admits nothing. *)
let test_oracle_trailing_journal () =
  let history =
    [
      obs ~proc:0 ~bucket:0 ~seq:1 ~kind:Oracle.K_put ~key:0 ~value:3 ();
      obs ~proc:2 ~bucket:0 ~seq:2 ~kind:Oracle.K_get ~key:1 ~value:0 ~read:[ (1, true, 8) ] ();
    ]
  in
  let journal =
    [
      {
        Oracle.j_bucket = 0;
        j_proc = 1;
        j_seq = 2;
        j_kind = Oracle.K_put;
        j_key = 1;
        j_value = 8;
      };
    ]
  in
  let final =
    {
      Oracle.f_entries =
        Array.init 8 (fun k ->
            if k = 0 then (0, true, 3) else if k = 1 then (1, true, 8) else (k, false, 0));
      f_opcounts = [| 2; 0 |];
    }
  in
  Alcotest.(check (list string)) "trailing journal-covered write accepted" []
    (run_oracle ~killed:[ 1 ] ~journal ~final history);
  expect_reject "trailing write of a live processor" history ~journal ~final ()

(* --- the linear replay against the checker it replaced ------------------ *)

(* The list-and-Hashtbl checker that [Oracle.check] replaced, kept as the
   model the linear replay must agree with, message for message.  It
   differs from the replaced code only by the two rules the replay
   added: a read whose counter is outside [0, committed] is reported,
   and a killed processor's journal-covered writes after the last
   logged one are admitted. *)
module Reference = struct
  open Oracle

  let is_write = function
    | K_put | K_delete | K_migrate | K_load -> true
    | K_get | K_scan -> false

  let check_bucket ~bucket ~lo ~hi ~killed ~journal ~violations obs_list =
    let bad fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
    let in_bucket k = k >= lo && k < hi in
    let writes, reads = List.partition (fun o -> is_write o.o_kind) obs_list in
    let writes = List.stable_sort (fun a b -> Int.compare a.o_seq b.o_seq) writes in
    let expected = ref 1 in
    let checked = ref [] in
    let recover () =
      match
        List.find_opt
          (fun j -> j.j_bucket = bucket && j.j_seq = !expected && List.mem j.j_proc killed)
          journal
      with
      | Some j ->
          checked :=
            {
              o_proc = j.j_proc;
              o_bucket = bucket;
              o_seq = j.j_seq;
              o_kind = j.j_kind;
              o_key = j.j_key;
              o_value = j.j_value;
              o_read = [];
              o_sched_ns = 0;
              o_done_ns = 0;
            }
            :: !checked;
          true
      | None -> false
    in
    List.iter
      (fun w ->
        if w.o_seq < !expected then
          bad "bucket %d: duplicate sequence %d (%s)" bucket w.o_seq (describe w)
        else begin
          while w.o_seq > !expected do
            if not (recover ()) then
              bad
                "bucket %d: sequence gap at %d (next logged write is seq %d) not covered by \
                 any killed processor's journal"
                bucket !expected w.o_seq;
            incr expected
          done;
          checked := w :: !checked;
          incr expected
        end)
      writes;
    while recover () do
      incr expected
    done;
    let writes = List.rev !checked in
    let max_seq = !expected - 1 in
    List.iter
      (fun r ->
        if r.o_seq < 0 then
          bad "bucket %d: %s observed a negative op counter %d" bucket (describe r) r.o_seq
        else if r.o_seq > max_seq then
          bad "bucket %d: %s observed op counter %d but only %d write(s) ever committed" bucket
            (describe r) r.o_seq max_seq)
      reads;
    let model : (int, bool * int) Hashtbl.t = Hashtbl.create 64 in
    let entry k = match Hashtbl.find_opt model k with Some e -> e | None -> (false, 0) in
    let check_read r =
      List.iter
        (fun (k, present, v) ->
          if not (in_bucket k) then
            bad "bucket %d: %s returned key %d outside the bucket" bucket (describe r) k
          else
            let mp, mv = entry k in
            if present <> mp || (present && v <> mv) then
              bad "bucket %d: %s observed key %d = %s but the dictionary says %s" bucket
                (describe r) k
                (if present then string_of_int v else "absent")
                (if mp then string_of_int mv else "absent"))
        r.o_read
    in
    let reads_at = Hashtbl.create 64 in
    List.iter
      (fun r ->
        Hashtbl.replace reads_at r.o_seq
          (r :: Option.value (Hashtbl.find_opt reads_at r.o_seq) ~default:[]))
      reads;
    let flush_reads s =
      match Hashtbl.find_opt reads_at s with
      | Some l -> List.iter check_read (List.rev l)
      | None -> ()
    in
    flush_reads 0;
    List.iter
      (fun w ->
        (if not (in_bucket w.o_key) && w.o_kind <> K_migrate then
           bad "bucket %d: %s writes a key outside the bucket" bucket (describe w));
        (match w.o_kind with
        | K_put | K_load -> Hashtbl.replace model w.o_key (true, w.o_value)
        | K_delete -> Hashtbl.replace model w.o_key (false, 0)
        | K_migrate -> ()
        | K_get | K_scan -> assert false);
        flush_reads w.o_seq)
      writes;
    (model, max_seq)

  let check ~keys ~buckets ~killed ~journal ~final obs_list =
    let violations = ref [] in
    let bad fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
    if keys mod buckets <> 0 then bad "keys (%d) not divisible by buckets (%d)" keys buckets;
    let per_bucket = keys / buckets in
    let bucket_of k = k / per_bucket in
    List.iter
      (fun o ->
        if o.o_key < 0 || o.o_key >= keys then
          bad "%s: key outside the keyspace [0, %d)" (describe o) keys
        else if o.o_bucket <> bucket_of o.o_key then
          bad "%s: key %d lives in bucket %d" (describe o) o.o_key (bucket_of o.o_key))
      obs_list;
    let by_bucket = Array.make buckets [] in
    List.iter
      (fun o ->
        if o.o_bucket >= 0 && o.o_bucket < buckets then
          by_bucket.(o.o_bucket) <- o :: by_bucket.(o.o_bucket))
      obs_list;
    for b = 0 to buckets - 1 do
      let lo = b * per_bucket in
      let model, max_seq =
        check_bucket ~bucket:b ~lo ~hi:(lo + per_bucket) ~killed ~journal ~violations
          (List.rev by_bucket.(b))
      in
      match final with
      | None -> ()
      | Some f ->
          if f.f_opcounts.(b) <> max_seq then
            bad "bucket %d: final op counter is %d but %d write(s) committed" b f.f_opcounts.(b)
              max_seq;
          Array.iter
            (fun (k, present, v) ->
              if bucket_of k = b then
                let mp, mv =
                  match Hashtbl.find_opt model k with Some e -> e | None -> (false, 0)
                in
                if present <> mp || (present && v <> mv) then
                  bad "bucket %d: final state of key %d is %s but the dictionary says %s" b k
                    (if present then string_of_int v else "absent")
                    (if mp then string_of_int mv else "absent"))
            f.f_entries
    done;
    List.rev !violations
end

type history = {
  h_keys : int;
  h_buckets : int;
  h_killed : int list;
  h_journal : Oracle.journal_entry list;
  h_final : Oracle.final_state option;
  h_log : Oracle.obs list;
}

let journal_of (w : Oracle.obs) =
  {
    Oracle.j_bucket = w.o_bucket;
    j_proc = w.o_proc;
    j_seq = w.o_seq;
    j_kind = w.o_kind;
    j_key = w.o_key;
    j_value = w.o_value;
  }

(* A random history: each bucket's legal run (writes numbered 1..N,
   reads reporting the model at the prefix they name, every processor's
   last write in the journal), then up to six faults, then the buckets'
   logs interleaved, and one history in four shuffled outright.  The
   faults: a dropped write (a gap, its journal entry kept or not, its
   processor killed or not), a duplicated write, a write or a read
   renumbered to a duplicate, zero, negative or trailing sequence
   number, a flipped read value or presence, a write or read moved to
   any key of the keyspace, an observation naming another bucket or
   none, a processor killed or revived, a journal entry renumbered, and
   a wrong final op counter or final value. *)
let gen_history st =
  let int n = Random.State.int st n in
  let pick a = a.(int (Array.length a)) in
  let buckets = 1 + int 3 and per_bucket = 1 + int 4 and nprocs = 4 in
  let keys = buckets * per_bucket in
  let killed = ref (List.filter (fun _ -> int 3 = 0) [ 0; 1; 2; 3 ]) in
  let last_write = Hashtbl.create 16 in
  let logs = Array.make buckets [] in
  let opcounts = Array.make buckets 0 in
  let entries = Array.init keys (fun k -> (k, false, 0)) in
  for b = 0 to buckets - 1 do
    let lo = b * per_bucket in
    let seq = ref 0 and log = ref [] in
    for _ = 1 to int 14 do
      let proc = int nprocs and key = lo + int per_bucket in
      if int 2 = 0 then begin
        incr seq;
        let kind =
          pick [| Oracle.K_put; Oracle.K_put; Oracle.K_delete; Oracle.K_load; Oracle.K_migrate |]
        in
        let key, value =
          match kind with
          | Oracle.K_put | Oracle.K_load -> (key, int 50)
          | Oracle.K_delete -> (key, 0)
          | _ -> (lo, proc)
        in
        if kind <> Oracle.K_migrate then entries.(key) <- (key, kind <> Oracle.K_delete, value);
        let w = obs ~proc ~bucket:b ~seq:!seq ~kind ~key ~value () in
        Hashtbl.replace last_write (b, proc) (journal_of w);
        log := w :: !log
      end
      else begin
        let n = if int 2 = 0 then 1 else 1 + int (lo + per_bucket - key) in
        let read = List.init n (fun i -> entries.(key + i)) in
        let kind = if n = 1 && int 2 = 0 then Oracle.K_get else Oracle.K_scan in
        log := obs ~proc ~bucket:b ~seq:!seq ~kind ~key ~value:0 ~read () :: !log
      end
    done;
    opcounts.(b) <- !seq;
    logs.(b) <- List.rev !log
  done;
  let journal = ref (List.sort compare (Hashtbl.fold (fun _ j l -> j :: l) last_write [])) in
  let one_of b pred =
    match List.filter pred logs.(b) with
    | [] -> None
    | l -> Some (List.nth l (int (List.length l)))
  in
  let replace b pred by =
    Option.iter
      (fun victim ->
        logs.(b) <- List.concat_map (fun o -> if o == victim then by o else [ o ]) logs.(b))
      (one_of b pred)
  in
  let is_write o = Reference.is_write o.Oracle.o_kind in
  let is_read o = not (is_write o) in
  let any_seq b = int (opcounts.(b) + 5) - 2 in
  for _ = 1 to int 7 do
    let b = int buckets in
    match int 11 with
    | 0 ->
        replace b is_write (fun w ->
            if int 2 = 0 then begin
              journal := journal_of w :: !journal;
              if int 2 = 0 then killed := w.Oracle.o_proc :: !killed
            end;
            [])
    | 1 ->
        replace b is_write (fun w ->
            [ w; { w with Oracle.o_proc = int nprocs; o_value = int 50 } ])
    | 2 -> replace b is_write (fun w -> [ { w with Oracle.o_seq = any_seq b } ])
    | 3 -> replace b is_read (fun r -> [ { r with Oracle.o_seq = any_seq b } ])
    | 4 ->
        let flip (k, p, v) = if int 2 = 0 then (k, not p, v) else (k, p, v + 1) in
        replace b is_read (fun r -> [ { r with Oracle.o_read = List.map flip r.Oracle.o_read } ])
    | 5 ->
        let k = int keys in
        replace b
          (fun _ -> true)
          (fun o ->
            if is_write o then [ { o with Oracle.o_key = k } ]
            else
              [ { o with Oracle.o_read = List.map (fun (_, p, v) -> (k, p, v)) o.Oracle.o_read } ])
    | 6 ->
        replace b
          (fun _ -> true)
          (fun o -> [ { o with Oracle.o_bucket = int (buckets + 2) - 1 } ])
    | 7 ->
        let p = int nprocs in
        killed := if List.mem p !killed then List.filter (( <> ) p) !killed else p :: !killed
    | 8 -> (
        match !journal with
        | [] -> ()
        | l ->
            let j = List.nth l (int (List.length l)) in
            journal :=
              { j with Oracle.j_seq = any_seq b } :: List.filter (( != ) j) l)
    | 9 -> opcounts.(b) <- opcounts.(b) + pick [| -1; 1; 2 |]
    | _ ->
        let k = int keys in
        let _, p, v = entries.(k) in
        entries.(k) <- (if int 2 = 0 then (k, not p, v) else (k, p, v + 1))
  done;
  let log = ref [] and rest = Array.copy logs in
  while Array.exists (( <> ) []) rest do
    let b = int buckets in
    match rest.(b) with
    | o :: tl ->
        log := o :: !log;
        rest.(b) <- tl
    | [] -> ()
  done;
  let log = Array.of_list (List.rev !log) in
  if int 4 = 0 then
    for i = Array.length log - 1 downto 1 do
      let j = int (i + 1) in
      let o = log.(i) in
      log.(i) <- log.(j);
      log.(j) <- o
    done;
  {
    h_keys = keys;
    h_buckets = buckets;
    h_killed = List.sort_uniq compare !killed;
    h_journal = !journal;
    h_final =
      (if int 5 = 0 then None else Some { Oracle.f_entries = entries; f_opcounts = opcounts });
    h_log = Array.to_list log;
  }

let print_history h =
  let entries l =
    String.concat " "
      (List.map (fun (k, p, v) -> Printf.sprintf "%d=%s" k (if p then string_of_int v else "-")) l)
  in
  let journal (j : Oracle.journal_entry) =
    Printf.sprintf "journal: p%d %s key %d = %d (bucket %d, seq %d)" j.j_proc
      (Oracle.kind_name j.j_kind) j.j_key j.j_value j.j_bucket j.j_seq
  in
  let final =
    match h.h_final with
    | None -> [ "no final state" ]
    | Some f ->
        [
          "final op counters: "
          ^ String.concat " " (Array.to_list (Array.map string_of_int f.Oracle.f_opcounts));
          "final entries: " ^ entries (Array.to_list f.Oracle.f_entries);
        ]
  in
  String.concat "\n"
    ((Printf.sprintf "keys %d, buckets %d, killed [%s]" h.h_keys h.h_buckets
        (String.concat " " (List.map string_of_int h.h_killed))
     :: List.map journal h.h_journal)
    @ List.map
        (fun o ->
          Printf.sprintf "%s value %d read [%s]" (Oracle.describe o) o.Oracle.o_value
            (entries o.Oracle.o_read))
        h.h_log
    @ final)

let replay_matches_reference =
  QCheck.Test.make ~name:"the linear replay reports what the reference checker does" ~count:1000
    (QCheck.make ~print:print_history gen_history)
    (fun h ->
      let keys = h.h_keys and buckets = h.h_buckets and killed = h.h_killed in
      let journal = h.h_journal and final = h.h_final in
      let want = Reference.check ~keys ~buckets ~killed ~journal ~final h.h_log in
      let got = Oracle.check ~keys ~buckets ~killed ~journal ~final (Array.of_list h.h_log) in
      got = want
      || QCheck.Test.fail_reportf "replay:\n%s\nreference:\n%s" (String.concat "\n" got)
           (String.concat "\n" want))

(* --- the oracle against the real store: seeded mutation test ------------ *)

let run_store ?(cfg = Kv_workload.default) ?(nprocs = 4) ?(backend = Config.Rt) ?(sseed = 1)
    () =
  let mcfg = Config.make backend ~nprocs in
  let mcfg = { mcfg with Config.sched_policy = Engine.Seeded sseed } in
  let machine = R.create mcfg in
  let store, prog = Kv_workload.build machine cfg in
  R.run machine prog;
  (machine, store)

let test_oracle_mutation () =
  let machine, store = run_store () in
  Alcotest.(check (list string)) "unmutated run linearizes" [] (Kvstore.check store);
  let all = Kvstore.observations store in
  let gets =
    Array.to_list all
    |> List.filter (fun o -> o.Oracle.o_kind = Oracle.K_get && o.Oracle.o_read <> [])
  in
  Alcotest.(check bool) "run produced gets" true (List.length gets > 5);
  let prng = ref 0x2545F491 in
  let next n =
    prng := ((!prng * 1103515245) + 12345) land 0x3FFFFFFF;
    !prng lsr 7 mod n
  in
  let recheck mutated =
    Oracle.check ~keys:(Kvstore.keys store) ~buckets:(Kvstore.buckets store)
      ~killed:(R.killed_procs machine) ~journal:(Kvstore.journal store)
      ~final:(Some (Kvstore.final_state store))
      mutated
  in
  (* corrupt one observed get five different ways: flip the value, flip
     the presence — the oracle must reject every mutant *)
  for trial = 1 to 5 do
    let victim = List.nth gets (next (List.length gets)) in
    let mutated =
      Array.map
        (fun o ->
          if o == victim then
            {
              o with
              Oracle.o_read =
                (* the mutation must be observable: flipping presence
                   always contradicts the model; bumping the value only
                   does when the key is present *)
                List.map
                  (fun (k, p, v) ->
                    if trial mod 2 = 0 || not p then (k, not p, v) else (k, p, v + 1))
                  o.Oracle.o_read;
            }
          else o)
        all
    in
    match recheck mutated with
    | [] ->
        Alcotest.failf "mutant %d accepted: %s" trial (Oracle.describe victim)
    | _ -> ()
  done;
  (* and the untouched history still passes through the same path *)
  Alcotest.(check (list string)) "identity mutation accepted" [] (recheck all)

(* --- migration edge cases ----------------------------------------------- *)

let seeded_config ?(ecsan = true) backend sseed =
  let cfg = Config.make backend ~nprocs:4 in
  { cfg with Config.ecsan; sched_policy = Engine.Seeded sseed }

let sweep name w mk_cfg =
  List.iter
    (fun backend ->
      List.iter
        (fun sseed ->
          let j = Explore.execute w (mk_cfg backend sseed) in
          if j.Explore.j_failed then
            Alcotest.failf "%s [%s seed %d]: %s" name
              (Config.backend_name backend)
              sseed j.Explore.j_reason)
        [ 1; 2; 3 ])
    [ Config.Rt; Config.Vm ]

(* re-bind racing shared holders: read-heavy mix, frequent migrations *)
let test_migrate_under_readers () =
  let cfg =
    {
      Kv_workload.default with
      Kv_workload.ycsb = { Kv_workload.default.Kv_workload.ycsb with Ycsb.mix = Ycsb.mix_b };
      migrate_every = 5;
    }
  in
  sweep "migrate under shared readers"
    (Kv_workload.workload ~name:"kv-readers-migrate" cfg)
    (fun b s -> seeded_config b s)

(* re-bind while puts are in flight on the lossy reliable channel *)
let test_migrate_under_faults () =
  let cfg = { Kv_workload.default with Kv_workload.migrate_every = 5 } in
  sweep "migrate under message faults"
    (Kv_workload.workload ~name:"kv-faulty-migrate" cfg)
    (fun b s -> Config.with_faults ~drop:0.08 ~seed:(40 + s) (seeded_config b s))

(* re-bind composed with a crash of the previous owner: client 1 is
   crash-stopped mid-run while every client keeps re-homing buckets, so
   buckets whose owner died fail over and buckets migrated away from the
   victim keep serving.  The refinement oracle (journal-aware) must hold
   and the run must stay ECSan-clean. *)
let test_migrate_across_crash () =
  let cfg = { Kv_workload.default with Kv_workload.migrate_every = 8 } in
  sweep "migrate across owner crash"
    (Kv_workload.crashy_workload ~name:"kv-crash-migrate" cfg)
    (fun b s -> seeded_config b s)

(* --- latency percentiles ------------------------------------------------ *)

(* A kv run under [mcfg] with the event log armed. *)
let run_logged cfg mcfg =
  let machine = R.create { mcfg with Config.obs = true } in
  let store, prog = Kv_workload.build machine cfg in
  R.run machine prog;
  (machine, store)

(* The log's [Request] events as (op, sojourn time t1 - t0). *)
let request_events machine =
  match R.obs machine with
  | None -> Alcotest.fail "event log not armed"
  | Some o ->
      List.filter_map
        (function Event.Request { op; t0; t1; _ } -> Some (op, t1 - t0) | _ -> None)
        (Obs.events o)

(* p50/p95/p99 from the store's bucketed histogram must bracket the exact
   nearest-rank percentiles of the raw sojourn times of the event log's
   get requests.  The quantization bound: {!Metrics.latency_buckets}
   steps by at most ~1.8x, so [quantile] returns (lo, hi] with
   hi <= ~1.8*lo (hi is what the report prints — a conservative upper
   end). *)
let test_percentiles_vs_raw () =
  let cfg =
    {
      Kv_workload.default with
      Kv_workload.ycsb =
        { Kv_workload.default.Kv_workload.ycsb with Ycsb.requests = 120; seed = 21 };
      service_ns = 2_000;
    }
  in
  let machine, store = run_logged cfg (seeded_config ~ecsan:false Config.Rt 1) in
  Alcotest.(check (list string)) "run linearizes" [] (Kvstore.check store);
  let raw =
    request_events machine
    |> List.filter_map (fun (op, ns) -> if op = "get" then Some ns else None)
    |> List.sort compare |> Array.of_list
  in
  let n = Array.length raw in
  Alcotest.(check bool) "enough gets" true (n > 50);
  let snap = Metrics.snapshot (Kvstore.metrics store) in
  let hv =
    match Metrics.find_hist snap ~name:"kv_latency_ns" ~label:"get" with
    | Some hv -> hv
    | None -> Alcotest.fail "no get histogram"
  in
  Alcotest.(check int) "histogram saw every get" n hv.Metrics.h_count;
  List.iter
    (fun q ->
      let exact = raw.(max 0 (int_of_float (ceil (q *. float_of_int n)) - 1)) in
      let lo, hi = Metrics.quantile hv q in
      if not (lo < exact && exact <= hi) then
        Alcotest.failf "p%.0f: exact %d outside bucket (%d, %d]" (q *. 100.) exact lo hi;
      Alcotest.(check int) "reported percentile is the bracket's upper end" hi
        (Metrics.quantile_le hv q);
      (* documented quantization error: one ~1.8x bucket, above the
         1 microsecond floor *)
      if lo >= 1_000 then
        Alcotest.(check bool)
          (Printf.sprintf "p%.0f bracket within 1.8x" (q *. 100.))
          true
          (float_of_int hi <= (1.8 *. float_of_int lo) +. 1.))
    [ 0.5; 0.95; 0.99 ]

let test_quantile_units () =
  let m = Metrics.create () in
  (* 1000 observations of 1..1000 microseconds: exact percentiles known *)
  for i = 1 to 1000 do
    Metrics.observe m ~name:"h" ~label:"x" ~buckets:Metrics.latency_buckets (i * 1_000)
  done;
  let snap = Metrics.snapshot m in
  let hv =
    match Metrics.find_hist snap ~name:"h" ~label:"x" with
    | Some hv -> hv
    | None -> Alcotest.fail "no histogram"
  in
  List.iter
    (fun q ->
      let exact = int_of_float (ceil (q *. 1000.)) * 1_000 in
      let lo, hi = Metrics.quantile hv q in
      Alcotest.(check bool)
        (Printf.sprintf "q%.2f bracket (%d,%d] holds %d" q lo hi exact)
        true
        (lo < exact && exact <= hi))
    [ 0.01; 0.25; 0.5; 0.9; 0.95; 0.99; 1.0 ]

(* --- request views ------------------------------------------------------ *)

(* Each request is counted once, at its end.  A client's completed
   requests are the prefix of its stream whose observations it logged
   in full: one per get, put or delete and one per bucket a scan spans;
   a load completes none.  In two runs where a client dies mid-scan,
   the store's request count equals both that count and the number of
   the log's [Request] events, and each op's [kv_requests] count and
   [kv_latency_ns] sum equal the fold over its events. *)
let test_requests_counted_once () =
  let ycsb =
    {
      Kv_workload.default.Kv_workload.ycsb with
      Ycsb.mix = Ycsb.mix_e;
      max_scan = 40;
      requests = 100;
    }
  in
  let cfg = { Kv_workload.default with Kv_workload.ycsb } in
  List.iter
    (fun (backend, victim, at_ms) ->
      let what =
        Printf.sprintf "%s, p%d stopped at %d ms" (Config.backend_name backend) victim at_ms
      in
      let plan =
        Crash.scripted [ { Crash.at_ns = at_ms * 1_000_000; proc = victim; action = Crash.Stop } ]
      in
      let machine, store = run_logged cfg (Config.with_crash plan (Config.make backend ~nprocs:4)) in
      Alcotest.(check (list string)) (what ^ ": linearizes") [] (Kvstore.check store);
      let log = Array.to_list (Kvstore.observations store) in
      let completed = ref 0 in
      for p = 0 to 3 do
        let left =
          ref (List.filter (fun o -> o.Oracle.o_proc = p && o.Oracle.o_kind <> Oracle.K_load) log)
        in
        let cut = ref false in
        Array.iter
          (fun (r : Ycsb.req) ->
            let segments =
              match r.Ycsb.r_op with
              | Ycsb.Scan (lo, n) ->
                  Kvstore.bucket_of store (lo + n - 1) - Kvstore.bucket_of store lo + 1
              | _ -> 1
            in
            if (not !cut) && List.length !left >= segments then begin
              left := List.filteri (fun i _ -> i >= segments) !left;
              incr completed
            end
            else cut := true)
          (Ycsb.client_stream ycsb ~client:p);
        if p = victim then
          Alcotest.(check bool) (what ^ ": the victim left a scan unfinished") true (!left <> [])
        else Alcotest.(check int) (Printf.sprintf "%s: p%d finished" what p) 0 (List.length !left)
      done;
      let events = request_events machine in
      Alcotest.(check int) (what ^ ": request_count") !completed (Kvstore.request_count store);
      Alcotest.(check int) (what ^ ": Request events") !completed (List.length events);
      let snap = Metrics.snapshot (Kvstore.metrics store) in
      List.iter
        (fun op ->
          let mine = List.filter_map (fun (o, ns) -> if o = op then Some ns else None) events in
          Alcotest.(check int) (what ^ ": kv_requests " ^ op) (List.length mine)
            (Metrics.counter_value snap ~name:"kv_requests" ~label:op);
          Alcotest.(check int)
            (what ^ ": kv_latency_ns sum " ^ op)
            (List.fold_left ( + ) 0 mine)
            (match Metrics.find_hist snap ~name:"kv_latency_ns" ~label:op with
            | Some h -> h.Metrics.h_sum
            | None -> 0))
        [ "get"; "put"; "delete"; "scan"; "migrate"; "load" ])
    [ (Config.Rt, 1, 1); (Config.Vm, 2, 3) ]

(* --- cross-backend end-to-end ------------------------------------------- *)

(* the same seeded workload linearizes on both backends, and the two
   backends issue bit-identical request streams (the generator never
   consults the machine) *)
let test_backends_agree () =
  let _m_rt, s_rt = run_store ~backend:Config.Rt () in
  let _m_vm, s_vm = run_store ~backend:Config.Vm () in
  Alcotest.(check (list string)) "rt linearizes" [] (Kvstore.check s_rt);
  Alcotest.(check (list string)) "vm linearizes" [] (Kvstore.check s_vm);
  Alcotest.(check int) "same request count" (Kvstore.request_count s_rt)
    (Kvstore.request_count s_vm)

let () =
  Alcotest.run "kv"
    [
      ( "generator",
        [
          Alcotest.test_case "seeded determinism" `Quick test_gen_determinism;
          Alcotest.test_case "exact mix" `Quick test_gen_exact_mix;
          Alcotest.test_case "apportionment" `Quick test_apportion;
          qtest gen_property;
          Alcotest.test_case "zipfian chi-squared" `Quick test_gen_zipf_chi2;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "passing interleavings" `Quick test_oracle_passes;
          Alcotest.test_case "rejections" `Quick test_oracle_rejects;
          Alcotest.test_case "crash gaps" `Quick test_oracle_crash_gaps;
          Alcotest.test_case "read counters outside the committed prefix" `Quick
            test_oracle_read_counters;
          Alcotest.test_case "trailing journal writes" `Quick test_oracle_trailing_journal;
          qtest replay_matches_reference;
          Alcotest.test_case "seeded mutation" `Quick test_oracle_mutation;
        ] );
      ( "migration",
        [
          Alcotest.test_case "under shared readers" `Quick test_migrate_under_readers;
          Alcotest.test_case "under message faults" `Quick test_migrate_under_faults;
          Alcotest.test_case "across owner crash" `Quick test_migrate_across_crash;
        ] );
      ( "latency",
        [
          Alcotest.test_case "percentiles vs raw log" `Quick test_percentiles_vs_raw;
          Alcotest.test_case "quantile brackets" `Quick test_quantile_units;
          Alcotest.test_case "each request counted once, at its end" `Quick
            test_requests_counted_once;
        ] );
      ("backends", [ Alcotest.test_case "rt/vm agree" `Quick test_backends_agree ]);
    ]
