(* Detector conformance: whatever the write-detection scheme, crossing a
   synchronization point must leave the acquirer's copy of the bound data
   equal to the last committed writes.  One table of the seven
   configurations the fingerprint pins runs the same three-processor
   scenarios — a rotating exclusive writer, shared readers, a
   barrier-bound exchange (not under blast, which carries no barrier
   data) and the rebind reproducer of ROADMAP item 1 — and compares the
   bound bytes with a host-side model after every acquire and every
   barrier crossing. *)

module R = Midway.Runtime
module Range = Midway.Range
module Config = Midway.Config

let nprocs = 3

type scheme = {
  name : string;
  cfg : Config.t;
  barrier_data : bool;  (* blast ships no barrier-bound data *)
  rebind_loses_data : bool;  (* ROADMAP item 1: the update-queue rebind bug *)
}

let schemes =
  let rt mode =
    {
      name = "rt-" ^ Config.rt_mode_name mode;
      cfg = { (Config.make Config.Rt ~nprocs) with Config.rt_mode = mode };
      barrier_data = true;
      rebind_loses_data = mode = Config.Update_queue;
    }
  in
  let other backend =
    {
      name = Config.backend_name backend;
      cfg = Config.make backend ~nprocs;
      barrier_data = backend <> Config.Blast;
      rebind_loses_data = false;
    }
  in
  [
    rt Config.Plain;
    rt Config.Two_level;
    rt Config.Update_queue;
    other Config.Vm;
    other Config.Twin;
    other Config.Blast;
    other Config.Vm_fine;
  ]

(* Record every cell of [cells] at [base] that differs from [expected i]
   in this processor's copy. *)
let expect bad c ~what ~base ~cells expected =
  for i = 0 to cells - 1 do
    let got = R.read_int c (base + (i * 8)) in
    if got <> expected i then
      bad :=
        Printf.sprintf "%s: p%d cell %d = %d, expected %d" what (R.id c) i got (expected i)
        :: !bad
  done

let finish scheme machine ~scenario bad =
  Alcotest.(check (list string))
    (Printf.sprintf "%s/%s: bound bytes match the model" scheme.name scenario)
    [] (List.rev !bad);
  Alcotest.(check (list string))
    (Printf.sprintf "%s/%s: protocol invariants" scheme.name scenario)
    [] (R.check_invariants machine)

let cells = 24

(* The lock rotates p0 -> p1 -> p2 -> p0 ...; each holder checks the
   data, then overwrites four cells.  An unbound barrier sequences the
   rounds. *)
let rotating_writer scheme =
  let machine = R.create scheme.cfg in
  let data = R.alloc machine ~line_size:64 (cells * 8) in
  let lock = R.new_lock machine [ Range.v data (cells * 8) ] in
  let step = R.new_barrier machine [] in
  let model = Array.make cells 0 and bad = ref [] in
  R.run machine (fun c ->
      for round = 0 to 8 do
        if round mod nprocs = R.id c then begin
          R.acquire c lock;
          expect bad c ~what:(Printf.sprintf "round %d" round) ~base:data ~cells (Array.get model);
          for k = 0 to 3 do
            let i = ((round * 5) + k) mod cells and v = (round * 100) + k + 1 in
            R.write_int c (data + (i * 8)) v;
            model.(i) <- v
          done;
          R.release c lock
        end;
        R.barrier c step
      done);
  finish scheme machine ~scenario:"rotating writer" bad

(* One writer per round, then every processor takes the lock shared and
   checks what it received. *)
let shared_readers scheme =
  let machine = R.create scheme.cfg in
  let data = R.alloc machine ~line_size:64 (cells * 8) in
  let lock = R.new_lock machine [ Range.v data (cells * 8) ] in
  let step = R.new_barrier machine [] in
  let model = Array.make cells 0 and bad = ref [] in
  R.run machine (fun c ->
      for round = 0 to 5 do
        if round mod nprocs = R.id c then begin
          R.acquire c lock;
          for k = 0 to 5 do
            let i = ((round * 7) + (k * 3)) mod cells and v = (round * 1000) + k + 1 in
            R.write_int c (data + (i * 8)) v;
            model.(i) <- v
          done;
          R.release c lock
        end;
        R.barrier c step;
        R.acquire_read c lock;
        expect bad c ~what:(Printf.sprintf "round %d read" round) ~base:data ~cells
          (Array.get model);
        R.release c lock;
        R.barrier c step
      done);
  finish scheme machine ~scenario:"shared readers" bad

(* Each processor rewrites its own line-sized slot, crosses the barrier
   bound to all slots, and must then see every slot's new values. *)
let barrier_exchange scheme =
  let slot = cells / nprocs in
  let machine = R.create scheme.cfg in
  let data = R.alloc machine ~line_size:64 (cells * 8) in
  let bar = R.new_barrier machine [ Range.v data (cells * 8) ] in
  let value round i = ((round + 1) * 1000) + ((i / slot) * 100) + (i mod slot) in
  let bad = ref [] in
  R.run machine (fun c ->
      let me = R.id c in
      for round = 0 to 3 do
        for k = 0 to slot - 1 do
          let i = (me * slot) + k in
          R.write_int c (data + (i * 8)) (value round i)
        done;
        R.barrier c bar;
        expect bad c ~what:(Printf.sprintf "episode %d" round) ~base:data ~cells (value round)
      done);
  finish scheme machine ~scenario:"barrier exchange" bad

(* ROADMAP item 1's reproducer: p1 writes B = 7 under lock M; p0
   acquires M (pulling B); p0 rebinds lock L to cover B; p2 acquires L
   and reads B. *)
let rebind_reproducer scheme =
  let machine = R.create scheme.cfg in
  let b = R.alloc machine 8 and other = R.alloc machine 8 in
  let m = R.new_lock machine [ Range.v b 8 ] and l = R.new_lock machine [ Range.v other 8 ] in
  let step = R.new_barrier machine [] in
  let bad = ref [] and p2_reads = ref (-1) in
  let check c ~what ~base v = expect bad c ~what ~base ~cells:1 (fun _ -> v) in
  R.run machine (fun c ->
      let me = R.id c in
      if me = 1 then begin
        R.acquire c m;
        check c ~what:"p1 acquires M" ~base:b 0;
        R.write_int c b 7;
        R.release c m
      end;
      R.barrier c step;
      if me = 0 then begin
        R.acquire c m;
        check c ~what:"p0 acquires M" ~base:b 7;
        R.release c m;
        R.acquire c l;
        check c ~what:"p0 acquires L" ~base:other 0;
        R.rebind c l [ Range.v b 8 ];
        R.release c l
      end;
      R.barrier c step;
      if me = 2 then begin
        R.acquire c l;
        p2_reads := R.read_int c b;
        R.release c l
      end);
  finish scheme machine ~scenario:"rebind" bad;
  if scheme.rebind_loses_data then
    Alcotest.(check int)
      "ROADMAP item 1 (update-queue rebind bug): p2 still reads B = 0 after acquiring the \
       rebound lock; expect 7 once the fix lands"
      0 !p2_reads
  else Alcotest.(check int) "p2 reads B = 7 through the rebound lock" 7 !p2_reads

let conformance scheme () =
  rotating_writer scheme;
  shared_readers scheme;
  if scheme.barrier_data then barrier_exchange scheme;
  rebind_reproducer scheme

let () =
  Alcotest.run "detector"
    [
      ( "conformance",
        List.map (fun s -> Alcotest.test_case s.name `Quick (conformance s)) schemes );
    ]
