(* A sharded key-value store served over Midway entry consistency.

   The keyspace [0, keys) is partitioned into [buckets] equal shards.
   Each bucket owns three separately-allocated pieces of shared memory
   (separate allocations are cache-line aligned, so buckets never share
   a line and the RT backend sees no false sharing across shards):

     meta:   opcount (8B) | location (8B) | per-proc journal (32B each)
     area 0: slots_per_bucket x 16B slots  (present 8B | value 8B)
     area 1: ditto — the migration target

   One EC lock per bucket binds the meta block plus the *active* area
   (meta.location names which).  Every operation runs under that lock:
   mutations in exclusive mode, gets and scans in shared mode, so the
   lock is simultaneously the mutual exclusion, the consistency action
   (acquiring pulls exactly the bucket's current data) and the
   linearization point.

   The bucket's op counter lives inside the bound data, so the sequence
   of committed mutations is itself entry-consistent state: a mutation
   increments it under the exclusive hold, a read records the value it
   saw under the shared hold.  Those stamps are what the refinement
   oracle replays (see {!Oracle}).

   The journal is the crash-recovery witness: each processor's last
   committed mutation of the bucket, written inside the same critical
   section as the mutation itself.  A processor killed after its release
   committed but before the host-side log recorded the observation
   leaves a sequence gap that only its journal entry can explain.

   Migration re-homes a bucket to the calling processor by *re-binding*:
   widen the lock's binding to both areas, copy active -> inactive,
   flip meta.location, shrink the binding to the new area, release.
   Ownership follows the last holder, so the caller is now the owner
   and the old area is unbound cold storage until the next migration
   copies over it.  The widen-first order keeps ECSan happy: the target
   area is bound before the first store touches it. *)

module Runtime = Midway.Runtime
module Range = Midway.Range
module Sync = Midway.Sync
module Metrics = Midway_obs.Metrics

let slot_bytes = 16
let journal_bytes = 32

type t = {
  rt : Runtime.t;
  keys : int;
  buckets : int;
  per_bucket : int;
  nprocs : int;
  service_ns : int;  (* simulated service time inside each critical section *)
  meta : int array;  (* per-bucket metadata base address *)
  area : (int * int) array;  (* per-bucket (area0, area1) base addresses *)
  locks : Sync.lock array;
  mutable log : Oracle.obs array;  (* the first [logged] entries, oldest first *)
  mutable logged : int;
}

let meta_size nprocs = 16 + (nprocs * journal_bytes)
let area_size per_bucket = per_bucket * slot_bytes

let create ?(service_ns = 0) rt ~keys ~buckets =
  if keys <= 0 || buckets <= 0 then invalid_arg "Kvstore.create: keys and buckets must be > 0";
  if keys mod buckets <> 0 then
    invalid_arg "Kvstore.create: keys must divide evenly into buckets";
  let nprocs = (Runtime.config rt).Midway.Config.nprocs in
  let per_bucket = keys / buckets in
  let meta = Array.make buckets 0 in
  let area = Array.make buckets (0, 0) in
  let locks =
    Array.init buckets (fun b ->
        let m = Runtime.alloc rt (meta_size nprocs) in
        let a0 = Runtime.alloc rt (area_size per_bucket) in
        let a1 = Runtime.alloc rt (area_size per_bucket) in
        meta.(b) <- m;
        area.(b) <- (a0, a1);
        Runtime.new_lock rt ~owner:(b mod nprocs)
          [ Range.v m (meta_size nprocs); Range.v a0 (area_size per_bucket) ])
  in
  {
    rt;
    keys;
    buckets;
    per_bucket;
    nprocs;
    service_ns;
    meta;
    area;
    locks;
    log = [||];
    logged = 0;
  }

let keys t = t.keys
let buckets t = t.buckets
let bucket_of t key = key / t.per_bucket

let check_key t key =
  if key < 0 || key >= t.keys then invalid_arg "Kvstore: key outside the keyspace"

(* meta field addresses *)
let opcount_addr t b = t.meta.(b)
let location_addr t b = t.meta.(b) + 8
let journal_addr t b ~proc = t.meta.(b) + 16 + (proc * journal_bytes)

let slot_addr t b ~loc key =
  let a0, a1 = t.area.(b) in
  let base = if loc = 0 then a0 else a1 in
  base + ((key - (b * t.per_bucket)) * slot_bytes)

let kind_code = function
  | Oracle.K_get -> 0
  | Oracle.K_put -> 1
  | Oracle.K_delete -> 2
  | Oracle.K_scan -> 3
  | Oracle.K_migrate -> 4
  | Oracle.K_load -> 5

let kind_of_code = function
  | 1 -> Oracle.K_put
  | 2 -> Oracle.K_delete
  | 4 -> Oracle.K_migrate
  | 5 -> Oracle.K_load
  | c -> invalid_arg (Printf.sprintf "Kvstore: journal holds non-write kind code %d" c)

(* Journal the mutation inside the critical section, right next to the
   op-counter bump it describes. *)
let write_journal c t b ~seq ~kind ~key ~value =
  let j = journal_addr t b ~proc:(Runtime.id c) in
  Runtime.write_int c j seq;
  Runtime.write_int c (j + 8) (kind_code kind);
  Runtime.write_int c (j + 16) key;
  Runtime.write_int c (j + 24) value

(* Log one observation.  One that completes a client request carries
   its completion time and, when the machine's log is armed, emits a
   [Request] event; a load and a scan's segments before its last
   complete none and carry [o_done_ns = -1]. *)
let record t c ~kind ~bucket ~seq ~key ~value ~read ~sched ~completes =
  let o =
    {
      Oracle.o_proc = Runtime.id c;
      o_bucket = bucket;
      o_seq = seq;
      o_kind = kind;
      o_key = key;
      o_value = value;
      o_read = read;
      o_sched_ns = sched;
      o_done_ns = (if completes then Runtime.now_ns c else -1);
    }
  in
  t.log <- Midway_util.Grow.array t.log t.logged ~fill:o;
  t.log.(t.logged) <- o;
  t.logged <- t.logged + 1;
  if completes then
    Runtime.log_request c ~lock:t.locks.(bucket) ~op:(Oracle.kind_name kind) ~since:sched

let get c t ?sched_ns key =
  check_key t key;
  let sched = match sched_ns with Some s -> s | None -> Runtime.now_ns c in
  let b = bucket_of t key in
  let lk = t.locks.(b) in
  Runtime.acquire_read c lk;
  let seq = Runtime.read_int c (opcount_addr t b) in
  let loc = Runtime.read_int c (location_addr t b) in
  let s = slot_addr t b ~loc key in
  let present = Runtime.read_int c s <> 0 in
  let value = if present then Runtime.read_int c (s + 8) else 0 in
  if t.service_ns > 0 then Runtime.work_ns c t.service_ns;
  Runtime.release c lk;
  record t c ~kind:Oracle.K_get ~bucket:b ~seq ~key ~value:0 ~read:[ (key, present, value) ]
    ~sched ~completes:true;
  (present, value)

(* One mutation, one critical section: sequenced and journaled.  A load
   is a put with no service time that completes no request. *)
let mutate c t ~kind ?sched_ns key value =
  check_key t key;
  let sched = match sched_ns with Some s -> s | None -> Runtime.now_ns c in
  let b = bucket_of t key in
  let lk = t.locks.(b) in
  Runtime.acquire c lk;
  let seq = Runtime.read_int c (opcount_addr t b) + 1 in
  Runtime.write_int c (opcount_addr t b) seq;
  write_journal c t b ~seq ~kind ~key ~value;
  let loc = Runtime.read_int c (location_addr t b) in
  let s = slot_addr t b ~loc key in
  (match kind with
  | Oracle.K_put | Oracle.K_load ->
      Runtime.write_int c s 1;
      Runtime.write_int c (s + 8) value
  | Oracle.K_delete ->
      Runtime.write_int c s 0;
      Runtime.write_int c (s + 8) 0
  | _ -> assert false);
  let request = kind <> Oracle.K_load in
  if t.service_ns > 0 && request then Runtime.work_ns c t.service_ns;
  Runtime.release c lk;
  record t c ~kind ~bucket:b ~seq ~key ~value ~read:[] ~sched ~completes:request

let put c t ?sched_ns key value = mutate c t ~kind:Oracle.K_put ?sched_ns key value
let delete c t ?sched_ns key = mutate c t ~kind:Oracle.K_delete ?sched_ns key 0

(* The initial population: one critical section per seed pair.  One
   pair per section is a crash-safety invariant, not a style choice:
   effects commit at the release, the host-side observation is logged
   after it, and a killed processor's journal witnesses only its *last*
   committed op — so a critical section must never commit more writes
   than the journal can explain, or a crash landing inside it leaves
   either logged-but-uncommitted observations or committed-but-
   unexplainable sequence gaps, and the oracle rightly rejects the
   run. *)
let load c t pairs = List.iter (fun (k, v) -> mutate c t ~kind:Oracle.K_load k v) pairs

(* A scan is per-bucket atomic: each bucket's segment reads under its
   own shared hold (never two locks at once — no deadlock by
   construction), observing that bucket's prefix.  Observations record
   present *and* absent keys so the oracle checks both. *)
let scan c t ?sched_ns ~lo ~n () =
  if n <= 0 then invalid_arg "Kvstore.scan: n must be > 0";
  check_key t lo;
  let hi = Int.min t.keys (lo + n) in
  let sched = match sched_ns with Some s -> s | None -> Runtime.now_ns c in
  let out = ref [] in
  let b0 = bucket_of t lo and b1 = bucket_of t (hi - 1) in
  for b = b0 to b1 do
    let klo = Int.max lo (b * t.per_bucket) in
    let khi = Int.min hi ((b + 1) * t.per_bucket) in
    let lk = t.locks.(b) in
    Runtime.acquire_read c lk;
    let seq = Runtime.read_int c (opcount_addr t b) in
    let loc = Runtime.read_int c (location_addr t b) in
    let seen = ref [] in
    for k = khi - 1 downto klo do
      let s = slot_addr t b ~loc k in
      let present = Runtime.read_int c s <> 0 in
      let v = if present then Runtime.read_int c (s + 8) else 0 in
      seen := (k, present, v) :: !seen;
      if present then out := (k, v) :: !out
    done;
    if t.service_ns > 0 then Runtime.work_ns c t.service_ns;
    Runtime.release c lk;
    record t c ~kind:Oracle.K_scan ~bucket:b ~seq ~key:klo ~value:0 ~read:!seen ~sched
      ~completes:(b = b1)
  done;
  List.rev !out

(* Copy active -> target, slot by slot.  The broken variant is the
   fuzzer's prey: it moves the values but forgets the presence flags, so
   every key the bucket held reads absent after the flip — a determin-
   istic refinement bug that is invisible to ECSan (every store is to
   bound data under the exclusive hold). *)
let copy_area c t b ~src_loc ~broken =
  let lo = b * t.per_bucket in
  for k = lo to lo + t.per_bucket - 1 do
    let s = slot_addr t b ~loc:src_loc k in
    let d = slot_addr t b ~loc:(1 - src_loc) k in
    if not broken then Runtime.write_int c d (Runtime.read_int c s);
    Runtime.write_int c (d + 8) (Runtime.read_int c (s + 8))
  done

let migrate ?(broken = false) c t b =
  if b < 0 || b >= t.buckets then invalid_arg "Kvstore.migrate: no such bucket";
  let sched = Runtime.now_ns c in
  let lk = t.locks.(b) in
  let m = t.meta.(b) in
  let a0, a1 = t.area.(b) in
  Runtime.acquire c lk;
  let seq = Runtime.read_int c (opcount_addr t b) + 1 in
  Runtime.write_int c (opcount_addr t b) seq;
  write_journal c t b ~seq ~kind:Oracle.K_migrate ~key:(b * t.per_bucket)
    ~value:(Runtime.id c);
  let loc = Runtime.read_int c (location_addr t b) in
  (* widen the binding over both areas *before* the first store into the
     target, then copy, flip, and shrink to the new home *)
  Runtime.rebind c lk
    [
      Range.v m (meta_size t.nprocs);
      Range.v a0 (area_size t.per_bucket);
      Range.v a1 (area_size t.per_bucket);
    ];
  copy_area c t b ~src_loc:loc ~broken;
  Runtime.write_int c (location_addr t b) (1 - loc);
  let dst = if loc = 0 then a1 else a0 in
  Runtime.rebind c lk [ Range.v m (meta_size t.nprocs); Range.v dst (area_size t.per_bucket) ];
  if t.service_ns > 0 then Runtime.work_ns c t.service_ns;
  Runtime.release c lk;
  record t c ~kind:Oracle.K_migrate ~bucket:b ~seq ~key:(b * t.per_bucket)
    ~value:(Runtime.id c) ~read:[] ~sched ~completes:true

(* Pull every bucket once in read mode so this processor's copies are
   current before the host-side oracle looks — and so any bucket whose
   owner crash-stopped fails over to a live processor (the failover
   reverts to the last released snapshot, i.e. exactly the committed
   prefix). *)
let read_sweep c t =
  for b = 0 to t.buckets - 1 do
    Runtime.acquire_read c t.locks.(b);
    Runtime.release c t.locks.(b)
  done

(* ------------------------------------------------------------------ *)
(* Host-side extraction for the oracle                                 *)
(* ------------------------------------------------------------------ *)

let observations t = Array.sub t.log 0 t.logged
let observation_count t = t.logged

(* The request views fold the log: an observation counts once when it
   completes a request ([o_done_ns >= 0]), under its kind. *)
let request_count t =
  let n = ref 0 in
  for i = 0 to t.logged - 1 do
    if t.log.(i).Oracle.o_done_ns >= 0 then incr n
  done;
  !n

let metrics t =
  let m = Metrics.create () in
  for i = 0 to t.logged - 1 do
    let o = t.log.(i) in
    if o.Oracle.o_done_ns >= 0 then begin
      let label = Oracle.kind_name o.Oracle.o_kind in
      Metrics.incr m ~name:"kv_requests" ~label 1;
      Metrics.observe m ~name:"kv_latency_ns" ~label ~buckets:Metrics.latency_buckets
        (o.Oracle.o_done_ns - o.Oracle.o_sched_ns)
    end
  done;
  m

(* Read the authoritative copy of bucket [b]: the lock owner's memory.
   After a run with crashes the owner is live whenever any live
   processor touched the lock after the crash (the read sweep guarantees
   that), and its copy is the last-released — committed — state. *)
let owner_copy t b =
  let sp = Runtime.space t.rt in
  let owner = t.locks.(b).Sync.owner in
  fun addr -> Midway_memory.Space.get_int sp ~proc:owner addr

let journal t =
  let out = ref [] in
  for b = t.buckets - 1 downto 0 do
    let rd = owner_copy t b in
    for p = t.nprocs - 1 downto 0 do
      let j = journal_addr t b ~proc:p in
      let seq = rd j in
      if seq > 0 then
        out :=
          {
            Oracle.j_bucket = b;
            j_proc = p;
            j_seq = seq;
            j_kind = kind_of_code (rd (j + 8));
            j_key = rd (j + 16);
            j_value = rd (j + 24);
          }
          :: !out
    done
  done;
  !out

let final_state t =
  let entries = Array.make t.keys (0, false, 0) in
  let opcounts = Array.make t.buckets 0 in
  for b = 0 to t.buckets - 1 do
    let rd = owner_copy t b in
    opcounts.(b) <- rd (opcount_addr t b);
    let loc = rd (location_addr t b) in
    for k = b * t.per_bucket to ((b + 1) * t.per_bucket) - 1 do
      let s = slot_addr t b ~loc k in
      let present = rd s <> 0 in
      entries.(k) <- (k, present, (if present then rd (s + 8) else 0))
    done
  done;
  { Oracle.f_entries = entries; f_opcounts = opcounts }

let check t =
  Oracle.check ~keys:t.keys ~buckets:t.buckets ~killed:(Runtime.killed_procs t.rt)
    ~journal:(journal t) ~final:(Some (final_state t)) ~len:t.logged t.log

let digest t =
  let f = final_state t in
  let buf = Buffer.create 256 in
  Array.iter
    (fun (k, present, v) -> if present then Buffer.add_string buf (Printf.sprintf "%d=%d;" k v))
    f.Oracle.f_entries;
  Buffer.add_string buf
    (Printf.sprintf "ops=%s;killed=%s"
       (String.concat "," (Array.to_list (Array.map string_of_int f.Oracle.f_opcounts)))
       (String.concat "," (List.map string_of_int (Runtime.killed_procs t.rt))));
  Buffer.contents buf
