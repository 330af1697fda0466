(* The refinement oracle: does a concurrent KV run linearize to a
   centralized dictionary state machine?

   The store serializes every mutation of a bucket under that bucket's
   exclusive lock and stamps it with the bucket's own op counter (bound
   to the same lock), so the protocol itself hands us the linearization
   order: per bucket, the committed writes numbered 1..N.  Reads
   (get/scan) run under the lock in shared mode and record the op
   counter they observed — the write prefix whose effects they must
   see.  Dictionary operations on different buckets commute, so
   checking refinement per bucket checks it for the whole store.

   The checker replays each bucket's writes into a model dictionary in
   sequence order and verifies:
     - sequence integrity: no duplicate sequence numbers; a gap is
       admissible only when a killed processor's journal (the last-op
       record each processor keeps inside the bucket's bound metadata)
       supplies exactly the missing write — the one shape a crash can
       legally leave behind (effects committed by the release, the
       host-side log entry lost with the fiber);
     - every read matches the model at its observed prefix;
     - the converged final memory equals the model's final state, and
       the final op counters equal the highest committed sequence.

   Everything here is pure data — no simulator types — so the checker
   itself is testable on hand-written histories, including the seeded
   mutation tests that prove it rejects corrupted observations. *)

type kind =
  | K_get
  | K_put
  | K_delete
  | K_scan
  | K_migrate
  | K_load

let kind_name = function
  | K_get -> "get"
  | K_put -> "put"
  | K_delete -> "delete"
  | K_scan -> "scan"
  | K_migrate -> "migrate"
  | K_load -> "load"

let is_write = function
  | K_put | K_delete | K_migrate | K_load -> true
  | K_get | K_scan -> false

type obs = {
  o_proc : int;
  o_bucket : int;
  o_seq : int;  (* writes: the post-increment counter; reads: the counter seen *)
  o_kind : kind;
  o_key : int;
  o_value : int;  (* the value written; 0 for everything else *)
  o_read : (int * bool * int) list;  (* observed (key, present, value) *)
  o_sched_ns : int;  (* scheduled open-loop arrival *)
  o_start_ns : int;  (* service start (lock request issued) *)
  o_done_ns : int;  (* completion *)
}

type journal_entry = {
  j_bucket : int;
  j_proc : int;
  j_seq : int;
  j_kind : kind;
  j_key : int;
  j_value : int;
}

type final_state = {
  f_entries : (int * bool * int) array;  (* (key, present, value), every key once *)
  f_opcounts : int array;  (* per bucket *)
}

(* ------------------------------------------------------------------ *)

let pp_kind = kind_name

let describe o =
  Printf.sprintf "p%d %s key %d (bucket %d, seq %d)" o.o_proc (pp_kind o.o_kind) o.o_key
    o.o_bucket o.o_seq

(* One bucket's replay.  [writes] come in ascending committed sequence
   (1, 2, ...); reads are grouped by the sequence prefix they observed.
   The bucket's keys are [lo, hi), and the model is the per-key
   (present, value) map restricted to them. *)
let check_bucket ~bucket ~lo ~hi ~killed ~journal ~violations obs_list =
  let bad fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let in_bucket k = k >= lo && k < hi in
  let writes, reads = List.partition (fun o -> is_write o.o_kind) obs_list in
  let writes = List.stable_sort (fun a b -> Int.compare a.o_seq b.o_seq) writes in
  (* sequence integrity: strictly increasing from 1, gaps only where a
     killed processor's journal supplies the missing write *)
  let recovered = ref [] in
  let expected = ref 1 in
  let checked = ref [] in
  List.iter
    (fun w ->
      if w.o_seq < !expected then
        bad "bucket %d: duplicate sequence %d (%s)" bucket w.o_seq (describe w)
      else begin
        while w.o_seq > !expected do
          (* a hole: admissible only as a killed processor's last,
             journal-recorded op *)
          (match
             List.find_opt
               (fun j -> j.j_bucket = bucket && j.j_seq = !expected && List.mem j.j_proc killed)
               journal
           with
          | Some j ->
              recovered := j :: !recovered;
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
                  o_start_ns = 0;
                  o_done_ns = 0;
                }
                :: !checked
          | None ->
              bad "bucket %d: sequence gap at %d (next logged write is seq %d) not covered by \
                   any killed processor's journal"
                bucket !expected w.o_seq);
          incr expected
        done;
        checked := w :: !checked;
        incr expected
      end)
    writes;
  let writes = List.rev !checked in
  let max_seq = !expected - 1 in
  (* model replay + reads at each prefix *)
  let model : (int, bool * int) Hashtbl.t = Hashtbl.create 64 in
  let entry k = match Hashtbl.find_opt model k with Some e -> e | None -> (false, 0) in
  let check_read r =
    if r.o_seq > max_seq then
      bad "bucket %d: %s observed op counter %d but only %d write(s) ever committed" bucket
        (describe r) r.o_seq max_seq
    else
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
  let reads_at =
    (* reads grouped by observed prefix, checked as the replay passes it *)
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun r ->
        Hashtbl.replace tbl r.o_seq (r :: (Option.value (Hashtbl.find_opt tbl r.o_seq) ~default:[])))
      reads;
    tbl
  in
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
      | K_migrate -> ()  (* moves the bucket's home; the dictionary is unchanged *)
      | K_get | K_scan -> assert false);
      flush_reads w.o_seq)
    writes;
  (* reads whose prefix exceeds max_seq were already reported above *)
  (model, max_seq, List.length !recovered)

let check ~keys ~buckets ~killed ~journal ~final obs_list =
  let violations = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  if keys mod buckets <> 0 then bad "keys (%d) not divisible by buckets (%d)" keys buckets;
  let per_bucket = keys / buckets in
  let bucket_of k = k / per_bucket in
  (* every observation must name the bucket its key lives in *)
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
    let model, max_seq, _recovered =
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
