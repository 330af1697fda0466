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
     - sequence integrity: no duplicate sequence numbers; a missing
       sequence number, inside the run or after its last logged write,
       is admissible only when a killed processor's journal (the
       last-op record each processor keeps inside the bucket's bound
       metadata) supplies exactly the missing write — the one shape a
       crash can legally leave behind (effects committed by the
       release, the host-side log entry lost with the fiber);
     - every read observed a counter in [0, committed] and matches the
       model at that prefix;
     - the converged final memory equals the model's final state, and
       the final op counters equal the highest committed sequence.

   The replay is linear in the log and allocates nothing per
   observation: one counting sort groups the log by (bucket, write or
   read) in log order, a bucket's writes are sorted only when they do
   not already ascend, a second counting sort groups a bucket's reads
   by observed prefix, and the model is a presence and a value array
   indexed by [key - lo] (a bucket's keys are contiguous).

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
  o_done_ns : int;  (* completion; -1 when it completes no request *)
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

let describe o =
  Printf.sprintf "p%d %s key %d (bucket %d, seq %d)" o.o_proc (kind_name o.o_kind) o.o_key
    o.o_bucket o.o_seq

let show present v = if present then string_of_int v else "absent"

(* [by.(first.(g)) .. by.(first.(g + 1) - 1)] are the indices [i] of
   [0, n) with [group i = g], ascending: a stable counting sort into
   [groups] groups ([group i < 0] drops [i]). *)
let counting_sort ~groups ~n group =
  let first = Array.make (groups + 1) 0 in
  for i = 0 to n - 1 do
    let g = group i in
    if g >= 0 then first.(g + 1) <- first.(g + 1) + 1
  done;
  for g = 1 to groups do
    first.(g) <- first.(g) + first.(g - 1)
  done;
  let by = Array.make first.(groups) 0 in
  let next = Array.sub first 0 groups in
  for i = 0 to n - 1 do
    let g = group i in
    if g >= 0 then begin
      by.(next.(g)) <- i;
      next.(g) <- next.(g) + 1
    end
  done;
  (first, by)

let check ~keys ~buckets ~killed ~journal ~final ?len log =
  let len = Option.value len ~default:(Array.length log) in
  let violations = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  if keys mod buckets <> 0 then bad "keys (%d) not divisible by buckets (%d)" keys buckets;
  let per_bucket = keys / buckets in
  let bucket_of k = k / per_bucket in
  (* every observation must name the bucket its key lives in *)
  for i = 0 to len - 1 do
    let o = log.(i) in
    if o.o_key < 0 || o.o_key >= keys then
      bad "%s: key outside the keyspace [0, %d)" (describe o) keys
    else if o.o_bucket <> bucket_of o.o_key then
      bad "%s: key %d lives in bucket %d" (describe o) o.o_key (bucket_of o.o_key)
  done;
  (* group 2b: bucket b's writes, group 2b + 1: its reads, in log order *)
  let first, order =
    counting_sort ~groups:(2 * buckets) ~n:len (fun i ->
        let o = log.(i) in
        if o.o_bucket < 0 || o.o_bucket >= buckets then -1
        else (2 * o.o_bucket) + if is_write o.o_kind then 0 else 1)
  in
  let final_first, final_order =
    match final with
    | None -> ([||], [||])
    | Some f ->
        counting_sort ~groups:buckets ~n:(Array.length f.f_entries) (fun i ->
            let k, _, _ = f.f_entries.(i) in
            if k < 0 || k >= keys || bucket_of k >= buckets then -1 else bucket_of k)
  in
  (* the model and the checked write sequence, shared by the buckets *)
  let present = Array.make per_bucket false and value = Array.make per_bucket 0 in
  let checked = ref [||] in
  for b = 0 to buckets - 1 do
    let lo = b * per_bucket in
    let w0 = first.(2 * b) and r0 = first.((2 * b) + 1) and r1 = first.((2 * b) + 2) in
    (* the writes in ascending sequence, stable: most logs already are *)
    let ascending = ref true in
    for i = w0 + 1 to r0 - 1 do
      if log.(order.(i)).o_seq < log.(order.(i - 1)).o_seq then ascending := false
    done;
    if not !ascending then begin
      let sorted = Array.sub order w0 (r0 - w0) in
      Array.stable_sort (fun i j -> Int.compare log.(i).o_seq log.(j).o_seq) sorted;
      Array.blit sorted 0 order w0 (r0 - w0)
    end;
    (* sequence integrity: strictly increasing from 1, holes only where
       a killed processor's journal supplies the missing write *)
    let n = ref 0 and expected = ref 1 in
    let admit w =
      checked := Midway_util.Grow.array !checked !n ~fill:w;
      !checked.(!n) <- w;
      incr n
    in
    let recover () =
      match
        List.find_opt
          (fun j -> j.j_bucket = b && j.j_seq = !expected && List.mem j.j_proc killed)
          journal
      with
      | Some j ->
          admit
            {
              o_proc = j.j_proc;
              o_bucket = b;
              o_seq = j.j_seq;
              o_kind = j.j_kind;
              o_key = j.j_key;
              o_value = j.j_value;
              o_read = [];
              o_sched_ns = 0;
              o_done_ns = 0;
            };
          true
      | None -> false
    in
    for i = w0 to r0 - 1 do
      let w = log.(order.(i)) in
      if w.o_seq < !expected then
        bad "bucket %d: duplicate sequence %d (%s)" b w.o_seq (describe w)
      else begin
        while w.o_seq > !expected do
          if not (recover ()) then
            bad
              "bucket %d: sequence gap at %d (next logged write is seq %d) not covered by any \
               killed processor's journal"
              b !expected w.o_seq;
          incr expected
        done;
        admit w;
        incr expected
      end
    done;
    (* a killed processor's committed writes after the last logged one *)
    while recover () do
      incr expected
    done;
    let max_seq = !expected - 1 in
    for i = r0 to r1 - 1 do
      let r = log.(order.(i)) in
      if r.o_seq < 0 then
        bad "bucket %d: %s observed a negative op counter %d" b (describe r) r.o_seq
      else if r.o_seq > max_seq then
        bad "bucket %d: %s observed op counter %d but only %d write(s) ever committed" b
          (describe r) r.o_seq max_seq
    done;
    (* the other reads by observed prefix, each prefix's in log order *)
    let at, by_prefix =
      counting_sort ~groups:(max_seq + 1) ~n:(r1 - r0) (fun i ->
          let s = log.(order.(r0 + i)).o_seq in
          if s > max_seq then -1 else s)
    in
    (* model replay, checking each prefix's reads as the replay passes it *)
    Array.fill present 0 per_bucket false;
    let rec check_read r = function
      | [] -> ()
      | (k, p, v) :: rest ->
          (if k < lo || k >= lo + per_bucket then
             bad "bucket %d: %s returned key %d outside the bucket" b (describe r) k
           else
             let mp = present.(k - lo) in
             let mv = if mp then value.(k - lo) else 0 in
             if p <> mp || (p && v <> mv) then
               bad "bucket %d: %s observed key %d = %s but the dictionary says %s" b
                 (describe r) k (show p v) (show mp mv));
          check_read r rest
    in
    let flush s =
      for i = at.(s) to at.(s + 1) - 1 do
        let r = log.(order.(r0 + by_prefix.(i))) in
        check_read r r.o_read
      done
    in
    flush 0;
    for i = 0 to !n - 1 do
      let w = !checked.(i) in
      let k = w.o_key - lo in
      let inside = k >= 0 && k < per_bucket in
      if (not inside) && w.o_kind <> K_migrate then
        bad "bucket %d: %s writes a key outside the bucket" b (describe w);
      (match w.o_kind with
      | K_put | K_load ->
          if inside then begin
            present.(k) <- true;
            value.(k) <- w.o_value
          end
      | K_delete -> if inside then present.(k) <- false
      | K_migrate -> ()  (* moves the bucket's home; the dictionary is unchanged *)
      | K_get | K_scan -> assert false);
      flush w.o_seq
    done;
    match final with
    | None -> ()
    | Some f ->
        if f.f_opcounts.(b) <> max_seq then
          bad "bucket %d: final op counter is %d but %d write(s) committed" b f.f_opcounts.(b)
            max_seq;
        for i = final_first.(b) to final_first.(b + 1) - 1 do
          let k, p, v = f.f_entries.(final_order.(i)) in
          let mp = present.(k - lo) in
          let mv = if mp then value.(k - lo) else 0 in
          if p <> mp || (p && v <> mv) then
            bad "bucket %d: final state of key %d is %s but the dictionary says %s" b k (show p v)
              (show mp mv)
        done
  done;
  List.rev !violations
