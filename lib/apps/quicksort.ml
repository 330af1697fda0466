module R = Midway.Runtime
module Range = Midway.Range

type params = { n : int; threshold : int; slots : int }

let default = { n = 250_000; threshold = 1_000; slots = 1_024 }

let scaled f =
  let n = max 256 (int_of_float (250_000.0 *. f)) in
  let threshold = max 16 (int_of_float (1_000.0 *. f)) in
  { n; threshold; slots = max 128 (4 * n / threshold) }

let input_value seed i =
  let h = (i * 2654435761) + seed in
  (h lxor (h lsr 13)) land 0xFFFFFF

(* Shared-memory layout of the task-queue state (all bound to the queue
   lock), in 32-bit words so the whole structure fits one VM page:
   [0] head  [1] count  [2] outstanding
   [3 .. 3+slots) ring buffer of ready slot indices.
   Task slots themselves are never recycled: each processor draws from
   its own private pool, so slot allocation needs no shared state. *)
let q_head = 0

let q_count = 1

let q_outstanding = 2

let run cfg { n; threshold; slots } =
  let machine = R.create cfg in
  let nprocs = cfg.Midway.Config.nprocs in
  let seed = cfg.Midway.Config.seed in
  (* Element-size cache lines: task boundaries fall at arbitrary indices,
     so any larger unit of coherency would false-share across segment
     edges — precisely the tunability the paper credits to RT-DSM. *)
  let array = R.alloc machine ~line_size:8 (n * 8) in
  let elem i = array + (i * 8) in
  (* Task descriptors: 16 bytes (lo, hi), one cache line each. *)
  let descr = R.alloc machine ~line_size:16 (slots * 16) in
  let descr_addr s = descr + (s * 16) in
  let qwords = 3 + slots in
  let qstate = R.alloc machine ~line_size:8 (qwords * 4) in
  let qaddr w = qstate + (w * 4) in
  let progress = R.alloc machine ~private_:true (nprocs * 8) in
  let queue_lock = R.new_lock machine [ Range.v qstate (qwords * 4) ] in
  (* Each slot lock starts at the processor whose private pool it
     belongs to, so claiming a fresh slot is a local acquisition. *)
  let span = slots / nprocs in
  let slot_lock =
    Array.init slots (fun s ->
        R.new_lock machine
          ~owner:(min (nprocs - 1) (s / span))
          [ Range.v (descr_addr s) 16 ])
  in
  let start_bar = R.new_barrier machine [] in
  let done_bar = R.new_barrier machine [] in
  (* Host-side log of final segments, for verification only. *)
  let segments = ref [] in
  R.run machine (fun c ->
      let me = R.id c in
      let cycles = R.work_cycles c in
      (* --- queue helpers (caller must hold the queue lock) --- *)
      let q_get w = Int32.to_int (R.read_i32 c (qaddr w)) in
      let q_set w v = R.write_i32 c (qaddr w) (Int32.of_int v) in
      let push_ready s =
        let head = q_get q_head and count = q_get q_count in
        q_set (3 + ((head + count) mod slots)) s;
        q_set q_count (count + 1)
      in
      let pop_ready () =
        let count = q_get q_count in
        if count = 0 then None
        else begin
          let head = q_get q_head in
          let s = q_get (3 + (head mod slots)) in
          q_set q_head (head + 1);
          q_set q_count (count - 1);
          Some s
        end
      in
      (* --- private slot pool: processor p owns [p*span, p*span+span) --- *)
      let next_slot = ref ((me * span) + if me = 0 then 1 else 0) in
      let fresh_slot () =
        if !next_slot >= (me + 1) * span then failwith "quicksort: out of task slots";
        let s = !next_slot in
        incr next_slot;
        s
      in
      (* completions are folded into the next queue-lock critical section *)
      let finished = ref 0 in
      if me = 0 then begin
        (* Build the input and the root task (slot 0). *)
        R.acquire c slot_lock.(0);
        for i = 0 to n - 1 do
          R.write_int c (elem i) (input_value seed i)
        done;
        cycles (n * 4);
        R.write_int c (descr_addr 0) 0;
        R.write_int c (descr_addr 0 + 8) n;
        R.rebind c slot_lock.(0) [ Range.v (descr_addr 0) 16; Range.v array (n * 8) ];
        R.release c slot_lock.(0);
        R.acquire c queue_lock;
        q_set q_head 0;
        q_set q_count 0;
        q_set q_outstanding 1;
        push_ready 0;
        R.release c queue_lock
      end;
      R.barrier c start_bar;
      let tasks_done = ref 0 in
      (* --- sorting primitives over the shared array --- *)
      let bubblesort lo hi =
        (* The paper's leaf sort: bubble sort with its compare-and-swap
           inner loop, run on a private copy (private memory is not
           instrumented), with a single write-back of the sorted data.
           The simulated processor runs the bubble sort, whose cost does
           not depend on the data: the pass over [last + 1] elements
           costs [last * 6] cycles, [3 * len * (len - 1)] in all.  The
           host sorts the copy to the same result with a merge sort,
           faster than [Array.sort]'s heap sort and allocating less. *)
        let len = hi - lo in
        let buf = Array.init len (fun i -> R.read_int c (elem (lo + i))) in
        Array.stable_sort Int.compare buf;
        cycles (3 * len * (len - 1));
        Array.iteri (fun i v -> R.write_int c (elem (lo + i)) v) buf
      in
      let partition lo hi =
        (* Hoare partition with a median-of-three pivot; returns m with
           lo < m < hi such that [lo,m) <= pivot <= [m,hi). *)
        let mid = (lo + hi) / 2 in
        let a = R.read_int c (elem lo)
        and b = R.read_int c (elem mid)
        and d = R.read_int c (elem (hi - 1)) in
        let pivot = max (min a b) (min (max a b) d) in
        let i = ref (lo - 1) and j = ref hi in
        let m = ref 0 in
        let continue = ref true in
        while !continue do
          incr i;
          while R.read_int c (elem !i) < pivot do
            incr i
          done;
          decr j;
          while R.read_int c (elem !j) > pivot do
            decr j
          done;
          if !i >= !j then begin
            m := !j + 1;
            continue := false
          end
          else begin
            let vi = R.read_int c (elem !i) and vj = R.read_int c (elem !j) in
            R.write_int c (elem !i) vj;
            R.write_int c (elem !j) vi
          end
        done;
        cycles ((hi - lo) * 6);
        (* Guarantee progress on degenerate inputs. *)
        if !m <= lo then lo + 1 else if !m >= hi then hi - 1 else !m
      in
      (* Process a task we hold (slot lock acquired): keep splitting,
         handing right halves to fresh slots, until the left half is small
         enough to bubble sort. *)
      let process_task s =
        let lo = ref (R.read_int c (descr_addr s)) in
        let hi = ref (R.read_int c (descr_addr s + 8)) in
        while !hi - !lo > threshold do
          let m = partition !lo !hi in
          (* Hand the right half to a slot from the private pool. *)
          let s2 = fresh_slot () in
          R.acquire c slot_lock.(s2);
          R.write_int c (descr_addr s2) m;
          R.write_int c (descr_addr s2 + 8) !hi;
          R.rebind c slot_lock.(s2)
            [ Range.v (descr_addr s2) 16; Range.v (elem m) ((!hi - m) * 8) ];
          R.release c slot_lock.(s2);
          R.acquire c queue_lock;
          q_set q_outstanding (q_get q_outstanding + 1);
          push_ready s2;
          R.release c queue_lock;
          (* Keep the left half on this slot. *)
          R.write_int c (descr_addr s) !lo;
          R.write_int c (descr_addr s + 8) m;
          R.rebind c slot_lock.(s) [ Range.v (descr_addr s) 16; Range.v (elem !lo) ((m - !lo) * 8) ];
          hi := m
        done;
        bubblesort !lo !hi;
        segments := (!lo, !hi, me) :: !segments;
        incr tasks_done;
        incr finished;
        (* Misclassified private progress write, as real programs show. *)
        R.write_int c (progress + (me * 8)) !tasks_done;
        (* Shrink the binding to the descriptor: the sorted data stays
           here, and nothing should drag it around later. *)
        R.rebind c slot_lock.(s) [ Range.v (descr_addr s) 16 ];
        R.release c slot_lock.(s)
      in
      let running = ref true in
      (* Exponential backoff while the queue is starved (e.g. during the
         serial first partitions): polling the queue transfers its lock
         and, under VM-DSM, refaults its page every time. *)
      let backoff = ref 1_000_000 in
      while !running do
        R.acquire c queue_lock;
        if !finished > 0 then begin
          q_set q_outstanding (q_get q_outstanding - !finished);
          finished := 0
        end;
        match pop_ready () with
        | Some s ->
            R.release c queue_lock;
            backoff := 1_000_000;
            R.acquire c slot_lock.(s);
            process_task s
        | None ->
            let outstanding = q_get q_outstanding in
            R.release c queue_lock;
            if outstanding = 0 then running := false
            else begin
              R.work_ns c !backoff;
              backoff := min (2 * !backoff) 64_000_000
            end
      done;
      R.barrier c done_bar);
  (* --- verification: the final segments partition the array, each is
     sorted in its finisher's copy, and the multiset is preserved. --- *)
  let segs = List.sort compare !segments in
  let ok = ref true in
  let note = ref "" in
  let fail msg =
    if !ok then note := msg;
    ok := false
  in
  let cursor = ref 0 in
  let last_max = ref min_int in
  let sum = ref 0 and sum0 = ref 0 in
  List.iter
    (fun (lo, hi, p) ->
      if lo <> !cursor then fail (Printf.sprintf "gap: expected segment at %d, got %d" !cursor lo);
      cursor := hi;
      let prev = ref min_int in
      for i = lo to hi - 1 do
        let v = Common.read_int_direct machine ~proc:p (elem i) in
        sum := !sum + v;
        if v < !prev then fail (Printf.sprintf "unsorted at %d" i);
        prev := max !prev v
      done;
      if !last_max > Common.read_int_direct machine ~proc:p (elem lo) then
        fail (Printf.sprintf "segment boundary disorder at %d" lo);
      last_max := !prev)
    segs;
  if !cursor <> n then fail "segments do not cover the array";
  for i = 0 to n - 1 do
    sum0 := !sum0 + input_value seed i
  done;
  if !sum <> !sum0 then fail "element multiset changed";
  if not !ok then Printf.eprintf "quicksort: %s\n%!" !note;
  Outcome.v ~app:"quicksort" ~machine ~ok:!ok
    ~notes:
      [
        Printf.sprintf "n=%d, threshold=%d, %d leaf segments" n threshold (List.length segs);
      ]
