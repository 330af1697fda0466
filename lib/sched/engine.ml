open Effect.Deep

(* The run queue: a binary min-heap of processor ids ordered by (key,
   sequence number), the key being the virtual time the processor is due
   to resume at and the sequence number its insertion order, so equal
   keys pop first in, first out.  A processor is queued at most once (it
   is either running, parked on a block nobody has woken yet, or due), so
   three arrays of [nprocs] ints, indexed by heap position, hold it all. *)
type queue = {
  ids : int array;
  keys : int array;
  seqs : int array;
  mutable size : int;
  mutable next_seq : int;
}

type proc = {
  id : int;
  queue : queue;  (* the engine's run queue: [yield] and [wake] push here *)
  mutable clock : int;
  mutable finished : bool;
  mutable blocked_reason : (unit -> string) option;  (* set by each block, read by [Deadlock] *)
  mutable parked : (unit, unit) continuation option;  (* Some while suspended *)
  mutable waiting : bool;  (* blocked, and [wake] not called yet *)
  wake : at:int -> unit;  (* this processor's waker, built once *)
}

(* Tie-break policy: which runnable fiber goes first when several are
   ready at the same virtual time.  Fifo, the default, is a bare pop of
   the run queue.  The other policies drive the schedule explorer:
   Seeded picks uniformly among tied fibers from a private PRNG, Replay
   consumes a recorded choice list. *)
type policy = Fifo | Seeded of int | Replay of int list

type chooser = {
  prng : Midway_util.Prng.t option;  (* Some for Seeded *)
  mutable replaying : int list;  (* remaining choices to replay *)
  mutable recorded_rev : int list;  (* every applied choice, newest first *)
  mutable n_recorded : int;
  tied_ids : int array;  (* the candidates of one tie-break, reused *)
  tied_seqs : int array;
}

type t = {
  n : int;
  procs : proc array;
  runq : queue;
  bodies : (proc -> unit) option array;  (* cleared as each fiber starts *)
  mutable live : int;
  mutable started : bool;
  policy : policy;
  chooser : chooser option;  (* None iff policy = Fifo *)
}

exception Deadlock of string

exception Killed

(* The one effect: the running fiber parks its continuation in its proc
   record.  Whoever performs it has already arranged to be queued again
   ([yield]) or to be woken ([block]). *)
type _ Effect.t += Suspend : unit Effect.t

(* --- the run queue ------------------------------------------------------- *)

let before q i ~key ~seq =
  let k = Array.unsafe_get q.keys i in
  k < key || (k = key && Array.unsafe_get q.seqs i < seq)

let place q i ~id ~key ~seq =
  Array.unsafe_set q.ids i id;
  Array.unsafe_set q.keys i key;
  Array.unsafe_set q.seqs i seq

let move q ~src ~dst =
  place q dst ~id:(Array.unsafe_get q.ids src) ~key:(Array.unsafe_get q.keys src)
    ~seq:(Array.unsafe_get q.seqs src)

let push_seq q ~id ~key ~seq =
  let i = ref q.size in
  q.size <- q.size + 1;
  while !i > 0 && not (before q ((!i - 1) / 2) ~key ~seq) do
    let parent = (!i - 1) / 2 in
    move q ~src:parent ~dst:!i;
    i := parent
  done;
  place q !i ~id ~key ~seq

let push q ~id ~key =
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  push_seq q ~id ~key ~seq

(* Remove the minimum; the queue must not be empty. *)
let pop q =
  let top = Array.unsafe_get q.ids 0 in
  let n = q.size - 1 in
  q.size <- n;
  if n > 0 then begin
    let id = q.ids.(n) and key = q.keys.(n) and seq = q.seqs.(n) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      let c =
        if l + 1 < n && before q (l + 1) ~key:q.keys.(l) ~seq:q.seqs.(l) then l + 1 else l
      in
      if c < n && before q c ~key ~seq then begin
        move q ~src:c ~dst:!i;
        i := c
      end
      else sifting := false
    done;
    place q !i ~id ~key ~seq
  end;
  top

(* --- processors ----------------------------------------------------------- *)

let wake_proc p ~at =
  if not p.waiting then invalid_arg (Printf.sprintf "Engine: processor %d woken twice" p.id);
  p.waiting <- false;
  push p.queue ~id:p.id ~key:at

let create ?(policy = Fifo) ~nprocs () =
  if nprocs <= 0 then invalid_arg "Engine.create: nprocs must be positive";
  let chooser ~prng ~replaying =
    Some
      {
        prng;
        replaying;
        recorded_rev = [];
        n_recorded = 0;
        tied_ids = Array.make nprocs 0;
        tied_seqs = Array.make nprocs 0;
      }
  in
  let chooser =
    match policy with
    | Fifo -> None
    | Seeded seed -> chooser ~prng:(Some (Midway_util.Prng.create ~seed)) ~replaying:[]
    | Replay choices ->
        List.iter
          (fun c -> if c < 0 then invalid_arg "Engine.create: negative replay choice")
          choices;
        chooser ~prng:None ~replaying:choices
  in
  let runq =
    {
      ids = Array.make nprocs 0;
      keys = Array.make nprocs 0;
      seqs = Array.make nprocs 0;
      size = 0;
      next_seq = 0;
    }
  in
  let make id =
    let rec p =
      {
        id;
        queue = runq;
        clock = 0;
        finished = false;
        blocked_reason = None;
        parked = None;
        waiting = false;
        wake = (fun ~at -> wake_proc p ~at);
      }
    in
    p
  in
  {
    n = nprocs;
    procs = Array.init nprocs make;
    runq;
    bodies = Array.make nprocs None;
    live = 0;
    started = false;
    policy;
    chooser;
  }

let choices t =
  match t.chooser with None -> [] | Some ch -> List.rev ch.recorded_rev

let proc t i =
  if i < 0 || i >= t.n then invalid_arg "Engine.proc: index out of range";
  t.procs.(i)

let proc_id p = p.id

let clock p = p.clock

let[@inline] charge p ns =
  if ns < 0 then invalid_arg "Engine.charge: negative charge";
  p.clock <- p.clock + ns

let spawn t id body =
  if t.started then invalid_arg "Engine.spawn: engine already running";
  if id < 0 || id >= t.n then invalid_arg "Engine.spawn: processor out of range";
  if t.bodies.(id) <> None then invalid_arg "Engine.spawn: processor already spawned";
  t.bodies.(id) <- Some body

(* Switch only when some queued fiber is due no later than the caller's
   clock: it runs first.  Otherwise the pop would find the caller alone
   at the minimum key, which no policy consults or records a tie-break
   for, so the caller just carries on. *)
let yield p =
  let q = p.queue in
  if q.size > 0 && Array.unsafe_get q.keys 0 <= p.clock then begin
    push q ~id:p.id ~key:p.clock;
    Effect.perform Suspend
  end

let block ?reason p ~setup =
  p.blocked_reason <- reason;
  p.waiting <- true;
  setup ~wake:p.wake;
  Effect.perform Suspend

(* Run a fiber under the deep handler until it first suspends (its
   continuation then waits in [p.parked]) or terminates.  A fiber that
   dies of [Killed] ends like one that returns: it no longer counts as
   live, so the run does not wait for it. *)
let start_fiber t p body =
  let park = Some (fun (k : (unit, unit) continuation) -> p.parked <- Some k) in
  let finish () =
    p.finished <- true;
    t.live <- t.live - 1
  in
  match_with body p
    {
      retc = finish;
      exnc = (function Killed -> finish () | e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Suspend -> (park : ((a, unit) continuation -> unit) option)
          | _ -> None);
    }

(* Resume processor [p], popped at [key]: its first slice, or its parked
   continuation with its clock advanced to [key] (never back).  After a
   block [key] is the wake time; a yield is queued at its own clock, so
   there the advance changes nothing. *)
let resume t p ~key =
  match p.parked with
  | Some k ->
      p.parked <- None;
      if key > p.clock then p.clock <- key;
      continue k ()
  | None -> (
      match t.bodies.(p.id) with
      | Some body ->
          t.bodies.(p.id) <- None;
          start_fiber t p body
      | None -> ()  (* died between its wake and its park *))

(* Pop the next processor to resume; the queue must not be empty.  With a
   chooser armed, every entry tied at the minimum key is popped (in FIFO
   order), one is picked — by PRNG or by the replay list — and the rest
   go back with their sequence numbers, so their relative order stands.
   A replayed choice is taken modulo the number of candidates so that a
   shrunk or hand-edited choice list is always legal; once the list runs
   dry the remaining ties fall back to FIFO (choice 0).  Every applied
   choice is re-recorded so a replay's own schedule can be replayed or
   shrunk further. *)
let pop_next t =
  let q = t.runq in
  match t.chooser with
  | None -> pop q
  | Some ch ->
      let key = q.keys.(0) in
      let n = ref 0 in
      while q.size > 0 && q.keys.(0) = key do
        ch.tied_seqs.(!n) <- q.seqs.(0);
        ch.tied_ids.(!n) <- pop q;
        incr n
      done;
      let n = !n in
      if n = 1 then ch.tied_ids.(0)
      else begin
        let c =
          match ch.prng with
          | Some prng -> Midway_util.Prng.int prng n
          | None -> (
              match ch.replaying with
              | [] -> 0
              | c :: rest ->
                  ch.replaying <- rest;
                  c mod n)
        in
        ch.recorded_rev <- c :: ch.recorded_rev;
        ch.n_recorded <- ch.n_recorded + 1;
        for i = 0 to n - 1 do
          if i <> c then push_seq q ~id:ch.tied_ids.(i) ~key ~seq:ch.tied_seqs.(i)
        done;
        ch.tied_ids.(c)
      end

(* Identify the schedule in a deadlock message so a hang found by the
   explorer is reproducible from the message alone. *)
let schedule_tag t =
  match t.policy with
  | Fifo -> ""
  | Seeded seed ->
      let n = match t.chooser with Some ch -> ch.n_recorded | None -> 0 in
      Printf.sprintf " [schedule seed %d, %d tie-break choice(s) made]" seed n
  | Replay _ ->
      let n = match t.chooser with Some ch -> ch.n_recorded | None -> 0 in
      Printf.sprintf " [replayed schedule, %d tie-break choice(s) applied]" n

let run t =
  if t.started then invalid_arg "Engine.run: engine already ran";
  t.started <- true;
  Array.iteri
    (fun id body ->
      if body <> None then begin
        t.live <- t.live + 1;
        push t.runq ~id ~key:t.procs.(id).clock
      end)
    t.bodies;
  while t.runq.size > 0 do
    let key = t.runq.keys.(0) in
    resume t t.procs.(pop_next t) ~key
  done;
  if t.live > 0 then begin
    let stuck =
      Array.to_list t.procs
      |> List.filter (fun p -> not p.finished)
      |> List.map (fun p ->
             Printf.sprintf "p%d@%dns%s" p.id p.clock
               (match p.blocked_reason with
               | Some r -> Printf.sprintf " (blocked in %s)" (r ())
               | None -> ""))
      |> String.concat ", "
    in
    raise
      (Deadlock
         (Printf.sprintf "%d processor(s) blocked with no pending wake: %s%s" t.live stuck
            (schedule_tag t)))
  end

let elapsed t = Array.fold_left (fun acc p -> max acc p.clock) 0 t.procs

let clock_of t id = t.procs.(id).clock
