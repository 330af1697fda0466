type proc = {
  id : int;
  mutable clock : int;
  mutable finished : bool;
  mutable killed : bool;
  mutable blocked_reason : (unit -> string) option;
      (* built only when a deadlock message or the block observer reads it *)
}

(* Tie-break policy: which runnable fiber goes first when several are
   ready at the same virtual time.  Fifo is the historical default and
   takes the exact pre-policy code path (a bare Minheap.pop), so default
   runs stay bit-identical.  The other policies drive the schedule
   explorer: Seeded picks uniformly among tied fibers from a private
   PRNG, Replay consumes a recorded choice list. *)
type policy = Fifo | Seeded of int | Replay of int list

type chooser = {
  prng : Midway_util.Prng.t option;  (* Some for Seeded *)
  mutable replaying : int list;  (* remaining choices to replay *)
  mutable recorded_rev : int list;  (* every applied choice, newest first *)
  mutable n_recorded : int;
}

type t = {
  n : int;
  procs : proc array;
  runq : (unit -> unit) Midway_util.Minheap.t;
  bodies : (proc -> unit) option array;
  mutable live : int;
  mutable started : bool;
  policy : policy;
  chooser : chooser option;  (* None iff policy = Fifo *)
  (* Observability hook: called after a blocked fiber's clock is
     advanced to its wake time, before it resumes.  Reads state the
     scheduler computed anyway, so arming it cannot change a run. *)
  mutable block_observer :
    (proc:int -> reason:string option -> blocked_at:int -> woke_at:int -> unit) option;
  (* Called when a fiber dies of [Killed], after its bookkeeping is
     settled.  The crash-recovery layer uses it to run failover for the
     resources the dead fiber held, so its waiters are unblocked with a
     typed reason instead of deadlocking. *)
  mutable kill_observer : (proc:int -> reason:string -> at:int -> unit) option;
}

exception Deadlock of string

exception Killed of string
(** Raised *inside* a fiber to crash-stop it: the fiber terminates, is
    excluded from deadlock accounting, and the kill observer fires with
    the typed reason. *)

type _ Effect.t +=
  | Yield : proc -> unit Effect.t
  | Block : proc * (wake:(at:int -> unit) -> unit) -> unit Effect.t

let create ?(policy = Fifo) ~nprocs () =
  if nprocs <= 0 then invalid_arg "Engine.create: nprocs must be positive";
  let chooser =
    match policy with
    | Fifo -> None
    | Seeded seed ->
        Some
          {
            prng = Some (Midway_util.Prng.create ~seed);
            replaying = [];
            recorded_rev = [];
            n_recorded = 0;
          }
    | Replay choices ->
        List.iter
          (fun c -> if c < 0 then invalid_arg "Engine.create: negative replay choice")
          choices;
        Some { prng = None; replaying = choices; recorded_rev = []; n_recorded = 0 }
  in
  {
    n = nprocs;
    procs =
      Array.init nprocs (fun id ->
          { id; clock = 0; finished = false; killed = false; blocked_reason = None });
    runq = Midway_util.Minheap.create ();
    bodies = Array.make nprocs None;
    live = 0;
    started = false;
    policy;
    chooser;
    block_observer = None;
    kill_observer = None;
  }

let nprocs t = t.n

let policy t = t.policy

let set_block_observer t f = t.block_observer <- f

let set_kill_observer t f = t.kill_observer <- f

let is_killed p = p.killed

let killed t =
  Array.to_list t.procs |> List.filter (fun p -> p.killed) |> List.map (fun p -> p.id)

let choices t =
  match t.chooser with None -> [] | Some ch -> List.rev ch.recorded_rev

let proc t i =
  if i < 0 || i >= t.n then invalid_arg "Engine.proc: index out of range";
  t.procs.(i)

let proc_id p = p.id

let clock p = p.clock

let charge p ns =
  if ns < 0 then invalid_arg "Engine.charge: negative charge";
  p.clock <- p.clock + ns

let spawn t id body =
  if t.started then invalid_arg "Engine.spawn: engine already running";
  if id < 0 || id >= t.n then invalid_arg "Engine.spawn: processor out of range";
  if t.bodies.(id) <> None then invalid_arg "Engine.spawn: processor already spawned";
  t.bodies.(id) <- Some body

let yield p = Effect.perform (Yield p)

let block ?reason p ~setup =
  p.blocked_reason <- reason;
  Effect.perform (Block (p, setup))

(* Run one fiber slice under the deep handler.  The handler returns when
   the fiber suspends (its continuation is then parked in the run queue)
   or terminates. *)
let start_fiber t p body =
  let open Effect.Deep in
  match_with body p
    {
      retc = (fun () ->
          p.finished <- true;
          t.live <- t.live - 1);
      exnc =
        (fun e ->
          match e with
          | Killed reason ->
              (* crash-stop: the fiber dies, its waiters are the kill
                 observer's problem; it must not count as live or the
                 run would end in a spurious deadlock *)
              p.finished <- true;
              p.killed <- true;
              p.blocked_reason <- None;
              t.live <- t.live - 1;
              (match t.kill_observer with
              | Some f -> f ~proc:p.id ~reason ~at:p.clock
              | None -> ())
          | e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Yield q ->
              Some
                (fun (k : (a, _) continuation) ->
                  Midway_util.Minheap.push t.runq ~key:q.clock (fun () -> continue k ()))
          | Block (q, setup) ->
              Some
                (fun (k : (a, _) continuation) ->
                  let fired = ref false in
                  let blocked_at = q.clock in
                  let reason = q.blocked_reason in
                  setup ~wake:(fun ~at ->
                      if !fired then
                        invalid_arg
                          (Printf.sprintf "Engine: processor %d woken twice" q.id);
                      fired := true;
                      q.blocked_reason <- None;
                      Midway_util.Minheap.push t.runq ~key:at (fun () ->
                          if at > q.clock then q.clock <- at;
                          (match t.block_observer with
                          | Some f ->
                              let reason = Option.map (fun r -> r ()) reason in
                              f ~proc:q.id ~reason ~blocked_at ~woke_at:q.clock
                          | None -> ());
                          continue k ())))
          | _ -> None);
    }

(* Pop the next event to execute.  With a chooser armed, all events tied
   at the minimum key are collected (in FIFO order, which Minheap
   guarantees for equal keys), one is picked — by PRNG or by the replay
   list — and the rest are reinserted in their original relative order.
   A replayed choice is taken modulo the number of candidates so that a
   shrunk or hand-edited choice list is always legal; once the list runs
   dry the remaining ties fall back to FIFO (choice 0).  Every applied
   choice is re-recorded so a replay's own schedule can be replayed or
   shrunk further. *)
let pop_next t =
  match t.chooser with
  | None -> Midway_util.Minheap.pop t.runq
  | Some ch -> (
      match Midway_util.Minheap.pop t.runq with
      | None -> None
      | Some (key, first) ->
          let rec gather acc =
            match Midway_util.Minheap.peek_key t.runq with
            | Some k when k = key -> (
                match Midway_util.Minheap.pop t.runq with
                | Some (_, v) -> gather (v :: acc)
                | None -> acc)
            | _ -> acc
          in
          let tied = Array.of_list (List.rev (gather [ first ])) in
          let n = Array.length tied in
          if n = 1 then Some (key, first)
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
            Array.iteri (fun i v -> if i <> c then Midway_util.Minheap.push t.runq ~key v) tied;
            Some (key, tied.(c))
          end)

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
      match body with
      | None -> ()
      | Some body ->
          t.live <- t.live + 1;
          let p = t.procs.(id) in
          Midway_util.Minheap.push t.runq ~key:p.clock (fun () -> start_fiber t p body))
    t.bodies;
  let rec loop () =
    match pop_next t with
    | Some (_, resume) ->
        resume ();
        loop ()
    | None ->
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
               (Printf.sprintf "%d processor(s) blocked with no pending wake: %s%s" t.live
                  stuck (schedule_tag t)))
        end
  in
  loop ()

let elapsed t = Array.fold_left (fun acc p -> max acc p.clock) 0 t.procs

let clock_of t id = t.procs.(id).clock
