(* Host-speed reference, run as a process of its own.

     calib.exe

   For every line read from standard input it runs a fixed piece of work
   once and prints one line: the host ns that run took.  It stops at the
   end of its input.

   The host's speed drifts by up to 2x over seconds to minutes, and the
   drift hits the simulator's code (effect-based fiber switches, hash
   tables, small allocations) much harder than tight loops: loops over an
   L2-sized or a DRAM-sized array held within 8% while pass times swung
   1.5x.  So the work is in that style: eight fibers that update a shared
   hash table and yield to a FIFO scheduler after every step.

   bench.exe keeps one such process for a run, asks it for a sample
   about every half second between machines, and scales host seconds by
   the samples.  It links none of the repository's libraries and sets its
   own compiler flags (see dune), and bench.exe starts it with the
   runtime's default settings, so no change to the simulator, to its GC
   settings or to its build reaches the reference.  Between samples it
   waits on its input and takes no CPU time. *)

type _ Effect.t += Yield : unit Effect.t

let fibers = 8
let steps = 12_000
let table : (int, Bytes.t) Hashtbl.t = Hashtbl.create 4096

let work () =
  let ready = Queue.create () in
  let count = ref 0 in
  let handler =
    {
      Effect.Deep.retc = (fun () -> ());
      exnc = raise;
      effc =
        (fun (type a) (e : a Effect.t) ->
          match e with
          | Yield ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  Queue.push (fun () -> Effect.Deep.continue k ()) ready)
          | _ -> None);
    }
  in
  for p = 0 to fibers - 1 do
    Queue.push
      (fun () ->
        Effect.Deep.match_with
          (fun () ->
            for i = 1 to steps do
              Hashtbl.replace table (((p * 7919) + i) land 4095) (Bytes.make 24 'x');
              count := !count + i;
              Effect.perform Yield
            done)
          () handler)
      ready
  done;
  while not (Queue.is_empty ready) do
    (Queue.pop ready) ()
  done;
  ignore (Sys.opaque_identity !count)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let () =
  (* untimed: a fresh process grows its heap and fills the table here *)
  work ();
  try
    while true do
      ignore (input_line stdin);
      let t0 = now_ns () in
      work ();
      Printf.printf "%d\n%!" (now_ns () - t0)
    done
  with End_of_file -> ()
