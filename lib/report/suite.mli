(** Run the benchmark suite and hold the raw results every table and
    figure derives from.

    One suite run executes each of the five applications under RT-DSM and
    VM-DSM on [nprocs] simulated processors, plus the uniprocessor
    standalone baseline (no detection, no consistency), all at a common
    problem [scale] (1.0 = the paper's parameters). *)

type app = Water | Quicksort | Matmul | Sor | Cholesky

val apps : app list
(** In the paper's column order: water, quicksort, matrix, sor, cholesky. *)

val app_name : app -> string

val app_of_string : string -> (app, string) result

val run_app : app -> Midway.Config.t -> scale:float -> Midway_apps.Outcome.t
(** Run one application with its parameters scaled. *)

val fits : app -> nprocs:int -> scale:float -> (unit, string) result
(** Whether {!run_app} can partition the app's data at this size over
    [nprocs] processors (sor needs at least three rows per processor);
    the error says why not.  Tools check it before any machine runs. *)

val barrier_bound : app -> bool
(** Whether the app binds data to barriers (water, sor).  Such an app
    cannot run under the blast backend or the untargetted model, whose
    barriers carry no data; tools refuse the pair before it runs. *)

type entry = {
  app : app;
  rt : Midway_apps.Outcome.t;
  vm : Midway_apps.Outcome.t;
  standalone : Midway_apps.Outcome.t;
}

val check : Midway_apps.Outcome.t -> Midway_apps.Outcome.t
(** The verdict every reported run must pass: its oracle, the protocol
    invariants ({!Midway.Runtime.check_invariants}) and, when the run
    armed it, the entry-consistency sanitizer.  Returns the outcome;
    raises [Failure] naming the run and what it failed. *)

type t = {
  nprocs : int;
  scale : float;
  cost : Midway_stats.Cost_model.t;
  entries : entry list;
}

val run :
  ?apps:app list ->
  ?cost:Midway_stats.Cost_model.t ->
  ?ecsan:bool ->
  ?obs:bool ->
  nprocs:int ->
  scale:float ->
  unit ->
  t
(** Execute the suite, every run through {!check} — a benchmark number
    from an incoherent run would be meaningless.  With [ecsan] (default
    false) every run also executes under the entry-consistency
    sanitizer.  With [obs] (default false) every run carries the
    observability layer, readable afterwards through
    {!Midway.Runtime.obs} on each entry's machine. *)

val entry : t -> app -> entry
