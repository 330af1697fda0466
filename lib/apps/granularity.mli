(** A controlled sharing-granularity sweep (extension experiment).

    The paper's conclusion: "The overhead incurred using runtime write
    detection does not depend on the granularity of sharing, allowing
    runtime detection to more efficiently support fine-grained
    applications."  This synthetic workload makes that claim measurable:
    a fixed volume of shared data is divided into [items] independent
    objects, each guarded by its own lock, and ping-ponged between a
    producer and a consumer.  Sweeping the item count (total bytes
    constant) moves the workload from coarse-grained (few big objects) to
    fine-grained (many small objects); the harness reports detection cost
    per backend at each point.

    Under RT-DSM the unit of coherency follows the item size, so cost
    tracks the bytes written.  Under VM-DSM every item transfer pays
    page-granularity machinery, so cost explodes as items shrink below a
    page. *)

type params = {
  total_bytes : int;  (** shared volume, constant across the sweep *)
  items : int;  (** number of independently guarded objects *)
  rounds : int;  (** producer/consumer iterations *)
}

val run : Midway.Config.t -> params -> Outcome.t
(** Runs on 2 processors: processor 0 writes every item (under its lock),
    processor 1 reads and checks every item, [rounds] times. *)
