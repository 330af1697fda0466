(** Processor-count scaling curves (extension experiment).

    The paper reports standalone and 8-processor times (Figure 2); this
    extension sweeps the processor count to show where each detection
    strategy's overhead bends the scaling curve. *)

val render : app:Suite.app -> scale:float -> procs:int list -> string
(** Run the application under RT-DSM and VM-DSM at each processor count
    (plus the uniprocessor standalone baseline) and render a table of
    times and speedups.  Every run passes {!Suite.check}. *)
