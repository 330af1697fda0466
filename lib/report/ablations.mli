(** Ablations of the design choices of the paper's sections 3.4-3.5
    (extension experiments; DESIGN.md section 5).

    Six tables: the three RT trapping organizations on sor; every
    detection backend on quicksort, the blast and twin strawmen
    included; the VM update-log window on quicksort; detection cost
    against sharing granularity; the trapping organizations under
    untargetted consistency; and water's two synchronization styles. *)

val render : scale:float -> nprocs:int -> string
(** Run every ablation and render its tables.  The application tables
    run at [scale] on [nprocs] processors; the granularity and
    untargetted microworkloads always run on two.  Every run passes
    {!Suite.check}. *)
