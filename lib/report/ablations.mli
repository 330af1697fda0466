(** Ablations of the design choices of the paper's sections 3.4-3.5
    (extension experiments; DESIGN.md section 5).

    Six tables: the three RT trapping organizations on sor; every
    detection backend on quicksort, the blast and twin strawmen
    included; the VM update-log window on quicksort; detection cost
    against sharing granularity; the trapping organizations under
    untargetted consistency; and water's two synchronization styles. *)

type table = {
  title : string list;  (** the heading line, then any notes *)
  columns : (string * Midway_util.Texttab.align) list;
  groups : string list list list;  (** rows, in groups a rule separates *)
}

val render_table : table -> string
(** The report's one table renderer: the title's lines, then the
    columns' header and the groups' rows in a {!Midway_util.Texttab}
    box.  It prints the ablations and the paper's Tables 2-5
    ({!Tables}). *)

val render : scale:float -> nprocs:int -> string
(** Run every ablation and render its tables.  The application tables
    run at [scale] on [nprocs] processors; the granularity and
    untargetted microworkloads always run on two.  Every run passes
    {!Suite.check}. *)
