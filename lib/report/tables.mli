(** Tables 2-5 of the paper: per-processor operation counts (Table 2)
    and what they cost at Table 1's prices (Tables 3-5), each measured
    cell beside the value the paper prints.

    A table is a list of row groups.  A row names how its value is
    measured from a suite entry (a counter, or a {!Midway_stats.Derived}
    formula) next to the five values the paper prints for it.  The
    published values are per-processor averages of an 8-way run at the
    paper's problem sizes, so comparisons are meaningful at
    [scale = 1.0]. *)

(** How a row's cells print.  A measured value comes in the unit its
    formula yields, a published one in the printed unit. *)
type cell =
  | Count
  | Kb  (** measured in bytes, printed in whole KB *)
  | Percent
  | Ms  (** measured in ns, printed in ms to one decimal *)
  | Thousands  (** measured in memory references, printed in thousands *)

type row = {
  system : string;  (** [""] on a group's rows after its first *)
  operation : string;
  measure : Suite.t -> Suite.entry -> float;
  paper : float list;  (** the published values, in {!Suite.apps} order *)
  cell : cell;
}

type t = { title : Suite.t -> string; groups : row list list }

val table2 : t
val table3 : t
val table4 : t
val table5 : t

val render : t -> Suite.t -> string
(** The table with a measured and a "(paper)" column per suite entry,
    through {!Ablations.render_table}. *)

val measured : row -> Suite.t -> Suite.entry -> float
(** A row's measured value for one entry, in the unit its cells print. *)

val published : row -> Suite.app -> float

(** Rows the markdown summary reads: *)

val rt_data_kb : row
val vm_data_kb : row
val rt_trapping : row
val vm_trapping : row
val rt_collection : row
val vm_collection : row
