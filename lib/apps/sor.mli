(** Red-black successive over-relaxation: the medium-grained benchmark.

    Computes the steady-state temperature of a rectangular plate with
    fixed edge temperatures, iterating a red-black Gauss-Seidel update
    over an [n x n] matrix (the paper uses 1000 x 1000 for 25 iterations).
    Red and black elements are adjacent in memory, so each phase rewrites
    roughly every cache line and every page of the rows it touches — the
    reason nearly all bound data is dirty at collection time (the paper's
    98.1%) and the reason VM-DSM hits the expensive alternating-word diff
    case.

    Rows are banded across processors.  Only the rows at partition edges
    are shared (the paper: "only data at the edges of each partition are
    shared"); interior rows are compiler-classified private and pay no
    write-detection cost.  Each pair of neighbouring processors exchanges
    its edge rows through a two-party barrier after every phase; the
    interior is initialized to pseudo-random values to maximize the
    changed elements per iteration, as in the paper. *)

type params = { n : int; iterations : int }

val default : params
(** 1000 x 1000, 25 iterations. *)

val scaled : float -> params

val run : Midway.Config.t -> params -> Outcome.t

val fits : params -> nprocs:int -> bool
(** Whether [n] rows give every one of [nprocs] processors a band of at
    least three rows, which {!run} needs (it raises [Invalid_argument]
    otherwise). *)
