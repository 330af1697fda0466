type kind = Shared | Private

type t = {
  index : int;
  kind : kind;
  line_size : int;
  line_shift : int;
  region_size : int;
  nprocs : int;
  mutable used : int;
  backing : Bytes.t option array;
}

module Pow2 = Midway_util.Pow2

let create ~index ~kind ~line_size ~region_size ~nprocs =
  if not (Pow2.is_power_of_two line_size) then
    invalid_arg "Region.create: line_size must be a positive power of two";
  if line_size > region_size then
    invalid_arg "Region.create: line_size exceeds region_size";
  if nprocs <= 0 then invalid_arg "Region.create: nprocs must be positive";
  {
    index;
    kind;
    line_size;
    line_shift = Pow2.log2 line_size;
    region_size;
    nprocs;
    used = 0;
    backing = Array.make nprocs None;
  }

let base t = t.index * t.region_size

let limit t = base t + t.region_size

let lines t = t.region_size / t.line_size

let line_of_offset t off = off lsr t.line_shift

let granule = 4096

let extent t ~have need =
  let want = max need (if have = 0 then t.used else 2 * have) in
  min t.region_size ((max want 1 + granule - 1) land lnot (granule - 1))

let backing_for t ~proc =
  match t.backing.(proc) with
  | Some b -> b
  | None ->
      let b = Bytes.make (extent t ~have:0 0) '\000' in
      t.backing.(proc) <- Some b;
      b

let touched t ~proc = t.backing.(proc) <> None
