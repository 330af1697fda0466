(* Address ranges, the one interval algebra of the tree.

   Lives in midway_check (the dependency-free layer below the simulator)
   so that both the runtime (via the Midway.Range re-export) and the
   sanitizer/analyzer share a single implementation; lib/check once
   carried its own Interval copy of normalize/merge/overlap, now gone. *)

type t = { addr : int; len : int }

let v addr len =
  if addr < 0 || len < 0 then invalid_arg "Range.v: negative address or length";
  { addr; len }

let limit r = r.addr + r.len

let is_empty r = r.len = 0

(* Sorted by address, no empty range, no two ranges touching. *)
let rec is_normalized = function
  | a :: (b :: _ as rest) -> (not (is_empty a)) && b.addr > limit a && is_normalized rest
  | [ a ] -> not (is_empty a)
  | [] -> true

let normalize ranges =
  if is_normalized ranges then ranges
  else
    let sorted =
      List.filter (fun r -> not (is_empty r)) ranges
      |> List.sort (fun a b -> Int.compare a.addr b.addr)
    in
    let rec merge = function
      | a :: b :: rest ->
          if b.addr <= limit a then
            merge ({ a with len = Int.max (limit a) (limit b) - a.addr } :: rest)
          else a :: merge (b :: rest)
      | rest -> rest
    in
    merge sorted

let total_bytes ranges = List.fold_left (fun acc r -> acc + r.len) 0 ranges

let overlaps a b = Int.max a.addr b.addr < Int.min (limit a) (limit b)

let intersect a b =
  let lo = Int.max a.addr b.addr and hi = Int.min (limit a) (limit b) in
  if lo < hi then Some { addr = lo; len = hi - lo } else None

let clip r ~within = List.filter_map (intersect r) within

let subtract r ~minus =
  let minus = normalize minus in
  let rec go cursor acc = function
    | [] ->
        if cursor < limit r then { addr = cursor; len = limit r - cursor } :: acc else acc
    | m :: rest ->
        if limit m <= cursor then go cursor acc rest
        else if m.addr >= limit r then go cursor acc []
        else begin
          let acc =
            if m.addr > cursor then { addr = cursor; len = m.addr - cursor } :: acc
            else acc
          in
          go (Int.max cursor (limit m)) acc rest
        end
  in
  if is_empty r then [] else List.rev (go r.addr [] minus)

let contains ranges ~addr ~len =
  if len = 0 then true
  else
    let target = { addr; len } in
    let covered =
      clip target ~within:ranges |> normalize |> total_bytes
    in
    covered = len

let iter_lines r ~line_size ~f =
  if not (is_empty r) then begin
    let first = r.addr / line_size and last = (limit r - 1) / line_size in
    for line = first to last do
      f ~addr:(line * line_size) ~len:line_size
    done
  end

(* --- list algebra (the former lib/check Interval surface) --------------- *)

let mem ranges x = List.exists (fun r -> x >= r.addr && x < limit r) ranges

let union a b = normalize (a @ b)

let inter a b = normalize (List.concat_map (fun r -> clip r ~within:b) a)

let subtract_list ranges ~minus = normalize (List.concat_map (fun r -> subtract r ~minus) ranges)

let covers ranges sub =
  List.for_all (fun r -> contains ranges ~addr:r.addr ~len:r.len) (normalize sub)

let iter_points ranges ~f =
  List.iter
    (fun r ->
      for x = r.addr to limit r - 1 do
        f x
      done)
    ranges
