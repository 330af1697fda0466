module Grow = Midway_util.Grow

let chunk_bits = 12

let chunk_mask = (1 lsl chunk_bits) - 1

(* [dir.(n lsr chunk_bits)] holds page [n] at [n land chunk_mask] once
   some page at or past it in that chunk has been set; slots in between
   hold [absent]. *)
type 'a t = { absent : 'a; mutable dir : 'a array array }

let create ~absent = { absent; dir = [||] }

(* Inlined into [Page_table.find], which every trapped VM store calls.
   A negative number's [lsr] is past any directory. *)
let[@inline] get t number =
  let dir = t.dir and hi = number lsr chunk_bits in
  if hi < Array.length dir then
    let chunk = Array.unsafe_get dir hi and lo = number land chunk_mask in
    if lo < Array.length chunk then Array.unsafe_get chunk lo else t.absent
  else t.absent

let set t number v =
  if number < 0 then invalid_arg "Page_index.set: negative page number";
  let hi = number lsr chunk_bits and lo = number land chunk_mask in
  t.dir <- Grow.array t.dir hi ~fill:[||];
  let chunk = t.dir.(hi) in
  if lo < Array.length chunk then chunk.(lo) <- v
  else if v != t.absent then begin
    let chunk = Grow.array chunk (Int.max lo 7) ~cap:(chunk_mask + 1) ~fill:t.absent in
    chunk.(lo) <- v;
    t.dir.(hi) <- chunk
  end

let iter f t =
  Array.iter (Array.iter (fun v -> if v != t.absent then f v)) t.dir

let count t =
  let n = ref 0 in
  iter (fun _ -> incr n) t;
  !n
