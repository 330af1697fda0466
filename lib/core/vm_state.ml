module Space = Midway_memory.Space
module Page_table = Midway_vmem.Page_table
module Diff = Midway_vmem.Diff
module Page_index = Midway_vmem.Page_index
module Counters = Midway_stats.Counters
module Cost_model = Midway_stats.Cost_model

(* A page's saved diff: the saved bytes' values in a page-sized shadow,
   and which bytes are saved in a bitmap with one bit per byte of the
   page (map byte [i lsr 3], bit [i land 7] for page offset [i]).  A page
   is in the table exactly while some bit is set. *)
type pending_page = { shadow : Bytes.t; saved : Bytes.t }

(* The saved-diff table's "no saved diff on this page". *)
let no_saved = { shadow = Bytes.empty; saved = Bytes.empty }

type t = {
  pt : Page_table.t;
  shift : int;  (* [Page_table.page_shift pt] *)
  pending : pending_page Page_index.t;  (* page number -> saved diff *)
  mutable spare_twins : Bytes.t list;
      (* buffers of cleaned pages' twins, for the next faults; at most
         [max_spare_twins] *)
}

(* Enough for the pages a processor dirties between two transfers of a
   lock; a barrier cleaning more lets the rest go. *)
let max_spare_twins = 16

let create ~page_size =
  let pt = Page_table.create ~page_size in
  {
    pt;
    shift = Page_table.page_shift pt;
    pending = Page_index.create ~absent:no_saved;
    spare_twins = [];
  }

let page_table t = t.pt

let page_size t = Page_table.page_size t.pt

(* --- bitmaps ------------------------------------------------------------ *)

(* The bits of map byte [b] that cover page offsets in [lo, hi). *)
let byte_mask b lo hi =
  let first = Int.max lo (b lsl 3) and last = Int.min hi ((b + 1) lsl 3) in
  (0xff lsr (8 - (last - first))) lsl (first land 7)

let set_bits map lo hi =
  if lo < hi then
    for b = lo lsr 3 to (hi - 1) lsr 3 do
      let v = Char.code (Bytes.unsafe_get map b) in
      Bytes.unsafe_set map b (Char.unsafe_chr (v lor byte_mask b lo hi))
    done

(* Clear the bits of [lo, hi); whether any of them was set. *)
let clear_bits map lo hi =
  let cleared = ref false in
  if lo < hi then
    for b = lo lsr 3 to (hi - 1) lsr 3 do
      let v = Char.code (Bytes.unsafe_get map b) and m = byte_mask b lo hi in
      if v land m <> 0 then begin
        cleared := true;
        Bytes.unsafe_set map b (Char.unsafe_chr (v land lnot m))
      end
    done;
  !cleared

(* Maps are a whole number of 64-bit words long. *)
let is_empty map =
  let rec go i = i >= Bytes.length map || (Bytes.get_int64_le map i = 0L && go (i + 8)) in
  go 0

let bit map i = Char.code (Bytes.unsafe_get map (i lsr 3)) land (1 lsl (i land 7)) <> 0

(* [f lo hi] for each maximal run of set bits inside [lo, hi), in order. *)
let iter_runs map lo hi f =
  let i = ref lo in
  while !i < hi do
    if bit map !i then begin
      let start = !i in
      while !i < hi && bit map !i do
        incr i
      done;
      f start !i
    end
    else if !i land 7 = 0 && Bytes.unsafe_get map (!i lsr 3) = '\000' then i := !i + 8
    else incr i
  done

(* --- trapping ----------------------------------------------------------- *)

(* A write fault on [page]: the twin is a copy of the page, in the
   buffer of a twin dropped earlier when there is one. *)
let fault_in t ~space ~proc ~counters ~cost ~addr page =
  let psize = page_size t in
  let base = addr land lnot (psize - 1) in
  let current, cur_off = Space.backing_slice space ~proc base ~len:psize in
  let twin =
    match t.spare_twins with
    | tw :: rest ->
        t.spare_twins <- rest;
        tw
    | [] -> Bytes.create psize
  in
  Bytes.blit current cur_off twin 0 psize;
  Page_table.fault t.pt page ~twin;
  counters.Counters.write_faults <- counters.Counters.write_faults + 1;
  cost.Cost_model.page_fault_ns

(* Inlined: a store to a writable page costs one page lookup. *)
let[@inline] on_write t ~space ~proc ~counters ~cost ~addr =
  let page = Page_table.page_of_addr t.pt addr in
  match page.Page_table.prot with
  | Page_table.Read_write -> 0
  | Page_table.Read_only -> fault_in t ~space ~proc ~counters ~cost ~addr page

let on_store t ~space ~proc ~counters ~cost ~addr ~len =
  let last = (addr + Int.max len 1 - 1) lsr t.shift in
  let ns = ref (on_write t ~space ~proc ~counters ~cost ~addr) in
  for page = (addr lsr t.shift) + 1 to last do
    ns := !ns + on_write t ~space ~proc ~counters ~cost ~addr:(page lsl t.shift)
  done;
  !ns

(* Clean a dirty page, keeping its twin's buffer for a later fault: no
   one reads a twin once its page is clean. *)
let clean t (page : Page_table.page) =
  (match page.Page_table.twin with
  | Some tw when List.compare_length_with t.spare_twins max_spare_twins < 0 ->
      t.spare_twins <- tw :: t.spare_twins
  | Some _ | None -> ());
  Page_table.clean t.pt page

(* --- collection --------------------------------------------------------- *)

(* [f number] for each page overlapping [ranges] (normalized), ascending,
   once each. *)
let iter_pages t ranges f =
  let next = ref 0 in
  List.iter
    (fun (r : Range.t) ->
      if not (Range.is_empty r) then begin
        let last = (Range.limit r - 1) lsr t.shift in
        for number = Int.max !next (r.Range.addr lsr t.shift) to last do
          f number
        done;
        next := last + 1
      end)
    ranges

(* [inside lo hi] for each maximal part of [lo, hi) in [ranges]
   (normalized) and [outside lo hi] for each part out of them, in
   address order. *)
let split ranges lo hi ~inside ~outside =
  let rec go cur = function
    | (r : Range.t) :: rest when Range.limit r <= cur -> go cur rest
    | (r : Range.t) :: rest when r.Range.addr < hi ->
        if cur < r.Range.addr then outside cur r.Range.addr;
        let stop = Int.min hi (Range.limit r) in
        inside (Int.max cur r.Range.addr) stop;
        if stop < hi then go stop rest
    | _ -> outside cur hi
  in
  if lo < hi then go lo ranges

(* Stash modified bytes [lo, hi) of page [number], which are *not* bound
   to the object being transferred, so a later transfer can ship them.
   [current] is a live view of the page starting at [cur_off]. *)
let save t number ~current ~cur_off ~page_base lo hi =
  let p =
    let p = Page_index.get t.pending number in
    if p != no_saved then p
    else begin
      let psize = page_size t in
      let p =
        { shadow = Bytes.create psize; saved = Bytes.make ((psize + 63) / 64 * 8) '\000' }
      in
      Page_index.set t.pending number p;
      p
    end
  in
  Bytes.blit current (cur_off + (lo - page_base)) p.shadow (lo - page_base) (hi - lo);
  set_bits p.saved (lo - page_base) (hi - page_base)

(* Clear the saved bits of [lo, hi) (absolute) on page [number]; the page
   leaves the table when none remains. *)
let drop t number p lo hi =
  let page_base = number lsl t.shift in
  if clear_bits p.saved (lo - page_base) (hi - page_base) && is_empty p.saved then
    Page_index.set t.pending number no_saved

(* Consume saved diffs that fall inside the bound ranges: each page's
   maximal saved runs inside them, newest page and address first. *)
let take_pending t ~ranges =
  let pieces = ref [] in
  iter_pages t ranges (fun number ->
      let p = Page_index.get t.pending number in
      if p != no_saved then begin
        let page_base = number lsl t.shift in
        let take lo hi =
          iter_runs p.saved (lo - page_base) (hi - page_base) (fun a b ->
              let data = Bytes.sub p.shadow a (b - a) in
              pieces := { Payload.addr = page_base + a; data } :: !pieces);
          drop t number p lo hi
        in
        split ranges page_base (page_base + page_size t) ~inside:take ~outside:(fun _ _ -> ())
      end);
  !pieces

let collect t ~space ~proc ~counters ~cost ~ranges =
  let psize = page_size t in
  let pieces = ref [] in
  let total_cost = ref 0 in
  iter_pages t ranges (fun number ->
      let page_base = number lsl t.shift in
      let page = Page_table.peek t.pt page_base in
      if page.Page_table.dirty then begin
        (* Zero-copy view of the processor's live page; only read below. *)
        let current, cur_off = Space.backing_slice space ~proc page_base ~len:psize in
        let twin =
          match page.Page_table.twin with
          | Some tw -> tw
          | None -> assert false (* dirty implies twinned *)
        in
        let runs, transitions =
          Diff.diff_between ~old_:twin ~old_off:0 ~new_:current ~new_off:cur_off ~len:psize
        in
        counters.Counters.pages_diffed <- counters.Counters.pages_diffed + 1;
        total_cost :=
          !total_cost + Cost_model.diff_cost_ns cost ~words:(psize / 4) ~transitions;
        let ship lo hi =
          let data = Bytes.sub current (cur_off + (lo - page_base)) (hi - lo) in
          pieces := { Payload.addr = lo; data } :: !pieces
        and stash = save t number ~current ~cur_off ~page_base in
        List.iter
          (fun (r : Diff.run) ->
            let lo = page_base + r.Diff.off in
            split ranges lo (lo + r.Diff.len) ~inside:ship ~outside:stash)
          runs;
        (* All modified data is accounted for: the page is clean again. *)
        clean t page;
        counters.Counters.pages_write_protected <-
          counters.Counters.pages_write_protected + 1;
        total_cost := !total_cost + cost.Cost_model.page_protect_ro_ns
      end);
  let saved = take_pending t ~ranges in
  (* Saved diffs can overlap words that were modified again and re-diffed
     since they were stashed; the fresh diff reflects current memory, so
     stale pieces must apply first and fresh pieces last. *)
  (saved @ List.rev !pieces, !total_cost)

let apply_pieces t ~space ~proc ~counters ~cost pieces =
  let psize = page_size t in
  let total_cost = ref 0 in
  List.iter
    (fun (p : Payload.vm_piece) ->
      let len = Bytes.length p.Payload.data in
      Space.write_bytes space ~proc p.Payload.addr p.Payload.data;
      total_cost := !total_cost + Cost_model.copy_cost_ns cost ~bytes:len ~warm:true;
      (* Patch twins of dirty pages so the update is not re-collected as a
         local modification. *)
      if len > 0 then
        for number = p.Payload.addr lsr t.shift to (p.Payload.addr + len - 1) lsr t.shift do
          let page_base = number lsl t.shift in
          let lo = Int.max p.Payload.addr page_base in
          let hi = Int.min (p.Payload.addr + len) (page_base + psize) in
          let page = Page_table.peek t.pt page_base in
          (match page.Page_table.twin with
          | Some twin when page.Page_table.dirty ->
              Bytes.blit p.Payload.data (lo - p.Payload.addr) twin (lo - page_base)
                (hi - lo);
              counters.Counters.twin_update_bytes <-
                counters.Counters.twin_update_bytes + (hi - lo);
              total_cost :=
                !total_cost + Cost_model.copy_cost_ns cost ~bytes:(hi - lo) ~warm:true
          | _ -> ());
          (* An incoming piece is the protocol's current data for its
             range: any saved diff overlapping it is superseded and must
             be dropped, or a later collection would resurrect the stale
             shadow over newer data. *)
          let saved = Page_index.get t.pending number in
          if saved != no_saved then drop t number saved lo hi
        done)
    pieces;
  !total_cost

let absorb t ~space ~proc ~ranges =
  let psize = page_size t in
  iter_pages t ranges (fun number ->
      let page_base = number lsl t.shift in
      let page = Page_table.peek t.pt page_base in
      match page.Page_table.twin with
      | Some twin when page.Page_table.dirty ->
          let current, cur_off = Space.backing_slice space ~proc page_base ~len:psize in
          let copy lo hi =
            Bytes.blit current (cur_off + (lo - page_base)) twin (lo - page_base) (hi - lo)
          in
          split ranges page_base (page_base + psize) ~inside:copy ~outside:(fun _ _ -> ())
      | _ -> ())

let discard_pending t ~ranges =
  iter_pages t ranges (fun number ->
      let p = Page_index.get t.pending number in
      if p != no_saved then begin
        let page_base = number lsl t.shift in
        split ranges page_base (page_base + page_size t) ~inside:(drop t number p)
          ~outside:(fun _ _ -> ())
      end)

let pending_pages t = Page_index.count t.pending

let forget t ~ranges =
  iter_pages t ranges (fun number ->
      let page = Page_table.peek t.pt (number lsl t.shift) in
      if page.Page_table.dirty then clean t page);
  discard_pending t ~ranges
