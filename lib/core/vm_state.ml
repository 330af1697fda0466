module Space = Midway_memory.Space
module Page_table = Midway_vmem.Page_table
module Diff = Midway_vmem.Diff
module Page_index = Midway_vmem.Page_index
module Counters = Midway_stats.Counters
module Cost_model = Midway_stats.Cost_model

(* A page's saved diff: the saved bytes' values in a page-sized shadow,
   and which bytes are saved in a bitmap with one bit per byte of the
   page (map byte [i lsr 3], bit [i land 7] for page offset [i]), a whole
   number of 64-bit words long.  A page is in the table exactly while
   some bit is set. *)
type pending_page = { shadow : Bytes.t; saved : Bytes.t }

(* The saved-diff table's "no saved diff on this page". *)
let no_saved = { shadow = Bytes.empty; saved = Bytes.empty }

type t = {
  pt : Page_table.t;
  shift : int;  (* [Page_table.page_shift pt] *)
  pending : pending_page Page_index.t;  (* page number -> saved diff *)
  spare : Bytes.t array;
      (* the page-buffer pool: [spare.(0 .. nspare-1)] are buffers of
         cleaned pages' twins and emptied saved diffs' shadows, for the
         next fault or saved diff *)
  mutable nspare : int;
}

(* Enough for the pages a processor dirties between two transfers of a
   lock; a barrier cleaning more lets the rest go. *)
let max_spare = 16

let create ~page_size =
  let pt = Page_table.create ~page_size in
  {
    pt;
    shift = Page_table.page_shift pt;
    pending = Page_index.create ~absent:no_saved;
    spare = Array.make max_spare Bytes.empty;
    nspare = 0;
  }

let page_table t = t.pt

let page_size t = Page_table.page_size t.pt

(* A page-sized buffer, from the pool when it holds one. *)
let take_buffer t =
  if t.nspare = 0 then Bytes.create (page_size t)
  else begin
    t.nspare <- t.nspare - 1;
    let buf = t.spare.(t.nspare) in
    t.spare.(t.nspare) <- Bytes.empty;
    buf
  end

(* Keep a buffer no one reads any more, unless the pool is full. *)
let give_buffer t buf =
  if t.nspare < max_spare then begin
    t.spare.(t.nspare) <- buf;
    t.nspare <- t.nspare + 1
  end

(* A page's offset in the live copy [Space.backing_slice] returns:
   regions are aligned to their size. *)
let[@inline] live_offset space addr = addr land (Space.region_size space - 1)

(* --- bitmaps ------------------------------------------------------------ *)

(* Offset [i]'s bit is bit [i land 63] of the map's 64-bit word [i lsr 6]
   read little-endian: every operation works a word at a time. *)
let[@inline] word map i = Bytes.get_int64_le map ((i lsr 6) lsl 3)

let[@inline] set_word map i w = Bytes.set_int64_le map ((i lsr 6) lsl 3) w

(* The end of [i]'s word, or [hi] if that comes first. *)
let[@inline] word_end i hi = Int.min hi (((i lsr 6) + 1) lsl 6)

(* The bits of [i]'s word for offsets [i, stop), [stop] at most the end
   of the word. *)
let[@inline] span i stop =
  let n = stop - i in
  Int64.shift_left (if n = 64 then -1L else Int64.pred (Int64.shift_left 1L n)) (i land 63)

let set_bits map lo hi =
  let i = ref lo in
  while !i < hi do
    let stop = word_end !i hi in
    set_word map !i (Int64.logor (word map !i) (span !i stop));
    i := stop
  done

(* Clear the bits of [lo, hi); whether any of them was set. *)
let clear_bits map lo hi =
  let cleared = ref false and i = ref lo in
  while !i < hi do
    let stop = word_end !i hi in
    let w = word map !i and m = span !i stop in
    if Int64.logand w m <> 0L then begin
      cleared := true;
      set_word map !i (Int64.logand w (Int64.lognot m))
    end;
    i := stop
  done;
  !cleared

let is_empty map =
  let rec go i = i >= Bytes.length map || (Bytes.get_int64_le map i = 0L && go (i + 8)) in
  go 0

(* The trailing zeros of [x], non-zero and below 2{^32}. *)
let ctz32 x =
  let n = ref 0 and x = ref x in
  if !x land 0xffff = 0 then begin n := 16; x := !x lsr 16 end;
  if !x land 0xff = 0 then begin n := !n + 8; x := !x lsr 8 end;
  if !x land 0xf = 0 then begin n := !n + 4; x := !x lsr 4 end;
  if !x land 0x3 = 0 then begin n := !n + 2; x := !x lsr 2 end;
  if !x land 0x1 = 0 then !n + 1 else !n

let[@inline] ctz w =
  let low = Int64.to_int w land 0xffff_ffff in
  if low <> 0 then ctz32 low else 32 + ctz32 (Int64.to_int (Int64.shift_right_logical w 32))

(* The first offset in [i, hi) whose bit is set ([flip] = 0L) or clear
   ([flip] = -1L), or [hi] when there is none. *)
let next_bit map i hi flip =
  let i = ref i and found = ref hi in
  while !i < hi do
    let w = Int64.shift_right_logical (Int64.logxor (word map !i) flip) (!i land 63) in
    if w = 0L then i := ((!i lsr 6) + 1) lsl 6
    else begin
      found := Int.min hi (!i + ctz w);
      i := hi
    end
  done;
  !found

(* --- trapping ----------------------------------------------------------- *)

(* A write fault on [page]: the twin is a copy of the page, in a pooled
   buffer when there is one. *)
let fault_in t ~space ~proc ~counters ~cost ~addr page =
  let psize = page_size t in
  let base = addr land lnot (psize - 1) in
  let current = Space.backing_slice space ~proc base ~len:psize in
  let twin = take_buffer t in
  Bytes.blit current (live_offset space base) twin 0 psize;
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

(* Clean a dirty page, pooling its twin's buffer: no one reads a twin
   once its page is clean. *)
let clean t (page : Page_table.page) =
  (match page.Page_table.twin with Some tw -> give_buffer t tw | None -> ());
  Page_table.clean t.pt page

(* --- collection --------------------------------------------------------- *)

(* [acc := f t ctx number acc] for each page overlapping [ranges]
   (normalized) from page [next] on, ascending, once each.  Each walk
   passes a function that captures nothing, with what it needs in [ctx],
   and the recursions below take their state as arguments, so a
   collection builds no closure. *)
let rec pages_from t ~next f ctx acc = function
  | [] -> acc
  | (r : Range.t) :: rest when Range.is_empty r -> pages_from t ~next f ctx acc rest
  | (r : Range.t) :: rest ->
      let last = (Range.limit r - 1) lsr t.shift in
      let acc = ref acc in
      for number = Int.max next (r.Range.addr lsr t.shift) to last do
        acc := f t ctx number !acc
      done;
      pages_from t ~next:(last + 1) f ctx !acc rest

let fold_pages t ranges f ctx acc = pages_from t ~next:0 f ctx acc ranges

(* [f lo hi] for each maximal part of [lo, hi) in [ranges]
   (normalized), in address order. *)
let rec iter_inside ranges lo hi f =
  match ranges with
  | (r : Range.t) :: rest when Range.limit r <= lo -> iter_inside rest lo hi f
  | (r : Range.t) :: rest when r.Range.addr < hi ->
      let stop = Int.min hi (Range.limit r) in
      f (Int.max lo r.Range.addr) stop;
      if stop < hi then iter_inside rest stop hi f
  | _ -> ()

(* Stash modified bytes [lo, hi) of page [number], which are *not* bound
   to the object being transferred, so a later transfer can ship them.
   [current] is a live view of the page starting at [cur_off].  A new
   saved diff's shadow is a pooled page buffer. *)
let save t number ~current ~cur_off ~page_base lo hi =
  let p =
    let p = Page_index.get t.pending number in
    if p != no_saved then p
    else begin
      let psize = page_size t in
      let p = { shadow = take_buffer t; saved = Bytes.make ((psize + 63) / 64 * 8) '\000' } in
      Page_index.set t.pending number p;
      p
    end
  in
  Bytes.blit current (cur_off + (lo - page_base)) p.shadow (lo - page_base) (hi - lo);
  set_bits p.saved (lo - page_base) (hi - page_base)

(* Clear the saved bits of [lo, hi) (absolute) on page [number]; the page
   leaves the table when none remains, and its shadow goes to the
   pool. *)
let drop t number p lo hi =
  let page_base = number lsl t.shift in
  if clear_bits p.saved (lo - page_base) (hi - page_base) && is_empty p.saved then begin
    Page_index.set t.pending number no_saved;
    give_buffer t p.shadow
  end

(* The maximal saved runs of the page at [page_base] from page offset [i]
   (the start of one, or [until]) to [until], each a piece consed onto
   [taken] in address order. *)
let rec take_runs p ~page_base i ~until taken =
  if i >= until then taken
  else
    let stop = next_bit p.saved i until (-1L) in
    let piece = { Payload.addr = page_base + i; data = Bytes.sub p.shadow i (stop - i) } in
    take_runs p ~page_base (next_bit p.saved stop until 0L) ~until (piece :: taken)

(* Consume page [number]'s saved runs in each part of [lo, hi) inside
   [ranges]. *)
let rec take_inside t number p ranges lo hi taken =
  match ranges with
  | (r : Range.t) :: rest when Range.limit r <= lo -> take_inside t number p rest lo hi taken
  | (r : Range.t) :: rest when r.Range.addr < hi ->
      let stop = Int.min hi (Range.limit r) in
      let start = Int.max lo r.Range.addr and page_base = number lsl t.shift in
      let taken =
        take_runs p ~page_base
          (next_bit p.saved (start - page_base) (stop - page_base) 0L)
          ~until:(stop - page_base) taken
      in
      drop t number p start stop;
      if stop < hi then take_inside t number p rest stop hi taken else taken
  | _ -> taken

(* Consume page [number]'s saved runs inside the bound [ranges]. *)
let take_page t ranges number taken =
  let p = Page_index.get t.pending number in
  if p == no_saved then taken
  else
    let page_base = number lsl t.shift in
    take_inside t number p ranges page_base (page_base + page_size t) taken

(* One collection's state, built once per call: what every page needs,
   the pieces shipped so far (newest first) and the page being diffed,
   which the diff's runs arrive at through [ship_run]. *)
type collecting = {
  vm : t;
  space : Space.t;
  proc : int;
  counters : Counters.t;
  cost : Cost_model.t;
  ranges : Range.t list;
  mutable shipped : Payload.vm_piece list;
  mutable number : int;  (* the page being diffed *)
  mutable current : Bytes.t;  (* its live view *)
  mutable cur_off : int;  (* where the page starts in [current] *)
}

(* Ship the parts of modified bytes [lo, hi) of the page being diffed
   inside [ranges] and stash the parts outside them. *)
let rec ship_or_save c ranges lo hi =
  let t = c.vm and number = c.number and current = c.current and cur_off = c.cur_off in
  let page_base = number lsl t.shift in
  match ranges with
  | (r : Range.t) :: rest when Range.limit r <= lo -> ship_or_save c rest lo hi
  | (r : Range.t) :: rest when r.Range.addr < hi ->
      if lo < r.Range.addr then save t number ~current ~cur_off ~page_base lo r.Range.addr;
      let start = Int.max lo r.Range.addr and stop = Int.min hi (Range.limit r) in
      let data = Bytes.sub current (cur_off + (start - page_base)) (stop - start) in
      c.shipped <- { Payload.addr = start; data } :: c.shipped;
      if stop < hi then ship_or_save c rest stop hi
  | _ -> save t number ~current ~cur_off ~page_base lo hi

(* The diff's run callback: the run of [len] modified bytes at page
   offset [off]. *)
let ship_run c off len =
  let lo = (c.number lsl c.vm.shift) + off in
  ship_or_save c c.ranges lo (lo + len)

(* Diff page [number] if it is dirty, shipping and stashing each
   modified run as the diff finds it, and clean it; [ns] plus the
   cost. *)
let collect_page t c number ns =
  let page_base = number lsl t.shift in
  let page = Page_table.peek t.pt page_base in
  if not page.Page_table.dirty then ns
  else begin
    let psize = page_size t in
    (* Zero-copy view of the processor's live page; only read below. *)
    c.current <- Space.backing_slice c.space ~proc:c.proc page_base ~len:psize;
    c.cur_off <- live_offset c.space page_base;
    c.number <- number;
    let twin =
      match page.Page_table.twin with
      | Some tw -> tw
      | None -> assert false (* dirty implies twinned *)
    in
    let transitions =
      Diff.scan_between ~old_:twin ~old_off:0 ~new_:c.current ~new_off:c.cur_off ~len:psize
        ship_run c
    in
    let counters = c.counters in
    counters.Counters.pages_diffed <- counters.Counters.pages_diffed + 1;
    (* All modified data is accounted for: the page is clean again. *)
    clean t page;
    counters.Counters.pages_write_protected <- counters.Counters.pages_write_protected + 1;
    ns
    + Cost_model.diff_cost_ns c.cost ~words:(psize / 4) ~transitions
    + c.cost.Cost_model.page_protect_ro_ns
  end

let collect t ~space ~proc ~counters ~cost ~ranges =
  let c =
    {
      vm = t;
      space;
      proc;
      counters;
      cost;
      ranges;
      shipped = [];
      number = 0;
      current = Bytes.empty;
      cur_off = 0;
    }
  in
  let ns = fold_pages t ranges collect_page c 0 in
  let fresh = List.rev c.shipped in
  (* Saved diffs can overlap words that were modified again and re-diffed
     since they were stashed; the fresh diff reflects current memory, so
     stale pieces must apply first and fresh pieces last.  Consing the
     saved pieces, page by page and run by run, onto the fresh ones puts
     them first, newest page and address first. *)
  (fold_pages t ranges take_page ranges fresh, ns)

(* The apply cost of [len] bytes at [addr], which arrived from [src] at
   [src_off]: their copy, and the twins of dirty pages patched from
   them so the update is not re-collected as a local modification.  An
   incoming piece is the protocol's current data for its range: any
   saved diff overlapping it is superseded and dropped, or a later
   collection would resurrect the stale shadow over newer data. *)
let patch t ~counters ~cost ~addr ~len ~src ~src_off =
  let psize = page_size t in
  let ns = ref (Cost_model.copy_cost_ns cost ~bytes:len ~warm:true) in
  if len > 0 then
    for number = addr lsr t.shift to (addr + len - 1) lsr t.shift do
      let page_base = number lsl t.shift in
      let lo = Int.max addr page_base and hi = Int.min (addr + len) (page_base + psize) in
      let page = Page_table.peek t.pt page_base in
      (match page.Page_table.twin with
      | Some twin when page.Page_table.dirty ->
          Bytes.blit src (src_off + (lo - addr)) twin (lo - page_base) (hi - lo);
          counters.Counters.twin_update_bytes <- counters.Counters.twin_update_bytes + (hi - lo);
          ns := !ns + Cost_model.copy_cost_ns cost ~bytes:(hi - lo) ~warm:true
      | _ -> ());
      let saved = Page_index.get t.pending number in
      if saved != no_saved then drop t number saved lo hi
    done;
  !ns

let applied t ~space ~proc ~counters ~cost ~addr ~len =
  let src = Space.backing_slice space ~proc addr ~len in
  patch t ~counters ~cost ~addr ~len ~src ~src_off:(live_offset space addr)

let rec apply_pieces_from t ~space ~proc ~counters ~cost ns = function
  | [] -> ns
  | (p : Payload.vm_piece) :: rest ->
      let addr = p.Payload.addr and src = p.Payload.data in
      let len = Bytes.length src in
      Space.write_bytes space ~proc addr src;
      let ns = ns + patch t ~counters ~cost ~addr ~len ~src ~src_off:0 in
      apply_pieces_from t ~space ~proc ~counters ~cost ns rest

let apply_pieces t ~space ~proc ~counters ~cost pieces =
  apply_pieces_from t ~space ~proc ~counters ~cost 0 pieces

let absorb_page t (space, proc, ranges) number () =
  let page_base = number lsl t.shift in
  let page = Page_table.peek t.pt page_base in
  match page.Page_table.twin with
  | Some twin when page.Page_table.dirty ->
      let psize = page_size t in
      let current = Space.backing_slice space ~proc page_base ~len:psize in
      let cur_off = live_offset space page_base in
      let copy lo hi =
        Bytes.blit current (cur_off + (lo - page_base)) twin (lo - page_base) (hi - lo)
      in
      iter_inside ranges page_base (page_base + psize) copy
  | _ -> ()

let absorb t ~space ~proc ~ranges = fold_pages t ranges absorb_page (space, proc, ranges) ()

let discard_page t ranges number () =
  let p = Page_index.get t.pending number in
  if p != no_saved then begin
    let page_base = number lsl t.shift in
    iter_inside ranges page_base (page_base + page_size t) (drop t number p)
  end

let discard_pending t ~ranges = fold_pages t ranges discard_page ranges ()

let pending_pages t = Page_index.count t.pending

let forget_page t () number () =
  let page = Page_table.peek t.pt (number lsl t.shift) in
  if page.Page_table.dirty then clean t page

let forget t ~ranges =
  fold_pages t ranges forget_page () ();
  discard_pending t ~ranges
