module Space = Midway_memory.Space
module Page_table = Midway_vmem.Page_table
module Diff = Midway_vmem.Diff
module Counters = Midway_stats.Counters
module Cost_model = Midway_stats.Cost_model

type pending_page = {
  shadow : Bytes.t;  (* page-sized snapshot of the diffed words *)
  mutable dirty : Range.t list;  (* absolute addresses, normalized *)
}

type t = {
  pt : Page_table.t;
  pending : (int, pending_page) Hashtbl.t;  (* page number -> saved diff *)
}

let create ~page_size = { pt = Page_table.create ~page_size; pending = Hashtbl.create 64 }

let page_table t = t.pt

let page_size t = Page_table.page_size t.pt

let on_write t ~space ~proc ~counters ~cost ~addr =
  let page = Page_table.page_of_addr t.pt addr in
  match page.Page_table.prot with
  | Page_table.Read_write -> 0
  | Page_table.Read_only ->
      let psize = page_size t in
      let page_base = addr / psize * psize in
      let contents = Space.read_bytes space ~proc page_base ~len:psize in
      (match Page_table.fault_on_write t.pt ~addr ~contents with
      | None -> assert false (* the page was read-only *)
      | Some _page ->
          counters.Counters.write_faults <- counters.Counters.write_faults + 1;
          cost.Cost_model.page_fault_ns)

let pending_for t number =
  match Hashtbl.find_opt t.pending number with
  | Some p -> p
  | None ->
      let p = { shadow = Bytes.create (page_size t); dirty = [] } in
      Hashtbl.replace t.pending number p;
      p

(* Stash the parts of a diffed page that are *not* bound to the object
   being transferred, so a later transfer can ship them.  [current] is a
   live view of the page starting at [cur_off]. *)
let save_outside t ~page_number ~page_base ~current ~cur_off outside =
  match outside with
  | [] -> ()
  | _ ->
      let p = pending_for t page_number in
      List.iter
        (fun (r : Range.t) ->
          Bytes.blit current
            (cur_off + (r.Range.addr - page_base))
            p.shadow (r.Range.addr - page_base) r.Range.len)
        outside;
      p.dirty <- Range.normalize (outside @ p.dirty)

(* Consume saved diffs that fall inside the bound ranges. *)
let take_pending t ~ranges ~page_numbers =
  let pieces = ref [] in
  List.iter
    (fun number ->
      match Hashtbl.find_opt t.pending number with
      | None -> ()
      | Some p ->
          let page_base = number * page_size t in
          let inside = List.concat_map (fun d -> Range.clip d ~within:ranges) p.dirty in
          if inside <> [] then begin
            List.iter
              (fun (r : Range.t) ->
                pieces :=
                  {
                    Payload.addr = r.Range.addr;
                    data = Bytes.sub p.shadow (r.Range.addr - page_base) r.Range.len;
                  }
                  :: !pieces)
              (Range.normalize inside);
            let remaining =
              List.concat_map (fun d -> Range.subtract d ~minus:ranges) p.dirty
              |> Range.normalize
            in
            if remaining = [] then Hashtbl.remove t.pending number
            else p.dirty <- remaining
          end)
    page_numbers;
  !pieces

let collect t ~space ~proc ~counters ~cost ~ranges =
  let psize = page_size t in
  (* Distinct page numbers overlapping the bound ranges, ascending. *)
  let page_numbers =
    List.concat_map
      (fun (r : Range.t) ->
        if Range.is_empty r then []
        else begin
          let first = r.Range.addr / psize and last = (Range.limit r - 1) / psize in
          List.init (last - first + 1) (fun i -> first + i)
        end)
      ranges
    |> List.sort_uniq compare
  in
  let pieces = ref [] in
  let total_cost = ref 0 in
  List.iter
    (fun number ->
      let page = Page_table.page_of_addr t.pt (number * psize) in
      if page.Page_table.dirty then begin
        let page_base = number * psize in
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
        let modified =
          List.map (fun (r : Diff.run) -> Range.v (page_base + r.Diff.off) r.Diff.len) runs
        in
        let inside = List.concat_map (fun m -> Range.clip m ~within:ranges) modified in
        let outside =
          List.concat_map (fun m -> Range.subtract m ~minus:ranges) modified
        in
        List.iter
          (fun (r : Range.t) ->
            pieces :=
              {
                Payload.addr = r.Range.addr;
                data = Bytes.sub current (cur_off + (r.Range.addr - page_base)) r.Range.len;
              }
              :: !pieces)
          (Range.normalize inside);
        save_outside t ~page_number:number ~page_base ~current ~cur_off outside;
        (* All modified data is accounted for: the page is clean again. *)
        Page_table.clean t.pt page;
        counters.Counters.pages_write_protected <-
          counters.Counters.pages_write_protected + 1;
        total_cost := !total_cost + cost.Cost_model.page_protect_ro_ns
      end)
    page_numbers;
  let saved = take_pending t ~ranges ~page_numbers in
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
      if len > 0 then begin
        let first = p.Payload.addr / psize and last = (p.Payload.addr + len - 1) / psize in
        for number = first to last do
          let page = Page_table.page_of_addr t.pt (number * psize) in
          (match page.Page_table.twin with
          | Some twin when page.Page_table.dirty ->
              let page_base = number * psize in
              let lo = max p.Payload.addr page_base in
              let hi = min (p.Payload.addr + len) (page_base + psize) in
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
          match Hashtbl.find_opt t.pending number with
          | None -> ()
          | Some pp ->
              let applied = Range.v p.Payload.addr len in
              let remaining =
                List.concat_map (fun d -> Range.subtract d ~minus:[ applied ]) pp.dirty
                |> Range.normalize
              in
              if remaining = [] then Hashtbl.remove t.pending number
              else pp.dirty <- remaining
        done
      end)
    pieces;
  !total_cost

let absorb t ~space ~proc ~ranges =
  let psize = page_size t in
  List.iter
    (fun (r : Range.t) ->
      if not (Range.is_empty r) then begin
        let first = r.Range.addr / psize and last = (Range.limit r - 1) / psize in
        for number = first to last do
          let page = Page_table.page_of_addr t.pt (number * psize) in
          match page.Page_table.twin with
          | Some twin when page.Page_table.dirty ->
              let page_base = number * psize in
              let lo = max r.Range.addr page_base in
              let hi = min (Range.limit r) (page_base + psize) in
              if lo < hi then begin
                let current, cur_off = Space.backing_slice space ~proc page_base ~len:psize in
                Bytes.blit current (cur_off + (lo - page_base)) twin (lo - page_base) (hi - lo)
              end
          | _ -> ()
        done
      end)
    ranges

let discard_pending t ~ranges =
  let psize = page_size t in
  let affected = ref [] in
  Hashtbl.iter
    (fun number p ->
      let page_base = number * psize in
      if List.exists (fun (r : Range.t) -> Range.overlaps r (Range.v page_base psize)) ranges
      then begin
        let remaining =
          List.concat_map (fun d -> Range.subtract d ~minus:ranges) p.dirty |> Range.normalize
        in
        affected := (number, remaining) :: !affected
      end)
    t.pending;
  List.iter
    (fun (number, remaining) ->
      if remaining = [] then Hashtbl.remove t.pending number
      else
        match Hashtbl.find_opt t.pending number with
        | Some p -> p.dirty <- remaining
        | None -> ())
    !affected

let pending_pages t = Hashtbl.length t.pending

let forget t ~ranges =
  let psize = page_size t in
  List.iter
    (fun (r : Range.t) ->
      if not (Range.is_empty r) then begin
        let first = r.Range.addr / psize and last = (Range.limit r - 1) / psize in
        for number = first to last do
          let page = Page_table.page_of_addr t.pt (number * psize) in
          if page.Page_table.dirty then Page_table.clean t.pt page
        done
      end)
    ranges;
  discard_pending t ~ranges
