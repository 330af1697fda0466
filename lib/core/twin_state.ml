module Space = Midway_memory.Space
module Diff = Midway_vmem.Diff
module Counters = Midway_stats.Counters
module Cost_model = Midway_stats.Cost_model

(* One buffer per bound range, addressed by the range's base.  A twin's
   baseline is the state at this processor's last consistency point on
   the object; for data never synchronized that is the initial (zeroed)
   memory, so a missing twin materializes as zeros. *)
type twin = { ranges : Range.t list; buffers : (int * Bytes.t) list }

type t = { twins : (int, twin) Hashtbl.t }

let create () = { twins = Hashtbl.create 16 }

let zero_twin ranges =
  {
    ranges;
    buffers =
      List.map (fun (r : Range.t) -> (r.Range.addr, Bytes.make r.Range.len '\000')) ranges;
  }

let get_or_create t ~id ~ranges =
  match Hashtbl.find_opt t.twins id with
  | Some tw when tw.ranges = ranges -> tw
  | _ ->
      (* no twin yet, or the binding changed (rebinding) *)
      let tw = zero_twin ranges in
      Hashtbl.replace t.twins id tw;
      tw

let refresh t ~space ~proc ~id ~ranges =
  Hashtbl.replace t.twins id
    {
      ranges;
      buffers =
        List.map
          (fun (r : Range.t) ->
            (r.Range.addr, Space.read_bytes space ~proc r.Range.addr ~len:r.Range.len))
          ranges;
    }

let collect t ~space ~proc ~counters ~cost ~id ~ranges =
  let tw = get_or_create t ~id ~ranges in
  let pieces = ref [] in
  let total_cost = ref 0 in
  List.iter
    (fun (base, twin_buf) ->
      let len = Bytes.length twin_buf in
      let current = Space.read_bytes space ~proc base ~len in
      let runs, transitions = Diff.diff ~old_:twin_buf ~new_:current ~off:0 ~len in
      counters.Counters.twin_compare_bytes <- counters.Counters.twin_compare_bytes + len;
      total_cost := !total_cost + Cost_model.diff_cost_ns cost ~words:(len / 4) ~transitions;
      List.iter
        (fun (r : Diff.run) ->
          pieces :=
            { Payload.addr = base + r.Diff.off; data = Bytes.sub current r.Diff.off r.Diff.len }
            :: !pieces)
        runs;
      (* refresh the twin to the current contents *)
      Diff.apply ~src:current ~dst:twin_buf runs)
    tw.buffers;
  (List.rev !pieces, !total_cost)

let apply_pieces t ~space ~proc ~counters ~cost ~id ~ranges pieces =
  let tw = get_or_create t ~id ~ranges in
  let total_cost = ref 0 in
  List.iter
    (fun (p : Payload.vm_piece) ->
      let len = Bytes.length p.Payload.data in
      Space.write_bytes space ~proc p.Payload.addr p.Payload.data;
      total_cost := !total_cost + Cost_model.copy_cost_ns cost ~bytes:len ~warm:true;
      (* patch the twin so the update is not re-collected as local *)
      List.iter
        (fun (base, buf) ->
          let lo = Int.max p.Payload.addr base in
          let hi = Int.min (p.Payload.addr + len) (base + Bytes.length buf) in
          if lo < hi then begin
            Bytes.blit p.Payload.data (lo - p.Payload.addr) buf (lo - base) (hi - lo);
            counters.Counters.twin_update_bytes <-
              counters.Counters.twin_update_bytes + (hi - lo);
            total_cost := !total_cost + Cost_model.copy_cost_ns cost ~bytes:(hi - lo) ~warm:true
          end)
        tw.buffers)
    pieces;
  !total_cost
