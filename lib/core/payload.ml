module Space = Midway_memory.Space

type rt_source = Copy of int | Snapshot of Bytes.t

type rt_runs = { runs : Gather.t; source : rt_source }

type vm_piece = { addr : int; data : Bytes.t }

type t =
  | Rt_runs of rt_runs list
  | Vm_updates of vm_piece list list
  | Vm_full of vm_piece list
  | Empty

let pieces_bytes pieces =
  List.fold_left (fun acc p -> acc + Bytes.length p.data) 0 pieces

let app_bytes = function
  | Rt_runs parts -> List.fold_left (fun acc p -> acc + Gather.total_bytes p.runs) 0 parts
  | Vm_updates updates -> List.fold_left (fun acc u -> acc + pieces_bytes u) 0 updates
  | Vm_full pieces -> pieces_bytes pieces
  | Empty -> 0

let descriptors = function
  | Rt_runs parts -> List.fold_left (fun acc p -> acc + Gather.descriptors p.runs) 0 parts
  | Vm_updates updates -> List.fold_left (fun acc u -> acc + List.length u) 0 updates
  | Vm_full pieces -> List.length pieces
  | Empty -> 0

let descriptor_bytes = 8

let snapshot space ~proc runs =
  let runs = Gather.copy runs in
  let buf = Bytes.create (Gather.total_bytes runs) in
  let mask = Space.region_size space - 1 in
  let off = ref 0 in
  for i = 0 to Gather.length runs - 1 do
    let addr = Gather.addr runs i and len = Gather.len runs i in
    Bytes.blit (Space.backing_slice space ~proc addr ~len) (addr land mask) buf !off len;
    off := !off + len
  done;
  { runs; source = Snapshot buf }

let install space ~proc part ~addr ~off ~len =
  match part.source with
  | Copy src_proc -> Space.copy_range space ~src_proc ~dst_proc:proc addr ~len
  | Snapshot buf -> Space.write_sub space ~proc addr buf ~off ~len

let read_pieces space ~proc ranges =
  List.filter_map
    (fun (r : Range.t) ->
      if Range.is_empty r then None
      else Some { addr = r.Range.addr; data = Space.read_bytes space ~proc r.Range.addr ~len:r.Range.len })
    ranges

let write_pieces space ~proc pieces =
  List.iter (fun p -> Space.write_bytes space ~proc p.addr p.data) pieces

let page_runs payload ~page_size =
  let pages = ref 0 and runs = ref 0 and last = ref (-1) in
  let note addr len =
    if len > 0 then begin
      incr runs;
      let first = addr / page_size and last_page = (addr + len - 1) / page_size in
      let first = if first = !last then first + 1 else first in
      if last_page >= first then pages := !pages + (last_page - first + 1);
      if last_page > !last then last := last_page
    end
  in
  let note_piece (p : vm_piece) = note p.addr (Bytes.length p.data) in
  let note_part p =
    for i = 0 to Gather.length p.runs - 1 do
      note (Gather.addr p.runs i) (Gather.len p.runs i)
    done
  in
  (match payload with
  | Rt_runs parts -> List.iter note_part parts
  | Vm_full pieces -> List.iter note_piece pieces
  | Vm_updates updates -> List.iter (List.iter note_piece) updates
  | Empty -> ());
  (!pages, !runs)
