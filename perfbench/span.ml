(* In-memory span log for the traced pass.

   The benchmark brackets every call it makes into a library layer with
   [enter] / [leave].  An event records the span, the host clock and the
   minor words allocated so far; nothing is formatted or written until the
   pass is over.  Spans carry the simulated processor they ran on (host
   code is processor -1) and their parent: the enclosing span on the same
   processor, or for a processor's outermost span the host span that was
   open when it began (the machine run).

   Self time.  Simulated processors are fibers that switch inside runtime
   calls, so spans of different processors interleave.  Host time between
   two consecutive events goes to the span the earlier event left open on
   its own processor, or to that processor's client code when none is
   open.  Every nanosecond between the first and the last event is counted
   exactly once, so self times partition the traced pass's wall time.
   Minor-heap allocation and GC intervals (from [Runtime_events]) are
   attributed by the same rule. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let max_procs = 64

type t = {
  mutable on : bool;
  names : (string, int) Hashtbl.t;
  mutable name_of : string array;
  (* spans, indexed by id *)
  mutable s_name : int array;
  mutable s_proc : int array;
  mutable s_parent : int array;
  mutable s_up : int array;  (* innermost open span on the same processor at entry *)
  mutable s_begin : int array;
  mutable s_end : int array;
  mutable s_sys : float array;  (* host spans: system CPU seconds at entry, then inclusive *)
  mutable n_spans : int;
  (* events: span id at entry, [lnot id] at exit *)
  mutable e_code : int array;
  mutable e_ts : int array;
  mutable e_words : float array;
  mutable n_events : int;
  cur : int array;  (* innermost open span per processor + 1, or -1 *)
}

(* An empty log: it costs nothing until [reserve] sizes it, so an
   untraced run carries none of it in its heap. *)
let create () =
  {
    on = false;
    names = Hashtbl.create 64;
    name_of = [||];
    s_name = [||];
    s_proc = [||];
    s_parent = [||];
    s_up = [||];
    s_begin = [||];
    s_end = [||];
    s_sys = [||];
    n_spans = 0;
    e_code = [||];
    e_ts = [||];
    e_words = [||];
    n_events = 0;
    cur = Array.make (max_procs + 1) (-1);
  }

let resize a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Room for [capacity] spans and their two events each, so that a traced
   pass of that size never grows the log while it runs.  [enter] grows it
   when it must; events never outnumber twice the spans. *)
let reserve t capacity =
  if capacity > Array.length t.s_name then begin
    t.s_name <- resize t.s_name capacity 0;
    t.s_proc <- resize t.s_proc capacity 0;
    t.s_parent <- resize t.s_parent capacity 0;
    t.s_up <- resize t.s_up capacity 0;
    t.s_begin <- resize t.s_begin capacity 0;
    t.s_end <- resize t.s_end capacity 0;
    t.s_sys <- resize t.s_sys capacity 0.0;
    t.e_code <- resize t.e_code (2 * capacity) 0;
    t.e_ts <- resize t.e_ts (2 * capacity) 0;
    t.e_words <- resize t.e_words (2 * capacity) 0.0
  end

(* Intern a span name; done during set-up, never inside a timed pass. *)
let name t s =
  match Hashtbl.find_opt t.names s with
  | Some i -> i
  | None ->
      let i = Array.length t.name_of in
      Hashtbl.add t.names s i;
      t.name_of <- Array.append t.name_of [| s |];
      i

let client_name = "(client)"

let event t code =
  let k = t.n_events in
  t.e_code.(k) <- code;
  t.e_words.(k) <- Gc.minor_words ();
  let ts = now_ns () in
  t.e_ts.(k) <- ts;
  t.n_events <- k + 1;
  ts

let sys_now () = (Unix.times ()).Unix.tms_stime

let enter t ~proc nm =
  if not t.on then -1
  else begin
    let id = t.n_spans in
    if id = Array.length t.s_name then reserve t (max 1024 (2 * id));
    let up = t.cur.(proc + 1) in
    t.s_name.(id) <- nm;
    t.s_proc.(id) <- proc;
    t.s_up.(id) <- up;
    t.s_parent.(id) <- (if up >= 0 || proc < 0 then up else t.cur.(0));
    if proc < 0 then t.s_sys.(id) <- sys_now ();
    t.cur.(proc + 1) <- id;
    t.n_spans <- id + 1;
    t.s_begin.(id) <- event t id;
    id
  end

let leave t id =
  if id >= 0 then begin
    let proc = t.s_proc.(id) in
    t.cur.(proc + 1) <- t.s_up.(id);
    t.s_end.(id) <- event t (lnot id);
    if proc < 0 then t.s_sys.(id) <- sys_now () -. t.s_sys.(id)
  end

(* ------------------------------------------------------------------ *)
(* GC intervals from the runtime's own event ring                      *)

type gc_kind = Minor | Major

type gc = { mutable intervals : (gc_kind * int * int) list; mutable lost : int }

let gc_callbacks g =
  let ts x = Int64.to_int (Runtime_events.Timestamp.to_int64 x) in
  let minor_open = ref (-1) and major_open = ref (-1) in
  let runtime_begin _ at phase =
    match phase with
    | Runtime_events.EV_MINOR -> minor_open := ts at
    | Runtime_events.EV_MAJOR_SLICE -> major_open := ts at
    | _ -> ()
  in
  let runtime_end _ at phase =
    match phase with
    | Runtime_events.EV_MINOR when !minor_open >= 0 ->
        g.intervals <- (Minor, !minor_open, ts at) :: g.intervals;
        minor_open := -1
    | Runtime_events.EV_MAJOR_SLICE when !major_open >= 0 ->
        g.intervals <- (Major, !major_open, ts at) :: g.intervals;
        major_open := -1
    | _ -> ()
  in
  let lost_events _ n = g.lost <- g.lost + n in
  Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ~lost_events ()

(* Start collecting GC intervals; [poll] drains the ring and must be
   called often enough that it does not wrap (the ring size is set with
   OCAMLRUNPARAM=e=...). *)
let gc_start () =
  Runtime_events.start ();
  let cursor = Runtime_events.create_cursor None in
  let g = { intervals = []; lost = 0 } in
  let cb = gc_callbacks g in
  (* discard whatever the ring held before this point *)
  ignore (Runtime_events.read_poll cursor cb None);
  g.intervals <- [];
  g.lost <- 0;
  let poll () = ignore (Runtime_events.read_poll cursor cb None) in
  let stop () =
    poll ();
    Runtime_events.pause ();
    Runtime_events.free_cursor cursor
  in
  (g, poll, stop)

(* ------------------------------------------------------------------ *)
(* Self-time analysis                                                   *)

type summary = {
  self_ns : int array;  (* per span *)
  by_name : string array;  (* the last entry is the client bucket *)
  name_count : int array;
  name_self_ns : int array;
  name_words : float array;
  name_gc_minor_ns : int array;
  name_gc_major_ns : int array;
  name_sys_s : float array;  (* inclusive, host spans only *)
  first_ts : int;
  last_ts : int;
  gc_minor_ns : int;
  gc_major_ns : int;
}

let analyse t (g : gc) =
  let nn = Array.length t.name_of in
  let client = nn in
  let self_ns = Array.make t.n_spans 0 in
  let name_count = Array.make (nn + 1) 0 in
  let name_self_ns = Array.make (nn + 1) 0 in
  let name_words = Array.make (nn + 1) 0.0 in
  let name_gc_minor_ns = Array.make (nn + 1) 0 in
  let name_gc_major_ns = Array.make (nn + 1) 0 in
  let name_sys_s = Array.make (nn + 1) 0.0 in
  for id = 0 to t.n_spans - 1 do
    let nm = t.s_name.(id) in
    name_count.(nm) <- name_count.(nm) + 1;
    if t.s_proc.(id) < 0 then name_sys_s.(nm) <- name_sys_s.(nm) +. t.s_sys.(id)
  done;
  let first_ts = if t.n_events > 0 then t.e_ts.(0) else 0 in
  let last_ts = if t.n_events > 0 then t.e_ts.(t.n_events - 1) else 0 in
  (* GC intervals inside the traced window, oldest first *)
  let gcs =
    List.filter (fun (_, b, e) -> e > first_ts && b < last_ts) g.intervals
    |> List.sort (fun (_, b1, _) (_, b2, _) -> compare b1 b2)
    |> Array.of_list
  in
  let gc_total kind =
    Array.fold_left
      (fun acc (k, b, e) -> if k = kind then acc + (min e last_ts - max b first_ts) else acc)
      0 gcs
  in
  let cur = Array.make (max_procs + 1) (-1) in
  let gi = ref 0 in
  for k = 0 to t.n_events - 2 do
    let code = t.e_code.(k) in
    let proc =
      if code >= 0 then begin
        let p = t.s_proc.(code) in
        cur.(p + 1) <- code;
        p
      end
      else begin
        let id = lnot code in
        let p = t.s_proc.(id) in
        cur.(p + 1) <- t.s_up.(id);
        p
      end
    in
    let owner = cur.(proc + 1) in
    let nm = if owner >= 0 then t.s_name.(owner) else client in
    let lo = t.e_ts.(k) and hi = t.e_ts.(k + 1) in
    let dt = hi - lo in
    if owner >= 0 then self_ns.(owner) <- self_ns.(owner) + dt;
    name_self_ns.(nm) <- name_self_ns.(nm) + dt;
    name_words.(nm) <- name_words.(nm) +. (t.e_words.(k + 1) -. t.e_words.(k));
    (* GC time overlapping [lo, hi) goes to the same owner *)
    while !gi < Array.length gcs && (let _, _, e = gcs.(!gi) in e <= lo) do incr gi done;
    let j = ref !gi in
    while !j < Array.length gcs && (let _, b, _ = gcs.(!j) in b < hi) do
      let kind, b, e = gcs.(!j) in
      let ov = min e hi - max b lo in
      if ov > 0 then begin
        match kind with
        | Minor -> name_gc_minor_ns.(nm) <- name_gc_minor_ns.(nm) + ov
        | Major -> name_gc_major_ns.(nm) <- name_gc_major_ns.(nm) + ov
      end;
      incr j
    done
  done;
  {
    self_ns;
    by_name = Array.append t.name_of [| client_name |];
    name_count;
    name_self_ns;
    name_words;
    name_gc_minor_ns;
    name_gc_major_ns;
    name_sys_s;
    first_ts;
    last_ts;
    gc_minor_ns = gc_total Minor;
    gc_major_ns = gc_total Major;
  }

(* Self times of every span with the given name, in ns. *)
let self_times t s nm =
  let acc = ref [] in
  for id = t.n_spans - 1 downto 0 do
    if t.s_name.(id) = nm then acc := s.self_ns.(id) :: !acc
  done;
  Array.of_list !acc

(* Write the span log: a per-name summary, then one line per span. *)
let write t s ~path ~header =
  let oc = open_out path in
  List.iter (fun (k, v) -> Printf.fprintf oc "# %s\t%s\n" k v) header;
  Printf.fprintf oc "# wall_ns\t%d\n" (s.last_ts - s.first_ts);
  Printf.fprintf oc "# gc_minor_ns\t%d\n# gc_major_ns\t%d\n" s.gc_minor_ns s.gc_major_ns;
  output_string oc
    "name\tcount\tself_ns\tminor_words\tgc_minor_ns\tgc_major_ns\thost_sys_s\n";
  Array.iteri
    (fun i nm ->
      if s.name_count.(i) > 0 || s.name_self_ns.(i) > 0 then
        Printf.fprintf oc "%s\t%d\t%d\t%.0f\t%d\t%d\t%.6f\n" nm s.name_count.(i)
          s.name_self_ns.(i) s.name_words.(i) s.name_gc_minor_ns.(i) s.name_gc_major_ns.(i)
          s.name_sys_s.(i))
    s.by_name;
  output_string oc "\nspan\tname\tproc\tparent\tbegin_ns\tend_ns\tself_ns\n";
  for id = 0 to t.n_spans - 1 do
    Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\t%d\n" id t.name_of.(t.s_name.(id)) t.s_proc.(id)
      t.s_parent.(id) (t.s_begin.(id) - s.first_ts) (t.s_end.(id) - s.first_ts) s.self_ns.(id)
  done;
  close_out oc
