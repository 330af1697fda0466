(* A small in-process metrics registry: named counters and fixed-bucket
   histograms, each keyed by (metric name, label).  Labels are free-form
   strings; the runtime uses the conventions "p3/lock2" (processor 3,
   sync object "lock 2") and "p0->p2" (a network channel), so one
   registry carries both per-processor and per-sync-object series.

   Everything is integer-valued (the simulator deals in nanoseconds and
   bytes), deterministic (snapshots sort their series), and free of
   external dependencies beyond Midway_util.Json for the export. *)

module Json = Midway_util.Json

(* Fixed bucket upper bounds (inclusive: a value v lands in the first
   bucket with v <= bound; larger values land in the implicit overflow
   bucket).  The defaults cover the simulator's dynamic ranges. *)

let ns_buckets =
  [| 1_000; 10_000; 100_000; 300_000; 1_000_000; 3_000_000; 10_000_000; 100_000_000;
     1_000_000_000 |]

let bytes_buckets = [| 0; 64; 256; 1_024; 4_096; 16_384; 65_536; 262_144; 1_048_576 |]

let count_buckets = [| 0; 1; 2; 4; 8; 16; 32; 64 |]

(* Request latencies want tighter percentile brackets than ns_buckets'
   coarse decades: roughly 1-1.8-3.2-5.6 per decade from 1 us to 1 s,
   so a quantile bracket is at most a factor of ~1.8 wide. *)
let latency_buckets =
  [|
    1_000; 1_800; 3_200; 5_600; 10_000; 18_000; 32_000; 56_000; 100_000; 180_000; 320_000;
    560_000; 1_000_000; 1_800_000; 3_200_000; 5_600_000; 10_000_000; 18_000_000; 32_000_000;
    56_000_000; 100_000_000; 180_000_000; 320_000_000; 560_000_000; 1_000_000_000;
  |]

type hist = {
  buckets : int array;  (* strictly increasing upper bounds *)
  counts : int array;  (* length buckets + 1; last = overflow *)
  mutable sum : int;
  mutable n : int;
  mutable vmin : int;
  mutable vmax : int;
}

type t = {
  counters : (string * string, int ref) Hashtbl.t;
  hists : (string * string, hist) Hashtbl.t;
  bucket_spec : (string, int array) Hashtbl.t;  (* one bucket layout per metric name *)
}

let create () =
  { counters = Hashtbl.create 32; hists = Hashtbl.create 32; bucket_spec = Hashtbl.create 8 }

let incr t ~name ?(label = "") v =
  match Hashtbl.find_opt t.counters (name, label) with
  | Some r -> r := !r + v
  | None -> Hashtbl.replace t.counters (name, label) (ref v)

let validate_buckets buckets =
  if Array.length buckets = 0 then invalid_arg "Metrics.observe: empty bucket layout";
  Array.iteri
    (fun i b ->
      if i > 0 && b <= buckets.(i - 1) then
        invalid_arg "Metrics.observe: bucket bounds must be strictly increasing")
    buckets

(* The first [observe] of a metric name fixes its bucket layout; later
   calls reuse it so every label of one metric is comparable. *)
let layout_for t ~name ~buckets =
  match Hashtbl.find_opt t.bucket_spec name with
  | Some b -> b
  | None ->
      let b = Option.value buckets ~default:ns_buckets in
      validate_buckets b;
      Hashtbl.replace t.bucket_spec name b;
      b

let rec bucket_from (buckets : int array) (v : int) i =
  if i >= Array.length buckets || v <= buckets.(i) then i else bucket_from buckets v (i + 1)

let bucket_index buckets v = bucket_from buckets v 0

let observe t ~name ?(label = "") ?buckets v =
  let h =
    match Hashtbl.find_opt t.hists (name, label) with
    | Some h -> h
    | None ->
        let layout = layout_for t ~name ~buckets in
        let h =
          {
            buckets = layout;
            counts = Array.make (Array.length layout + 1) 0;
            sum = 0;
            n = 0;
            vmin = max_int;
            vmax = min_int;
          }
        in
        Hashtbl.replace t.hists (name, label) h;
        h
  in
  let i = bucket_index h.buckets v in
  h.counts.(i) <- h.counts.(i) + 1;
  h.sum <- h.sum + v;
  h.n <- h.n + 1;
  if v < h.vmin then h.vmin <- v;
  if v > h.vmax then h.vmax <- v

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type hist_view = {
  h_buckets : int array;
  h_counts : int array;
  h_sum : int;
  h_count : int;
  h_min : int;  (* meaningless (max_int) when h_count = 0 *)
  h_max : int;
}

type snapshot = {
  s_counters : ((string * string) * int) list;  (* sorted by (name, label) *)
  s_hists : ((string * string) * hist_view) list;
}

let snapshot t =
  let counters =
    Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.counters []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let hists =
    Hashtbl.fold
      (fun k h acc ->
        ( k,
          {
            h_buckets = Array.copy h.buckets;
            h_counts = Array.copy h.counts;
            h_sum = h.sum;
            h_count = h.n;
            h_min = h.vmin;
            h_max = h.vmax;
          } )
        :: acc)
      t.hists []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  { s_counters = counters; s_hists = hists }

let counter_value s ~name ~label =
  match List.assoc_opt (name, label) s.s_counters with Some v -> v | None -> 0

let find_hist s ~name ~label = List.assoc_opt (name, label) s.s_hists

(* Aggregate one metric across all of its labels. *)
let hist_totals s ~name =
  List.fold_left
    (fun (sum, count) (((n, _), h) : (string * string) * hist_view) ->
      if n = name then (sum + h.h_sum, count + h.h_count) else (sum, count))
    (0, 0) s.s_hists

(* Nearest-rank quantile bracketing.  With inclusive upper bounds a
   value v in bucket i satisfies bound(i-1) < v <= bound(i), so when the
   cumulative count first reaches the rank at bucket i the exact
   nearest-rank quantile lies in exactly that open-closed interval:
   lo < q-th value <= hi.  The bracket width is the quantization error
   bound of any percentile read off the histogram. *)
let quantile (h : hist_view) q =
  if h.h_count = 0 then invalid_arg "Metrics.quantile: empty histogram";
  if not (q > 0. && q <= 1.) then invalid_arg "Metrics.quantile: q must be in (0, 1]";
  let rank = max 1 (int_of_float (ceil (q *. float_of_int h.h_count))) in
  let nb = Array.length h.h_buckets in
  let rec go i cum =
    let cum = cum + h.h_counts.(i) in
    if cum >= rank then i else go (i + 1) cum
  in
  let i = go 0 0 in
  let lo = if i = 0 then h.h_min - 1 else h.h_buckets.(i - 1) in
  let hi = if i < nb then h.h_buckets.(i) else h.h_max in
  (lo, hi)

let quantile_le h q = snd (quantile h q)

let labels_of s ~name =
  List.filter_map
    (fun (((n, l), _) : (string * string) * hist_view) -> if n = name then Some l else None)
    s.s_hists

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let to_json s =
  let counter ((name, label), v) =
    Json.Obj [ ("name", Json.Str name); ("label", Json.Str label); ("value", Json.Int v) ]
  in
  let hist ((name, label), h) =
    let buckets =
      List.init
        (Array.length h.h_counts)
        (fun i ->
          let le =
            if i < Array.length h.h_buckets then Json.Int h.h_buckets.(i) else Json.Str "inf"
          in
          Json.Obj [ ("le", le); ("count", Json.Int h.h_counts.(i)) ])
    in
    Json.Obj
      [
        ("name", Json.Str name);
        ("label", Json.Str label);
        ("count", Json.Int h.h_count);
        ("sum", Json.Int h.h_sum);
        ("min", Json.Int (if h.h_count = 0 then 0 else h.h_min));
        ("max", Json.Int (if h.h_count = 0 then 0 else h.h_max));
        ("buckets", Json.List buckets);
      ]
  in
  Json.Obj
    [
      ("counters", Json.List (List.map counter s.s_counters));
      ("histograms", Json.List (List.map hist s.s_hists));
    ]

let render_markdown s =
  let buf = Buffer.create 1024 in
  if s.s_counters <> [] then begin
    Buffer.add_string buf "## Counters\n\n| counter | label | value |\n|---|---|---:|\n";
    List.iter
      (fun ((name, label), v) ->
        Buffer.add_string buf (Printf.sprintf "| %s | %s | %d |\n" name label v))
      s.s_counters;
    Buffer.add_char buf '\n'
  end;
  if s.s_hists <> [] then begin
    Buffer.add_string buf
      "## Histograms\n\n\
       | histogram | label | count | sum | min | max | mean |\n\
       |---|---|---:|---:|---:|---:|---:|\n";
    List.iter
      (fun ((name, label), h) ->
        if h.h_count = 0 then
          Buffer.add_string buf (Printf.sprintf "| %s | %s | 0 | 0 | - | - | - |\n" name label)
        else
          Buffer.add_string buf
            (Printf.sprintf "| %s | %s | %d | %d | %d | %d | %.1f |\n" name label h.h_count
               h.h_sum h.h_min h.h_max
               (float_of_int h.h_sum /. float_of_int h.h_count)))
      s.s_hists
  end;
  Buffer.contents buf
