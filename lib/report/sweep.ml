module Derived = Midway_stats.Derived
module Cost_model = Midway_stats.Cost_model

type point = { fault_us : float; rt_ms : float; vm_ms : float }

type line = { app : Suite.app; points : point list }

let fault_steps =
  (* 122 us .. 1200 us, geometric spacing. *)
  let lo = Cost_model.fast_exception_page_fault_us
  and hi = Cost_model.mach_page_fault_us in
  let n = 12 in
  List.init (n + 1) (fun i ->
      lo *. ((hi /. lo) ** (float_of_int i /. float_of_int n)))

let lines_of suite ~total =
  List.map
    (fun (e : Suite.entry) ->
      let rt = Midway_apps.Outcome.avg_counters e.Suite.rt in
      let vm = Midway_apps.Outcome.avg_counters e.Suite.vm in
      let points =
        List.map
          (fun fault_us ->
            let cost = Cost_model.with_page_fault_us suite.Suite.cost fault_us in
            let trap = Derived.trapping cost ~rt ~vm in
            let rt_ns, vm_ns =
              if total then begin
                let coll = Derived.collection cost ~rt ~vm in
                ( trap.Derived.rt_ns + coll.Derived.rt_total_ns,
                  trap.Derived.vm_ns + coll.Derived.vm_total_ns )
              end
              else (trap.Derived.rt_ns, trap.Derived.vm_ns)
            in
            {
              fault_us;
              rt_ms = Midway_util.Units.ms_of_ns rt_ns;
              vm_ms = Midway_util.Units.ms_of_ns vm_ns;
            })
          fault_steps
      in
      { app = e.Suite.app; points })
    suite.Suite.entries

let trapping_lines suite = lines_of suite ~total:false

let total_lines suite = lines_of suite ~total:true

(* Solve vm(fault) = rt for the fault time.  Both costs are affine in the
   fault time, so interpolate between the sweep endpoints. *)
let break_even_us lines =
  List.map
    (fun line ->
      match (line.points, List.rev line.points) with
      | lo :: _, hi :: _ ->
          let crossing =
            if (lo.vm_ms -. lo.rt_ms) *. (hi.vm_ms -. hi.rt_ms) > 0.0 then None
            else begin
              (* vm(f) = vm_lo + slope * (f - f_lo); rt constant. *)
              let slope = (hi.vm_ms -. lo.vm_ms) /. (hi.fault_us -. lo.fault_us) in
              if slope = 0.0 then None
              else Some (lo.fault_us +. ((lo.rt_ms -. lo.vm_ms) /. slope))
            end
          in
          (line.app, crossing)
      | _ -> (line.app, None))
    lines

let markers = [| '*'; 'q'; 'm'; 's'; 'c' |]

let render ~title suite lines =
  let plot =
    Midway_util.Asciiplot.create ~width:68 ~height:22 ~title
      ~x_label:"log10 VM-DSM cost (ms)" ~y_label:"log10 RT-DSM cost (ms)" ()
  in
  let log10 v = if v <= 0.0 then -1.0 else Float.log10 v in
  List.iteri
    (fun i line ->
      Midway_util.Asciiplot.series plot ~name:(Suite.app_name line.app)
        ~marker:markers.(i mod Array.length markers)
        (List.map (fun p -> (log10 p.vm_ms, log10 p.rt_ms)) line.points))
    lines;
  Midway_util.Asciiplot.diagonal plot;
  let tbl =
    Midway_util.Texttab.create
      ~columns:
        [
          ("application", Midway_util.Texttab.Left);
          ("RT cost (ms)", Midway_util.Texttab.Right);
          ("VM @122us (ms)", Midway_util.Texttab.Right);
          ("VM @1200us (ms)", Midway_util.Texttab.Right);
          ("break-even fault time", Midway_util.Texttab.Right);
          ("paper", Midway_util.Texttab.Right);
        ]
  in
  let bes = break_even_us lines in
  List.iter
    (fun line ->
      match (line.points, List.rev line.points) with
      | lo :: _, hi :: _ ->
          let be =
            match List.assoc line.app bes with
            | Some us -> Printf.sprintf "%.0f us" us
            | None -> if lo.vm_ms > lo.rt_ms then "always RT" else "always VM"
          in
          let paper =
            match line.app with
            | Suite.Matmul -> "650 us"
            | Suite.Quicksort -> "696 us"
            | _ -> "-"
          in
          Midway_util.Texttab.row tbl
            [
              Suite.app_name line.app;
              Midway_util.Texttab.fmt_float ~decimals:1 lo.rt_ms;
              Midway_util.Texttab.fmt_float ~decimals:1 lo.vm_ms;
              Midway_util.Texttab.fmt_float ~decimals:1 hi.vm_ms;
              be;
              paper;
            ]
      | _ -> ())
    lines;
  Printf.sprintf "%s (scale %.2f; points below the diagonal favour RT-DSM)\n" title
    suite.Suite.scale
  ^ Midway_util.Asciiplot.render plot
  ^ "\n" ^ Midway_util.Texttab.render tbl
