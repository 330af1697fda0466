(* Tests for the experiment layer: suite execution, table rendering and
   the sweep/break-even computation behind Figures 3 and 4. *)

module Suite = Midway_report.Suite
module Sweep = Midway_report.Sweep
module Tables = Midway_report.Tables

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

(* One tiny suite shared by all rendering tests (suites are expensive). *)
let suite =
  lazy (Suite.run ~apps:[ Suite.Sor; Suite.Quicksort ] ~nprocs:4 ~scale:0.05 ())

let test_suite_runs () =
  let s = Lazy.force suite in
  Alcotest.(check int) "two entries" 2 (List.length s.Suite.entries);
  List.iter
    (fun e ->
      Alcotest.(check bool) "rt verified" true e.Suite.rt.Midway_apps.Outcome.ok;
      Alcotest.(check bool) "vm verified" true e.Suite.vm.Midway_apps.Outcome.ok;
      Alcotest.(check bool) "standalone verified" true e.Suite.standalone.Midway_apps.Outcome.ok)
    s.Suite.entries;
  Alcotest.(check bool) "entry lookup" true (Suite.entry s Suite.Sor == List.hd s.Suite.entries)

let test_app_names_roundtrip () =
  List.iter
    (fun app ->
      match Suite.app_of_string (Suite.app_name app) with
      | Ok app' -> Alcotest.(check bool) "round trip" true (app = app')
      | Error e -> Alcotest.fail e)
    Suite.apps;
  Alcotest.(check bool) "unknown rejected" true
    (match Suite.app_of_string "frobnicate" with Error _ -> true | Ok _ -> false)

let test_table1 () =
  let s = Midway_report.Table1.render Midway_stats.Cost_model.default in
  List.iter
    (fun needle -> Alcotest.(check bool) ("mentions " ^ needle) true (contains s needle))
    [ "dirtybit set"; "page write fault"; "0.360"; "1200"; "30,000" ]

let render_mentions_apps render =
  let s = Lazy.force suite in
  let out = render s in
  Alcotest.(check bool) "mentions sor" true (contains out "sor");
  Alcotest.(check bool) "mentions quicksort" true (contains out "quicksort");
  Alcotest.(check bool) "mentions paper" true (contains out "paper")

let test_table2 () = render_mentions_apps (Tables.render Tables.table2)

(* A row pair's measured values for one application of a suite. *)
let measured s app rt vm =
  let e = Suite.entry s app in
  (Tables.measured rt s e, Tables.measured vm s e)

let test_table3 () =
  render_mentions_apps (Tables.render Tables.table3);
  let rt_ms, vm_ms =
    measured (Lazy.force suite) Suite.Sor Tables.rt_trapping Tables.vm_trapping
  in
  Alcotest.(check bool) "positive costs" true (rt_ms > 0.0 && vm_ms > 0.0);
  Alcotest.(check bool) "sor trapping favours RT (paper shape)" true (rt_ms < vm_ms)

let test_table4 () =
  render_mentions_apps (Tables.render Tables.table4);
  let rt_ms, vm_ms =
    measured (Lazy.force suite) Suite.Quicksort Tables.rt_collection Tables.vm_collection
  in
  Alcotest.(check bool) "collection costs positive" true (rt_ms > 0.0 && vm_ms > 0.0)

let test_table4_quicksort_shape () =
  (* The paper's one VM-favouring cell — quicksort write collection —
     needs the paper's task size to show: the fixed per-page diff cost
     dominates when leaves are small, so this runs at full scale. *)
  let s = Suite.run ~apps:[ Suite.Quicksort ] ~nprocs:8 ~scale:1.0 () in
  let rt_ms, vm_ms = measured s Suite.Quicksort Tables.rt_collection Tables.vm_collection in
  Alcotest.(check bool)
    (Printf.sprintf "quicksort collection favours VM (rt=%.1f vm=%.1f)" rt_ms vm_ms)
    true (vm_ms < rt_ms)

let test_table5 () = render_mentions_apps (Tables.render Tables.table5)

(* A rendered table's box, each line reduced to its label and "(paper)"
   cells, trimmed ([["+"]] for a rule): what does not depend on the
   suite's scale or processor count. *)
let published_cells box =
  List.filter_map
    (fun l ->
      if String.starts_with ~prefix:"+" l then Some [ "+" ]
      else if String.starts_with ~prefix:"|" l then
        let cells = String.split_on_char '|' l in
        let cells = List.filteri (fun i _ -> i > 0 && i < List.length cells - 1) cells in
        Some (List.filteri (fun i _ -> i < 2 || i mod 2 = 1) (List.map String.trim cells))
      else None)
    box

(* The lines of the section of [text] whose title starts with [prefix],
   up to the blank line that ends it. *)
let section text prefix =
  let rec from = function
    | [] -> []
    | l :: rest when String.starts_with ~prefix l -> l :: upto rest
    | _ :: rest -> from rest
  and upto = function [] | "" :: _ -> [] | l :: rest -> l :: upto rest in
  from (String.split_on_char '\n' text)

let test_published_cells () =
  (* the published cells do not depend on scale: a small five-app suite
     renders them as the committed full-size run does *)
  let s = Suite.run ~nprocs:4 ~scale:0.05 () in
  let full =
    In_channel.with_open_bin
      (Filename.concat
         (Filename.dirname (Filename.dirname Sys.executable_name))
         "experiments_full.txt")
      In_channel.input_all
  in
  List.iter
    (fun (name, table) ->
      let rendered = section (Tables.render table s) name in
      let committed = section full name in
      Alcotest.(check int) (name ^ " lines") (List.length committed) (List.length rendered);
      Alcotest.(check (list (list string)))
        (name ^ " labels and paper cells") (published_cells committed)
        (published_cells rendered))
    [
      ("Table 2:", Tables.table2);
      ("Table 3:", Tables.table3);
      ("Table 4:", Tables.table4);
      ("Table 5:", Tables.table5);
    ]

let test_fig2 () =
  let s = Lazy.force suite in
  let out = Midway_report.Fig2.render s in
  Alcotest.(check bool) "has execution-time chart" true (contains out "Execution time");
  Alcotest.(check bool) "has data chart" true (contains out "Total data transferred")

let test_sweep_endpoints () =
  let s = Lazy.force suite in
  let lines = Sweep.trapping_lines s in
  Alcotest.(check int) "one line per app" 2 (List.length lines);
  List.iter
    (fun l ->
      match (l.Sweep.points, List.rev l.Sweep.points) with
      | lo :: _, hi :: _ ->
          Alcotest.(check (float 0.5)) "sweep starts at 122 us" 122.0 lo.Sweep.fault_us;
          Alcotest.(check (float 0.5)) "sweep ends at 1200 us" 1200.0 hi.Sweep.fault_us;
          Alcotest.(check bool) "RT cost independent of fault time" true
            (lo.Sweep.rt_ms = hi.Sweep.rt_ms);
          Alcotest.(check bool) "VM cost grows with fault time" true
            (lo.Sweep.vm_ms <= hi.Sweep.vm_ms)
      | _ -> Alcotest.fail "empty sweep")
    lines

let test_break_even_math () =
  let s = Lazy.force suite in
  (* synthetic line: rt = 5 ms; vm = faults x fault cost with 10 faults =>
     crossing at 500 us. *)
  let points =
    List.map
      (fun fault_us -> { Sweep.fault_us; rt_ms = 5.0; vm_ms = 10.0 *. fault_us /. 1000.0 })
      [ 122.0; 600.0; 1200.0 ]
  in
  let line = { Sweep.app = Suite.Sor; points } in
  (match Sweep.break_even_us [ line ] with
  | [ (_, Some us) ] -> Alcotest.(check (float 1.0)) "crossing at 500 us" 500.0 us
  | _ -> Alcotest.fail "expected a crossing");
  (* a line entirely above rt never crosses *)
  let flat =
    { Sweep.app = Suite.Sor;
      points = List.map (fun p -> { p with Sweep.vm_ms = 100.0 }) points }
  in
  (match Sweep.break_even_us [ flat ] with
  | [ (_, None) ] -> ()
  | _ -> Alcotest.fail "expected no crossing");
  ignore s

let test_sweep_render () =
  let s = Lazy.force suite in
  let out = Sweep.render ~title:"Figure 3" s (Sweep.trapping_lines s) in
  Alcotest.(check bool) "has plot" true (contains out "break-even");
  Alcotest.(check bool) "has table" true (contains out "application")

let test_csv () =
  let s = Lazy.force suite in
  let out = Midway_report.Csv.of_suite s in
  let lines = String.split_on_char '\n' out |> List.filter (fun l -> l <> "") in
  Alcotest.(check int) "header + 3 rows per app" (1 + (3 * 2)) (List.length lines);
  let cols s = List.length (String.split_on_char ',' s) in
  let widths = List.map cols lines in
  (match widths with
  | w :: rest -> List.iter (fun w' -> Alcotest.(check int) "rectangular" w w') rest
  | [] -> Alcotest.fail "empty csv");
  Alcotest.(check bool) "header first" true (contains (List.hd lines) "app,system")

let test_csv_quoting () =
  (* RFC 4180: fields carrying the delimiter, quotes or line breaks must
     be quoted, with embedded quotes doubled; plain fields stay bare *)
  Alcotest.(check string) "plain passes through" "water" (Midway_report.Csv.field "water");
  Alcotest.(check string) "empty passes through" "" (Midway_report.Csv.field "");
  Alcotest.(check string) "comma quoted" "\"a,b\"" (Midway_report.Csv.field "a,b");
  Alcotest.(check string) "quote doubled" "\"say \"\"hi\"\"\"" (Midway_report.Csv.field "say \"hi\"");
  Alcotest.(check string) "newline quoted" "\"two\nlines\"" (Midway_report.Csv.field "two\nlines");
  Alcotest.(check string) "carriage return quoted" "\"a\rb\"" (Midway_report.Csv.field "a\rb");
  Alcotest.(check string) "all at once" "\"x,\"\"y\"\"\n\"" (Midway_report.Csv.field "x,\"y\"\n")

let test_paper_data_consistency () =
  (* guards against transcription typos: the published component rows
     must sum to the published totals (Table 4), and Table 3 must follow
     from Table 2 counts x Table 1 costs.  Table 5's totals are sums of
     its rows by construction. *)
  let table2_row operation =
    List.find (fun r -> r.Tables.operation = operation) (List.concat Tables.table2.Tables.groups)
  in
  List.iter
    (fun app ->
      let paper r = Tables.published r app in
      List.iter
        (fun total ->
          let group = List.find (List.memq total) Tables.table4.Tables.groups in
          let components = List.filter (fun r -> r != total) group in
          Alcotest.(check bool)
            (Printf.sprintf "%s %s table4 components sum" (Suite.app_name app)
               (List.hd group).Tables.system)
            true
            (Float.abs (List.fold_left (fun acc r -> acc +. paper r) 0.0 components -. paper total)
            <= 0.15))
        [ Tables.rt_collection; Tables.vm_collection ];
      let rt_ms =
        ((paper (table2_row "dirtybits set") *. 360.0)
        +. (paper (table2_row "dirtybits misclassified") *. 240.0))
        /. 1.0e6
      in
      (* cholesky is inconsistent IN THE PAPER: Table 2 prints 1,284,004
         dirtybits set (x 360 ns = 462.2 ms) while Table 3 prints
         485.3 ms, which matches Table 5's 1,349k trapping references
         instead — a published-table discrepancy, so allow it. *)
      let tolerance = if app = Suite.Cholesky then 25.0 else 0.6 in
      Alcotest.(check bool)
        (Printf.sprintf "%s table3 rt from table2 (%.1f vs %.1f)" (Suite.app_name app) rt_ms
           (paper Tables.rt_trapping))
        true
        (Float.abs (rt_ms -. paper Tables.rt_trapping) <= tolerance);
      let vm_ms = paper (table2_row "write faults") *. 1_200_000.0 /. 1.0e6 in
      Alcotest.(check bool)
        (Printf.sprintf "%s table3 vm from table2 (%.1f vs %.1f)" (Suite.app_name app) vm_ms
           (paper Tables.vm_trapping))
        true
        (Float.abs (vm_ms -. paper Tables.vm_trapping) <= 0.6))
    Suite.apps

let test_markdown () =
  let s = Lazy.force suite in
  let out = Midway_report.Markdown.of_suite s in
  Alcotest.(check bool) "has time table" true (contains out "## Execution time");
  Alcotest.(check bool) "has data table" true (contains out "## Data transferred");
  Alcotest.(check bool) "mentions the apps" true
    (contains out "sor" && contains out "quicksort")

let test_speedup_render () =
  let out =
    Midway_report.Speedup.render ~app:Suite.Sor ~scale:0.05 ~procs:[ 1; 2 ]
  in
  Alcotest.(check bool) "mentions app" true (contains out "sor");
  Alcotest.(check bool) "has speedup column" true (contains out "speedup")

let test_ablations_render () =
  let out = Midway_report.Ablations.render ~scale:0.05 ~nprocs:4 in
  let titles =
    List.filter (fun l -> contains l "Ablation:") (String.split_on_char '\n' out)
  in
  Alcotest.(check int) "six tables" 6 (List.length titles);
  Alcotest.(check bool) "every backend" true
    (List.for_all
       (fun b -> contains out ("| " ^ b ^ " "))
       [ "rt"; "vm"; "vm-fine"; "twin"; "blast" ])

let test_suite_rejects_failures () =
  (* every reported run passes Suite.check, which refuses an unverified
     one by name *)
  let s = Lazy.force suite in
  let o = (List.hd s.Suite.entries).Suite.rt in
  Alcotest.(check bool) "verified run passes" true (Suite.check o == o);
  Alcotest.check_raises "oracle failure"
    (Failure (o.Midway_apps.Outcome.app ^ " failed oracle verification"))
    (fun () -> ignore (Suite.check { o with Midway_apps.Outcome.ok = false }))

let () =
  Alcotest.run "report"
    [
      ( "suite",
        [
          Alcotest.test_case "runs and verifies" `Quick test_suite_runs;
          Alcotest.test_case "app names" `Quick test_app_names_roundtrip;
          Alcotest.test_case "rejects failures" `Quick test_suite_rejects_failures;
        ] );
      ( "tables",
        [
          Alcotest.test_case "table1" `Quick test_table1;
          Alcotest.test_case "table2" `Quick test_table2;
          Alcotest.test_case "table3" `Quick test_table3;
          Alcotest.test_case "table4" `Quick test_table4;
          Alcotest.test_case "table4 quicksort shape" `Slow test_table4_quicksort_shape;
          Alcotest.test_case "table5" `Quick test_table5;
          Alcotest.test_case "published cells as committed" `Quick test_published_cells;
        ] );
      ( "figures",
        [
          Alcotest.test_case "fig2" `Quick test_fig2;
          Alcotest.test_case "sweep endpoints" `Quick test_sweep_endpoints;
          Alcotest.test_case "break-even math" `Quick test_break_even_math;
          Alcotest.test_case "sweep render" `Quick test_sweep_render;
          Alcotest.test_case "speedup render" `Quick test_speedup_render;
          Alcotest.test_case "ablations render" `Quick test_ablations_render;
          Alcotest.test_case "csv export" `Quick test_csv;
          Alcotest.test_case "csv quoting" `Quick test_csv_quoting;
          Alcotest.test_case "markdown export" `Quick test_markdown;
          Alcotest.test_case "paper data self-consistency" `Quick
            test_paper_data_consistency;
        ] );
    ]
