module Outcome = Midway_apps.Outcome

let row cells = "| " ^ String.concat " | " cells ^ " |"

let header cells =
  row cells ^ "\n" ^ row (List.map (fun _ -> "---") cells)

let of_suite (suite : Suite.t) =
  let buf = Buffer.create 4096 in
  let line s =
    Buffer.add_string buf s;
    Buffer.add_char buf '\n'
  in
  line
    (Printf.sprintf
       "# Suite results (scale %.2f, %d processors)\n\n\
        Generated by `midway-experiments --md`; paper columns are the published\n\
        per-processor averages at scale 1.0." suite.Suite.scale suite.Suite.nprocs);
  line "";
  line "## Execution time (seconds)";
  line "";
  line (header [ "application"; "RT-DSM"; "VM-DSM"; "standalone (1p)" ]);
  List.iter
    (fun (e : Suite.entry) ->
      line
        (row
           [
             Suite.app_name e.Suite.app;
             Printf.sprintf "%.2f" (Outcome.elapsed_s e.Suite.rt);
             Printf.sprintf "%.2f" (Outcome.elapsed_s e.Suite.vm);
             Printf.sprintf "%.2f" (Outcome.elapsed_s e.Suite.standalone);
           ]))
    suite.Suite.entries;
  line "";
  line "## Data transferred (KB per processor; paper RT / VM alongside)";
  line "";
  line (header [ "application"; "RT-DSM"; "VM-DSM"; "paper RT"; "paper VM" ]);
  List.iter
    (fun (e : Suite.entry) ->
      line
        (row
           [
             Suite.app_name e.Suite.app;
             Printf.sprintf "%.0f" (Outcome.data_received_kb_per_proc e.Suite.rt);
             Printf.sprintf "%.0f" (Outcome.data_received_kb_per_proc e.Suite.vm);
             Printf.sprintf "%.0f" (Tables.published Tables.rt_data_kb e.Suite.app);
             Printf.sprintf "%.0f" (Tables.published Tables.vm_data_kb e.Suite.app);
           ]))
    suite.Suite.entries;
  line "";
  line "## Write detection cost (ms per processor; trapping + collection)";
  line "";
  line
    (header
       [ "application"; "RT trap"; "RT collect"; "VM trap"; "VM collect"; "paper RT t/c";
         "paper VM t/c" ]);
  List.iter
    (fun (e : Suite.entry) ->
      let measured r = Printf.sprintf "%.1f" (Tables.measured r suite e) in
      let paper trap collect =
        Printf.sprintf "%.1f / %.1f" (Tables.published trap e.Suite.app)
          (Tables.published collect e.Suite.app)
      in
      line
        (row
           [
             Suite.app_name e.Suite.app;
             measured Tables.rt_trapping;
             measured Tables.rt_collection;
             measured Tables.vm_trapping;
             measured Tables.vm_collection;
             paper Tables.rt_trapping Tables.rt_collection;
             paper Tables.vm_trapping Tables.vm_collection;
           ]))
    suite.Suite.entries;
  line "";
  Buffer.contents buf
