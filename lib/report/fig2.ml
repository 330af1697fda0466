module Outcome = Midway_apps.Outcome

let render (suite : Suite.t) =
  let time_groups =
    List.map
      (fun e ->
        ( Suite.app_name e.Suite.app,
          [
            ("RT-DSM  (8p)", Outcome.elapsed_s e.Suite.rt);
            ("VM-DSM  (8p)", Outcome.elapsed_s e.Suite.vm);
            ("standalone 1p", Outcome.elapsed_s e.Suite.standalone);
          ] ))
      suite.entries
  in
  let data_groups =
    List.map
      (fun e ->
        ( Suite.app_name e.Suite.app,
          [
            ("RT-DSM", Outcome.total_data_mb e.Suite.rt);
            ("VM-DSM", Outcome.total_data_mb e.Suite.vm);
          ] ))
      suite.entries
  in
  let water_note =
    match List.find_opt (fun e -> e.Suite.app = Suite.Water) suite.entries with
    | None -> ""
    | Some e ->
        Printf.sprintf
          "water standalone baseline: %.1f s measured (paper: RT 110.1 / VM 109.1 / standalone 104.2 at scale 1.0)\n"
          (Outcome.elapsed_s e.Suite.standalone)
  in
  Printf.sprintf "Figure 2 (scale %.2f, %d processors)\n\n" suite.scale suite.nprocs
  ^ Midway_util.Asciiplot.bars ~title:"Execution time" ~unit_label:"s" ~groups:time_groups
  ^ "\n"
  ^ Midway_util.Asciiplot.bars ~title:"Total data transferred" ~unit_label:"MB"
      ~groups:data_groups
  ^ "\n" ^ water_note
