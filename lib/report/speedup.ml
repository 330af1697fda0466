module Texttab = Midway_util.Texttab

let render ~app ~scale ~procs =
  let time backend nprocs =
    Midway_apps.Outcome.elapsed_s
      (Suite.check (Suite.run_app app (Midway.Config.make backend ~nprocs) ~scale))
  in
  let standalone = time Midway.Config.Standalone 1 in
  let t =
    Texttab.create
      ~columns:
        [
          ("procs", Texttab.Right);
          ("RT-DSM (s)", Texttab.Right);
          ("speedup", Texttab.Right);
          ("VM-DSM (s)", Texttab.Right);
          ("speedup", Texttab.Right);
        ]
  in
  List.iter
    (fun nprocs ->
      let rt = time Midway.Config.Rt nprocs in
      let vm = time Midway.Config.Vm nprocs in
      Texttab.row t
        [
          string_of_int nprocs;
          Texttab.fmt_float ~decimals:2 rt;
          Texttab.fmt_float ~decimals:2 (standalone /. rt);
          Texttab.fmt_float ~decimals:2 vm;
          Texttab.fmt_float ~decimals:2 (standalone /. vm);
        ])
    procs;
  Printf.sprintf "Scaling of %s (scale %.2f; standalone baseline %.2f s)\n" (Suite.app_name app)
    scale standalone
  ^ Texttab.render t
