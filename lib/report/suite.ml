type app = Water | Quicksort | Matmul | Sor | Cholesky

let apps = [ Water; Quicksort; Matmul; Sor; Cholesky ]

let app_name = function
  | Water -> "water"
  | Quicksort -> "quicksort"
  | Matmul -> "matrix"
  | Sor -> "sor"
  | Cholesky -> "cholesky"

let app_of_string = function
  | "water" -> Ok Water
  | "quicksort" | "qsort" -> Ok Quicksort
  | "matrix" | "matmul" | "matrix-multiply" -> Ok Matmul
  | "sor" -> Ok Sor
  | "cholesky" -> Ok Cholesky
  | s -> Error (Printf.sprintf "unknown application %S" s)

let run_app app cfg ~scale =
  let full = scale >= 0.999 in
  match app with
  | Water ->
      Midway_apps.Water.run cfg
        (if full then Midway_apps.Water.default else Midway_apps.Water.scaled scale)
  | Quicksort ->
      Midway_apps.Quicksort.run cfg
        (if full then Midway_apps.Quicksort.default else Midway_apps.Quicksort.scaled scale)
  | Matmul ->
      Midway_apps.Matmul.run cfg
        (if full then Midway_apps.Matmul.default else Midway_apps.Matmul.scaled scale)
  | Sor ->
      Midway_apps.Sor.run cfg
        (if full then Midway_apps.Sor.default else Midway_apps.Sor.scaled scale)
  | Cholesky ->
      Midway_apps.Cholesky.run cfg
        (if full then Midway_apps.Cholesky.default else Midway_apps.Cholesky.scaled scale)

type entry = {
  app : app;
  rt : Midway_apps.Outcome.t;
  vm : Midway_apps.Outcome.t;
  standalone : Midway_apps.Outcome.t;
}

type t = {
  nprocs : int;
  scale : float;
  cost : Midway_stats.Cost_model.t;
  entries : entry list;
}

let check outcome =
  if not outcome.Midway_apps.Outcome.ok then
    failwith
      (Printf.sprintf "%s failed oracle verification" outcome.Midway_apps.Outcome.app);
  (match Midway.Runtime.check_invariants outcome.Midway_apps.Outcome.machine with
  | [] -> ()
  | violations ->
      failwith
        (Printf.sprintf "%s violated protocol invariants: %s"
           outcome.Midway_apps.Outcome.app (String.concat "; " violations)));
  let rep = Midway.Runtime.check_report outcome.Midway_apps.Outcome.machine in
  if Midway_check.Report.has_violations rep then
    failwith
      (Printf.sprintf "ECSan found violations in %s:\n%s"
         outcome.Midway_apps.Outcome.app
         (Midway_check.Report.render rep));
  outcome

let run ?apps:(selection = apps) ?(cost = Midway_stats.Cost_model.default) ?(ecsan = false)
    ?(obs = false) ~nprocs ~scale () =
  let entries =
    List.map
      (fun app ->
        let cfg backend n =
          { (Midway.Config.make backend ~nprocs:n) with cost; Midway.Config.ecsan; obs }
        in
        {
          app;
          rt = check (run_app app (cfg Midway.Config.Rt nprocs) ~scale);
          vm = check (run_app app (cfg Midway.Config.Vm nprocs) ~scale);
          standalone = check (run_app app (cfg Midway.Config.Standalone 1) ~scale);
        })
      selection
  in
  { nprocs; scale; cost; entries }

let entry t app =
  match List.find_opt (fun e -> e.app = app) t.entries with
  | Some e -> e
  | None -> invalid_arg ("Suite.entry: application not in suite: " ^ app_name app)
