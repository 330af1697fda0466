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

(* An app's parameters at [scale]: the paper's own at full scale. *)
let params ~default ~scaled scale = if scale >= 0.999 then default else scaled scale

let sor_params = params ~default:Midway_apps.Sor.default ~scaled:Midway_apps.Sor.scaled

let run_app app cfg ~scale =
  let open Midway_apps in
  match app with
  | Water -> Water.run cfg (params ~default:Water.default ~scaled:Water.scaled scale)
  | Quicksort ->
      Quicksort.run cfg (params ~default:Quicksort.default ~scaled:Quicksort.scaled scale)
  | Matmul -> Matmul.run cfg (params ~default:Matmul.default ~scaled:Matmul.scaled scale)
  | Sor -> Sor.run cfg (sor_params scale)
  | Cholesky -> Cholesky.run cfg (params ~default:Cholesky.default ~scaled:Cholesky.scaled scale)

let fits app ~nprocs ~scale =
  match app with
  | Sor ->
      let p = sor_params scale in
      if Midway_apps.Sor.fits p ~nprocs then Ok ()
      else
        Error
          (Printf.sprintf "sor at scale %g has %d rows, fewer than 3 per processor on %d processors"
             scale p.Midway_apps.Sor.n nprocs)
  | Water | Quicksort | Matmul | Cholesky -> Ok ()

(* water and sor bind data to barriers, which blast and the untargetted
   model cannot carry. *)
let barrier_bound = function Water | Sor -> true | Quicksort | Matmul | Cholesky -> false

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
