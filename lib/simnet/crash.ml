type action = Stop | Recover

type event = { at_ns : int; proc : int; action : action }

type plan = { evs : event list }

let empty = { evs = [] }

let events p = p.evs

let compare_event a b =
  match compare a.at_ns b.at_ns with 0 -> compare a.proc b.proc | c -> c

let scripted evs =
  List.iter
    (fun e ->
      if e.at_ns < 0 then invalid_arg "Crash.scripted: negative event time";
      if e.proc < 0 then invalid_arg "Crash.scripted: negative processor")
    evs;
  let evs = List.stable_sort compare_event evs in
  (* Per processor the script must alternate Stop / Recover starting
     from up: a double Stop or a Recover of a live processor is a bug in
     the schedule, not a tolerated input. *)
  let states = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let down = Option.value (Hashtbl.find_opt states e.proc) ~default:false in
      (match (e.action, down) with
      | Stop, true ->
          invalid_arg
            (Printf.sprintf "Crash.scripted: p%d stopped twice (second at %d ns)" e.proc
               e.at_ns)
      | Recover, false ->
          invalid_arg
            (Printf.sprintf "Crash.scripted: p%d recovers at %d ns but is not down" e.proc
               e.at_ns)
      | Stop, false | Recover, true -> ());
      Hashtbl.replace states e.proc (e.action = Stop))
    evs;
  { evs }

let seeded ~seed ~nprocs ~events ~horizon_ns =
  if nprocs <= 0 then invalid_arg "Crash.seeded: nprocs must be positive";
  if horizon_ns <= 0 then invalid_arg "Crash.seeded: horizon must be positive";
  let prng = Midway_util.Prng.create ~seed in
  (* Keep the down set a strict minority at all times so a majority
     quorum survives and failover can always make progress. *)
  let max_down = (nprocs - 1) / 2 in
  let budget = min events max_down in
  let victims = Array.init nprocs (fun i -> i) in
  Midway_util.Prng.shuffle prng victims;
  let evs = ref [] in
  for i = 0 to budget - 1 do
    let proc = victims.(i) in
    let stop_at = Midway_util.Prng.int_in prng (horizon_ns / 8) (horizon_ns / 2) in
    evs := { at_ns = stop_at; proc; action = Stop } :: !evs;
    if Midway_util.Prng.bool prng then begin
      let back = Midway_util.Prng.int_in prng (stop_at + (horizon_ns / 8)) horizon_ns in
      evs := { at_ns = back; proc; action = Recover } :: !evs
    end
  done;
  scripted !evs

let is_down p ~proc ~at =
  List.fold_left
    (fun down e -> if e.proc = proc && e.at_ns <= at then e.action = Stop else down)
    false p.evs

let down_count p ~nprocs ~at =
  let n = ref 0 in
  for proc = 0 to nprocs - 1 do
    if is_down p ~proc ~at then incr n
  done;
  !n

let stops_before p ~proc ~at =
  List.fold_left
    (fun n e -> if e.proc = proc && e.at_ns <= at && e.action = Stop then n + 1 else n)
    0 p.evs

let first_stop p ~proc =
  List.fold_left
    (fun acc e ->
      if e.proc = proc && e.action = Stop then
        match acc with None -> Some e.at_ns | Some t -> Some (min t e.at_ns)
      else acc)
    None p.evs

let action_name = function Stop -> "stop" | Recover -> "recover"

let render p =
  String.concat ","
    (List.map (fun e -> Printf.sprintf "%s@%d:p%d" (action_name e.action) e.at_ns e.proc) p.evs)

let parse_time s =
  let num suffix scale =
    match int_of_string_opt (String.sub s 0 (String.length s - String.length suffix)) with
    | Some n when n >= 0 -> Some (n * scale)
    | _ -> None
  in
  let ends suffix =
    String.length s > String.length suffix
    && String.sub s (String.length s - String.length suffix) (String.length suffix) = suffix
  in
  if ends "ns" then num "ns" 1
  else if ends "us" then num "us" 1_000
  else if ends "ms" then num "ms" 1_000_000
  else if ends "s" then num "s" 1_000_000_000
  else match int_of_string_opt s with Some n when n >= 0 -> Some n | _ -> None

let parse_event ~nprocs part =
  match String.index_opt part '@' with
  | None -> Error (Printf.sprintf "crash event %S: expected ACTION@TIME:pN" part)
  | Some i -> (
      let action =
        match String.sub part 0 i with
        | "stop" -> Ok Stop
        | "recover" -> Ok Recover
        | a -> Error (Printf.sprintf "crash event %S: unknown action %S" part a)
      in
      let rest = String.sub part (i + 1) (String.length part - i - 1) in
      match (action, String.index_opt rest ':') with
      | Error e, _ -> Error e
      | Ok _, None -> Error (Printf.sprintf "crash event %S: missing :pN target" part)
      | Ok action, Some j -> (
          let time = String.sub rest 0 j in
          let target = String.sub rest (j + 1) (String.length rest - j - 1) in
          match parse_time time with
          | None -> Error (Printf.sprintf "crash event %S: bad time %S" part time)
          | Some at_ns ->
              let proc =
                if String.length target > 1 && target.[0] = 'p' then
                  int_of_string_opt (String.sub target 1 (String.length target - 1))
                else None
              in
              (match proc with
              | Some proc when proc >= 0 && proc < nprocs -> Ok { at_ns; proc; action }
              | Some proc ->
                  Error (Printf.sprintf "crash event %S: p%d out of range" part proc)
              | None -> Error (Printf.sprintf "crash event %S: bad target %S" part target))))

let parse_seeded ~nprocs parts =
  let n = ref None and seed = ref None and horizon = ref 50_000_000 in
  let err = ref None in
  List.iter
    (fun part ->
      match String.index_opt part '=' with
      | None -> err := Some (Printf.sprintf "crash spec: bad field %S" part)
      | Some i -> (
          let k = String.sub part 0 i in
          let v = String.sub part (i + 1) (String.length part - i - 1) in
          match (k, int_of_string_opt v, parse_time v) with
          | "n", Some x, _ -> n := Some x
          | "seed", Some x, _ -> seed := Some x
          | "horizon", _, Some x -> horizon := x
          | _ -> err := Some (Printf.sprintf "crash spec: bad field %S" part)))
    parts;
  match (!err, !n) with
  | Some e, _ -> Error e
  | None, None -> Error "crash spec: seeded form needs n=EVENTS"
  | None, Some n ->
      Ok (seeded ~seed:(Option.value !seed ~default:42) ~nprocs ~events:n ~horizon_ns:!horizon)

let parse_spec ~nprocs s =
  let parts = String.split_on_char ',' (String.trim s) |> List.filter (fun p -> p <> "") in
  match parts with
  | [] -> Error "crash spec: empty"
  | first :: _ ->
      if String.contains first '@' then begin
        let rec collect acc = function
          | [] -> Ok (List.rev acc)
          | p :: rest -> (
              match parse_event ~nprocs p with
              | Ok e -> collect (e :: acc) rest
              | Error _ as e -> e)
        in
        match collect [] parts with
        | Error e -> Error e
        | Ok evs -> ( try Ok (scripted evs) with Invalid_argument m -> Error m)
      end
      else parse_seeded ~nprocs parts
