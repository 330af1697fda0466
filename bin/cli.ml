(* Command-line flags shared by the tools in this directory.  Each flag
   that two or more tools take is defined once here.  The numeric ones
   parse through converters that reject values no run can honour, so a
   bad value is a usage error naming its flag, not a crash or an empty
   run. *)

open Cmdliner

let bounded conv ~ok ~expect =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "%s, got %s" expect s))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let positive = bounded Arg.int ~ok:(fun n -> n >= 1) ~expect:"expected an integer >= 1"
let non_negative = bounded Arg.int ~ok:(fun n -> n >= 0) ~expect:"expected an integer >= 0"
let positive_float = bounded Arg.float ~ok:(fun x -> x > 0.) ~expect:"expected a number > 0"

let probability =
  bounded Arg.float ~ok:(fun p -> p >= 0. && p <= 1.) ~expect:"expected a probability in [0, 1]"

let nprocs ?(names = [ "nprocs"; "n" ]) ?doc default =
  Arg.(value & opt positive default & info names ~docv:"N" ?doc)

let scale ?(names = [ "scale"; "s" ]) ~doc default =
  Arg.(value & opt positive_float default & info names ~docv:"S" ~doc)

let trace ~doc default = Arg.(value & opt non_negative default & info [ "trace" ] ~docv:"N" ~doc)

let schedules ~doc default =
  Arg.(value & opt positive default & info [ "schedules" ] ~docv:"N" ~doc)

let crash ~doc = Arg.(value & opt (some string) None & info [ "crash" ] ~docv:"SPEC" ~doc)

(* A --crash spec parsed against the run's processor count; a bad spec
   exits 2 with the parser's message. *)
let crash_plan ~nprocs = function
  | None -> None
  | Some spec -> (
      match Midway_simnet.Crash.parse_spec ~nprocs spec with
      | Ok plan -> Some plan
      | Error msg ->
          Printf.eprintf "--crash: %s\n" msg;
          exit 2)

(* A comma-separated list of names, each parsed by [of_name]; a bad
   name exits 2 with the parser's message.  Names go to the strict
   shared parsers verbatim, with no trimming or case folding, so " rt"
   and "RT" are rejected with the same did-you-mean hint every tool
   gives.  Only empty segments (a trailing comma) are skipped. *)
let parse_names of_name csv =
  String.split_on_char ',' csv
  |> List.filter (fun s -> s <> "")
  |> List.map (fun s ->
         match of_name s with
         | Ok v -> v
         | Error msg ->
             Printf.eprintf "%s\n" msg;
             exit 2)

let ecsan ~doc = Arg.(value & flag & info [ "ecsan" ] ~doc)

let trace_out ~doc =
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let metrics_out ~doc =
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

type obs = { obs : bool; trace_out : string option; metrics_out : string option }

(* --obs with its two export destinations, either of which implies it. *)
let obs ~doc ~trace_doc ~metrics_doc =
  let make obs trace_out metrics_out =
    { obs = obs || trace_out <> None || metrics_out <> None; trace_out; metrics_out }
  in
  Term.(
    const make
    $ Arg.(value & flag & info [ "obs" ] ~doc)
    $ trace_out ~doc:trace_doc $ metrics_out ~doc:metrics_doc)
