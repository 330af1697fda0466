(* Unit and property tests for Midway_util: PRNG, text tables,
   plots, unit formatting and powers of two. *)

module Prng = Midway_util.Prng
module Texttab = Midway_util.Texttab
module Units = Midway_util.Units
module Pow2 = Midway_util.Pow2

let qtest = QCheck_alcotest.to_alcotest

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

(* --- Prng ------------------------------------------------------------ *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  Alcotest.(check bool) "different seeds differ" false (Prng.bits64 a = Prng.bits64 b)

let test_prng_copy_independent () =
  let a = Prng.create ~seed:7 in
  let b = Prng.copy a in
  Alcotest.(check int64) "copy starts from same state" (Prng.bits64 a) (Prng.bits64 b);
  ignore (Prng.bits64 a);
  let c = Prng.copy b in
  Alcotest.(check int64) "copy of b tracks b" (Prng.bits64 b) (Prng.bits64 c)

let test_prng_split () =
  let a = Prng.create ~seed:9 in
  let b = Prng.split a in
  Alcotest.(check bool) "split stream differs from parent" false
    (Prng.bits64 a = Prng.bits64 b)

let test_prng_int_bounds_invalid () =
  let g = Prng.create ~seed:1 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int g 0))

let prng_int_in_range =
  QCheck.Test.make ~name:"Prng.int stays in [0, bound)" ~count:500
    QCheck.(pair small_int (int_bound 10_000))
    (fun (seed, bound) ->
      let bound = bound + 1 in
      let g = Prng.create ~seed in
      let v = Prng.int g bound in
      v >= 0 && v < bound)

let prng_int_in_inclusive =
  QCheck.Test.make ~name:"Prng.int_in stays in [lo, hi]" ~count:500
    QCheck.(triple small_int (int_range (-500) 500) (int_bound 1000))
    (fun (seed, lo, span) ->
      let hi = lo + span in
      let g = Prng.create ~seed in
      let v = Prng.int_in g lo hi in
      v >= lo && v <= hi)

let prng_float_in_range =
  QCheck.Test.make ~name:"Prng.float stays in [0, bound)" ~count:500 QCheck.small_int
    (fun seed ->
      let g = Prng.create ~seed in
      let v = Prng.float g 3.5 in
      v >= 0.0 && v < 3.5)

let prng_shuffle_permutation =
  QCheck.Test.make ~name:"Prng.shuffle is a permutation" ~count:200
    QCheck.(pair small_int (list small_int))
    (fun (seed, xs) ->
      let a = Array.of_list xs in
      let g = Prng.create ~seed in
      Prng.shuffle g a;
      List.sort compare (Array.to_list a) = List.sort compare xs)

(* --- Texttab ---------------------------------------------------------- *)

let test_fmt_int () =
  Alcotest.(check string) "thousands" "1,284,004" (Texttab.fmt_int 1_284_004);
  Alcotest.(check string) "small" "42" (Texttab.fmt_int 42);
  Alcotest.(check string) "negative" "-1,000" (Texttab.fmt_int (-1_000));
  Alcotest.(check string) "zero" "0" (Texttab.fmt_int 0)

let test_fmt_float () =
  Alcotest.(check string) "one decimal" "3,499.2" (Texttab.fmt_float ~decimals:1 3499.2);
  Alcotest.(check string) "negative" "-29.1" (Texttab.fmt_float ~decimals:1 (-29.1))

let test_table_render () =
  let t = Texttab.create ~columns:[ ("name", Texttab.Left); ("value", Texttab.Right) ] in
  Texttab.row t [ "water"; "43,180" ];
  Texttab.separator t;
  Texttab.row t [ "sor" ];
  let s = Texttab.render t in
  Alcotest.(check bool) "mentions data" true (contains s "water");
  let lines =
    String.split_on_char '\n' s |> List.filter (fun l -> l <> "") |> List.map String.length
  in
  (match lines with
  | [] -> Alcotest.fail "no output"
  | w :: rest -> List.iter (fun w' -> Alcotest.(check int) "aligned lines" w w') rest);
  Alcotest.check_raises "too many cells" (Invalid_argument "Texttab.row: too many cells")
    (fun () -> Texttab.row t [ "a"; "b"; "c" ])

(* --- Units ------------------------------------------------------------ *)

let test_units () =
  Alcotest.(check string) "ns" "360 ns" (Units.pp_time 360);
  Alcotest.(check string) "ms" "1.20 ms" (Units.pp_time 1_200_000);
  Alcotest.(check string) "s" "104.20 s" (Units.pp_time 104_200_000_000);
  Alcotest.(check string) "bytes" "784.0 KB" (Units.pp_bytes (784 * 1024));
  Alcotest.(check (float 1e-9)) "kb" 2.0 (Units.kb_of_bytes 2048);
  Alcotest.(check (float 1e-9)) "us" 1.2 (Units.us_of_ns 1200)

(* --- Asciiplot --------------------------------------------------------- *)

let test_plot_smoke () =
  let p =
    Midway_util.Asciiplot.create ~width:30 ~height:8 ~title:"t" ~x_label:"x" ~y_label:"y" ()
  in
  Midway_util.Asciiplot.series p ~name:"a" ~marker:'*' [ (0.0, 0.0); (1.0, 2.0); (2.0, 1.0) ];
  Midway_util.Asciiplot.diagonal p;
  let s = Midway_util.Asciiplot.render p in
  Alcotest.(check bool) "has legend" true (contains s "[*] a");
  Alcotest.(check bool) "has diagonal note" true (contains s "break-even")

let test_plot_empty () =
  let p = Midway_util.Asciiplot.create ~title:"empty" ~x_label:"x" ~y_label:"y" () in
  Alcotest.(check bool) "notes absence of data" true
    (contains (Midway_util.Asciiplot.render p) "no data")

let test_plot_all_series_empty () =
  (* series attached but every one pointless: used to compute min/max over
     zero points and render a NaN-scaled grid; must degrade to "(no data)" *)
  let p = Midway_util.Asciiplot.create ~title:"hollow" ~x_label:"x" ~y_label:"y" () in
  Midway_util.Asciiplot.series p ~name:"a" ~marker:'*' [];
  Midway_util.Asciiplot.series p ~name:"b" ~marker:'+' [];
  let s = Midway_util.Asciiplot.render p in
  Alcotest.(check bool) "notes absence of data" true (contains s "no data");
  Alcotest.(check bool) "no NaN in output" false (contains s "nan")

let test_bars_smoke () =
  let s =
    Midway_util.Asciiplot.bars ~title:"times" ~unit_label:"s"
      ~groups:[ ("water", [ ("rt", 1.0); ("vm", 2.0) ]) ]
  in
  Alcotest.(check bool) "mentions group" true (contains s "water");
  Alcotest.(check bool) "mentions bar" true (contains s "rt")

(* --- Pow2 -------------------------------------------------------------- *)

let test_pow2 () =
  for k = 0 to 40 do
    Alcotest.(check bool) "power" true (Pow2.is_power_of_two (1 lsl k));
    Alcotest.(check int) "log2" k (Pow2.log2 (1 lsl k))
  done;
  List.iter
    (fun n ->
      Alcotest.(check bool) "not a power" false (Pow2.is_power_of_two n);
      Alcotest.check_raises "log2 rejects" (Invalid_argument "Pow2.log2: not a power of two")
        (fun () -> ignore (Pow2.log2 n)))
    [ 0; -8; 3; 12; 4097 ]

let () =
  Alcotest.run "util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_prng_copy_independent;
          Alcotest.test_case "split" `Quick test_prng_split;
          Alcotest.test_case "invalid bound" `Quick test_prng_int_bounds_invalid;
          qtest prng_int_in_range;
          qtest prng_int_in_inclusive;
          qtest prng_float_in_range;
          qtest prng_shuffle_permutation;
        ] );
      ( "texttab",
        [
          Alcotest.test_case "fmt_int" `Quick test_fmt_int;
          Alcotest.test_case "fmt_float" `Quick test_fmt_float;
          Alcotest.test_case "render" `Quick test_table_render;
        ] );
      ("units", [ Alcotest.test_case "formatting" `Quick test_units ]);
      ("pow2", [ Alcotest.test_case "log2" `Quick test_pow2 ]);
      ( "asciiplot",
        [
          Alcotest.test_case "plot" `Quick test_plot_smoke;
          Alcotest.test_case "empty plot" `Quick test_plot_empty;
          Alcotest.test_case "all series empty" `Quick test_plot_all_series_empty;
          Alcotest.test_case "bars" `Quick test_bars_smoke;
        ] );
    ]
