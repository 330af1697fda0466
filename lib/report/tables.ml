module Counters = Midway_stats.Counters
module Derived = Midway_stats.Derived
module Outcome = Midway_apps.Outcome
module Texttab = Midway_util.Texttab
module Units = Midway_util.Units

type cell = Count | Kb | Percent | Ms | Thousands

type row = {
  system : string;
  operation : string;
  measure : Suite.t -> Suite.entry -> float;
  paper : float list;
  cell : cell;
}

type t = { title : Suite.t -> string; groups : row list list }

let measured r suite e =
  let v = r.measure suite e in
  match r.cell with
  | Count | Percent -> v
  | Kb -> Units.kb_of_bytes (truncate v)
  | Ms -> Units.ms_of_ns (truncate v)
  | Thousands -> float (truncate v / 1_000)

let published r app = List.assoc app (List.combine Suite.apps r.paper)

let show r v =
  match r.cell with
  | Count | Kb | Thousands -> Texttab.fmt_int (truncate v)
  | Percent | Ms -> Texttab.fmt_float ~decimals:1 v

let row ?(system = "") operation cell measure paper = { system; operation; measure; paper; cell }

(* Row [a] [op] row [b], the measured values taken in the unit their
   formulas yield (ns, references) before they print. *)
let combine op operation a b =
  row operation a.cell
    (fun s e -> op (a.measure s e) (b.measure s e))
    (List.map2 op a.paper b.paper)

let with_total a b = [ a; b; combine ( +. ) "Total" a b ]

(* Table 2 reads one run's per-processor average counters; Tables 3-5
   multiply both runs' counts by Table 1's costs. *)
let rt f (_ : Suite.t) (e : Suite.entry) = f (Outcome.avg_counters e.rt)
let vm f (_ : Suite.t) (e : Suite.entry) = f (Outcome.avg_counters e.vm)

let derived formula f (s : Suite.t) (e : Suite.entry) =
  float (f (formula s.cost ~rt:(Outcome.avg_counters e.rt) ~vm:(Outcome.avg_counters e.vm)))

let trapping = derived Derived.trapping
let collection = derived Derived.collection
let references = derived Derived.references

let rt_data_kb =
  row "data transferred (KB)" Kb
    (rt (fun c -> float c.Counters.data_received_bytes))
    [ 1_096.; 579.; 784.; 2_053.; 9_128. ]

let vm_data_kb =
  row "data transferred (KB)" Kb
    (vm (fun c -> float c.Counters.data_received_bytes))
    [ 1_543.; 816.; 784.; 2_058.; 13_144. ]

let table2 =
  {
    title =
      (fun s ->
        Printf.sprintf
          "Table 2: per-processor invocation counts (measured, %d procs, scale %.2f; paper values at scale 1.0, 8 procs)"
          s.nprocs s.scale);
    groups =
      [
        [
          row ~system:"RT-DSM" "dirtybits set" Count
            (rt (fun c -> float c.Counters.dirtybits_set))
            [ 43_180.; 220_804.; 98_311.; 348_516.; 1_284_004. ];
          row "dirtybits misclassified" Count
            (rt (fun c -> float c.Counters.dirtybits_misclassified))
            [ 0.; 124.; 11.; 1.; 28. ];
          row "clean dirtybits read" Count
            (rt (fun c -> float c.Counters.clean_dirtybits_read))
            [ 48_552.; 98_190.; 135_776.; 19_185.; 2_568_269. ];
          row "dirty dirtybits read" Count
            (rt (fun c -> float c.Counters.dirty_dirtybits_read))
            [ 11_280.; 108_939.; 94_217.; 261_097.; 739_625. ];
          row "dirtybits updated" Count
            (rt (fun c -> float c.Counters.dirtybits_updated))
            [ 35_676.; 147_896.; 200_849.; 262_987.; 1_132_009. ];
          rt_data_kb;
          row "percent dirty data" Percent (rt Counters.percent_dirty_data)
            [ 55.7; 62.7; 87.4; 98.1; 29.3 ];
        ];
        [
          row ~system:"VM-DSM" "write faults" Count
            (vm (fun c -> float c.Counters.write_faults))
            [ 258.; 156.; 74.; 468.; 2_916. ];
          row "pages diffed" Count
            (vm (fun c -> float c.Counters.pages_diffed))
            [ 253.; 27.; 120.; 674.; 3_107. ];
          row "pages write protected" Count
            (vm (fun c -> float c.Counters.pages_write_protected))
            [ 253.; 27.; 120.; 674.; 3_107. ];
          row "data updated in twins (KB)" Kb
            (vm (fun c -> float c.Counters.twin_update_bytes))
            [ 976.; 418.; 15.; 47.; 5_114. ];
          vm_data_kb;
        ];
      ];
  }

let rt_trapping =
  row ~system:"RT-DSM" "write trapping time" Ms
    (trapping (fun d -> d.Derived.rt_ns))
    [ 15.6; 79.5; 35.4; 125.5; 485.3 ]

let vm_trapping =
  row ~system:"VM-DSM" "write trapping time" Ms
    (trapping (fun d -> d.Derived.vm_ns))
    [ 309.6; 187.2; 88.8; 561.6; 3_499.2 ]

let table3 =
  {
    title =
      (fun s ->
        Printf.sprintf
          "Table 3: write trapping time, milliseconds per processor (measured at scale %.2f; paper at scale 1.0)"
          s.scale);
    groups =
      [
        [ rt_trapping; vm_trapping ];
        [ combine ( -. ) "RT-DSM trapping advantage" vm_trapping rt_trapping ];
      ];
  }

let rt_collection =
  row "Total" Ms (collection (fun d -> d.Derived.rt_total_ns)) [ 14.9; 50.4; 59.6; 64.1; 771.4 ]

let vm_collection =
  row "Total" Ms (collection (fun d -> d.Derived.vm_total_ns)) [ 123.3; 21.3; 46.8; 262.0; 1_335.4 ]

let table4 =
  {
    title =
      (fun s ->
        Printf.sprintf
          "Table 4: write collection time, milliseconds per processor (measured at scale %.2f; paper at scale 1.0)"
          s.scale);
    groups =
      [
        [
          row ~system:"RT-DSM" "clean dirtybits read" Ms
            (collection (fun d -> d.Derived.rt_clean_reads_ns))
            [ 10.5; 21.3; 29.5; 0.5; 557.3 ];
          row "dirty dirtybits read" Ms
            (collection (fun d -> d.Derived.rt_dirty_reads_ns))
            [ 2.0; 19.2; 16.6; 46.0; 138.3 ];
          row "dirtybits updated" Ms
            (collection (fun d -> d.Derived.rt_updates_ns))
            [ 2.4; 9.9; 13.5; 17.6; 75.8 ];
          rt_collection;
        ];
        [
          row ~system:"VM-DSM" "pages diffed" Ms
            (collection (fun d -> d.Derived.vm_diff_ns))
            [ 65.8; 7.0; 31.2; 175.2; 807.8 ];
          row "pages write protected" Ms
            (collection (fun d -> d.Derived.vm_protect_ns))
            [ 32.1; 3.4; 15.2; 85.6; 394.6 ];
          row "data updated in twins" Ms
            (collection (fun d -> d.Derived.vm_twin_update_ns))
            [ 25.4; 10.9; 0.4; 1.2; 133.0 ];
          vm_collection;
        ];
        [ combine ( -. ) "RT-DSM collection advantage" vm_collection rt_collection ];
      ];
  }

let table5 =
  {
    title =
      (fun s ->
        Printf.sprintf
          "Table 5: memory references for write detection, thousands per processor (measured at scale %.2f; paper at scale 1.0)"
          s.scale);
    groups =
      [
        with_total
          (row ~system:"RT-DSM" "write trapping" Thousands
             (references (fun d -> d.Derived.rt_trap_refs))
             [ 43.; 221.; 98.; 349.; 1_349. ])
          (row "write collection" Thousands
             (references (fun d -> d.Derived.rt_collect_refs))
             [ 96.; 355.; 431.; 526.; 4_440. ]);
        with_total
          (row ~system:"VM-DSM" "write trapping" Thousands
             (references (fun d -> d.Derived.vm_trap_refs))
             [ 510.; 358.; 262.; 1_264.; 5_767. ])
          (row "write collection" Thousands
             (references (fun d -> d.Derived.vm_collect_refs))
             [ 768.; 162.; 250.; 1_392.; 7_672. ]);
      ];
  }

let render t (suite : Suite.t) =
  let cells r =
    r.system :: r.operation
    :: List.concat_map
         (fun (e : Suite.entry) -> [ show r (measured r suite e); show r (published r e.app) ])
         suite.entries
  in
  Ablations.render_table
    {
      title = [ t.title suite ];
      columns =
        ("System", Texttab.Left) :: ("Operation", Texttab.Left)
        :: List.concat_map
             (fun (e : Suite.entry) ->
               [ (Suite.app_name e.app, Texttab.Right); ("(paper)", Texttab.Right) ])
             suite.entries;
      groups = List.map (List.map cells) t.groups;
    }
