type kind = Lock | Barrier

type sync = {
  id : int;
  kind : kind;
  mutable cur : Range.t list;
  mutable retired : Range.t list;
  sync_count : int array;
  mutable episode : int;
}

type t = {
  nprocs : int;
  syncs : sync Int_table.t;
  word_index : int list Int_table.t;  (* word -> ids currently binding it *)
  retired_index : int list Int_table.t;  (* word -> ids that retired it *)
  mutable ever : Range.t list;  (* word-granular: every word ever bound *)
  mutable degenerate : (int * int * int) list;  (* newest first *)
}

(* Sized for a small machine; the tables grow with the bindings. *)
let create ~nprocs =
  {
    nprocs;
    syncs = Int_table.create 8;
    word_index = Int_table.create 32;
    retired_index = Int_table.create 8;
    ever = [];
    degenerate = [];
  }

let ranges_of_raw raw = Range.normalize (List.map (fun (addr, len) -> Range.v addr len) raw)

(* Byte ranges widened to the 8-byte words they touch. *)
let words_of ranges =
  Range.normalize
    (List.filter_map
       (fun r ->
         if Range.is_empty r then None
         else
           let lo = r.Range.addr asr 3 in
           Some (Range.v lo (((Range.limit r - 1) asr 3) + 1 - lo)))
       ranges)

let index_add tbl ranges id =
  Range.iter_points (words_of ranges) ~f:(fun w ->
      let ids = Option.value (Int_table.find_opt tbl w) ~default:[] in
      if not (List.mem id ids) then Int_table.replace tbl w (ids @ [ id ]))

let index_remove tbl ranges id =
  Range.iter_points (words_of ranges) ~f:(fun w ->
      match Int_table.find_opt tbl w with
      | None -> ()
      | Some ids -> (
          match List.filter (fun i -> i <> id) ids with
          | [] -> Int_table.remove tbl w
          | ids -> Int_table.replace tbl w ids))

let note_degenerate t ~id ~raw =
  List.iter
    (fun (addr, len) -> if len = 0 then t.degenerate <- (id, addr, len) :: t.degenerate)
    raw

let register t ~id ~kind ~raw =
  if Int_table.mem t.syncs id then invalid_arg "Binding_index.register: duplicate sync id";
  note_degenerate t ~id ~raw;
  let cur = ranges_of_raw raw in
  let s = { id; kind; cur; retired = []; sync_count = Array.make t.nprocs 0; episode = 0 } in
  Int_table.replace t.syncs id s;
  index_add t.word_index cur id;
  t.ever <- Range.union t.ever (words_of cur)

let find t id = Int_table.find_opt t.syncs id

let get t id =
  match find t id with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Binding_index: unknown sync id %d" id)

let rebind t ~id ~raw =
  note_degenerate t ~id ~raw;
  let s = get t id in
  let nw = ranges_of_raw raw in
  index_remove t.word_index s.cur id;
  index_add t.word_index nw id;
  let new_retired = Range.subtract_list (Range.union s.retired s.cur) ~minus:nw in
  index_remove t.retired_index s.retired id;
  index_remove t.retired_index s.cur id;
  index_add t.retired_index new_retired id;
  s.retired <- new_retired;
  s.cur <- nw;
  t.ever <- Range.union t.ever (words_of nw)

let all t =
  Int_table.fold (fun _ s acc -> s :: acc) t.syncs []
  |> List.sort (fun a b -> compare a.id b.id)

let ids_at tbl t w =
  match Int_table.find tbl w with
  | ids -> List.map (get t) ids
  | exception Not_found -> []

let syncs_at t w = ids_at t.word_index t w

let retired_at t w = ids_at t.retired_index t w

let ever_bound t w = Range.mem t.ever w

let degenerate t = List.rev t.degenerate

let current_ranges t ~id = List.map (fun r -> (r.Range.addr, r.Range.len)) (get t id).cur
