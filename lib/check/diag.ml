type cls =
  | Unsynchronized_access
  | Write_under_shared_hold
  | Unbound_shared_data
  | Misclassified_private_store
  | Stale_binding_access
  | Lint_overlapping_bindings
  | Lint_private_binding
  | Lint_degenerate_range

let class_name = function
  | Unsynchronized_access -> "unsynchronized-access"
  | Write_under_shared_hold -> "write-under-shared-hold"
  | Unbound_shared_data -> "unbound-shared-data"
  | Misclassified_private_store -> "misclassified-private-store"
  | Stale_binding_access -> "stale-binding-access"
  | Lint_overlapping_bindings -> "lint-overlapping-bindings"
  | Lint_private_binding -> "lint-private-binding"
  | Lint_degenerate_range -> "lint-degenerate-range"

let is_lint = function
  | Lint_overlapping_bindings | Lint_private_binding | Lint_degenerate_range -> true
  | Unsynchronized_access | Write_under_shared_hold | Unbound_shared_data
  | Misclassified_private_store | Stale_binding_access ->
      false

type violation = {
  cls : cls;
  proc : int;
  sync : int;
  lo : int;
  hi : int;
  count : int;
  first_time : int;
  first_op : string;
  detail : string;
  context : string list;
}

(* One mutable accumulator per (cls, proc, sync) key. *)
type record = {
  r_cls : cls;
  r_proc : int;
  r_sync : int;
  mutable r_lo : int;
  mutable r_hi : int;
  mutable r_count : int;
  r_first_time : int;
  r_first_op : string;
  r_detail : string;
  r_context : string list;
  r_order : int;  (* insertion order, the deterministic tie-break *)
}

type table = {
  records : (cls * int * int, record) Hashtbl.t;
  mutable next_order : int;
}

let create_table () = { records = Hashtbl.create 16; next_order = 0 }

let note t ~cls ~proc ~sync ~lo ~hi ~time ~op ~detail ~context =
  let key = (cls, proc, sync) in
  match Hashtbl.find_opt t.records key with
  | Some r ->
      r.r_lo <- min r.r_lo lo;
      r.r_hi <- max r.r_hi hi;
      r.r_count <- r.r_count + 1
  | None ->
      let r =
        {
          r_cls = cls;
          r_proc = proc;
          r_sync = sync;
          r_lo = lo;
          r_hi = hi;
          r_count = 1;
          r_first_time = time;
          r_first_op = op;
          r_detail = detail ();
          r_context = context ();
          r_order = t.next_order;
        }
      in
      t.next_order <- t.next_order + 1;
      Hashtbl.replace t.records key r

let violations t =
  Hashtbl.fold (fun _ r acc -> r :: acc) t.records []
  |> List.sort (fun a b ->
         if a.r_first_time <> b.r_first_time then compare a.r_first_time b.r_first_time
         else compare a.r_order b.r_order)
  |> List.map (fun r ->
         {
           cls = r.r_cls;
           proc = r.r_proc;
           sync = r.r_sync;
           lo = r.r_lo;
           hi = r.r_hi;
           count = r.r_count;
           first_time = r.r_first_time;
           first_op = r.r_first_op;
           detail = r.r_detail;
           context = r.r_context;
         })
