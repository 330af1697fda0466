type access = Read | Write | Private_write

type t = {
  index : Binding_index.t;
  held : Lockset.t;
  shadow : Shadow.t;
  diags : Diag.table;
  context : unit -> string list;
  mutable accesses : int;
  mutable linted : bool;
}

type report = Report.t

let create ?(context = fun () -> []) ~nprocs () =
  {
    index = Binding_index.create ~nprocs;
    held = Lockset.create ~nprocs;
    shadow = Shadow.create ();
    diags = Diag.create_table ();
    context;
    accesses = 0;
    linted = false;
  }

let on_new_sync t ~id ~kind ~raw = Binding_index.register t.index ~id ~kind ~raw

let on_rebind t ~id ~raw = Binding_index.rebind t.index ~id ~raw

let on_acquire t ~id ~proc ~exclusive =
  Lockset.add t.held ~proc ~id ~exclusive;
  match Binding_index.find t.index id with
  | Some s -> s.Binding_index.sync_count.(proc) <- s.Binding_index.sync_count.(proc) + 1
  | None -> ()

let on_release t ~id ~proc = Lockset.remove t.held ~proc ~id

let on_barrier_cross t ~id ~proc =
  match Binding_index.find t.index id with
  | Some s -> s.Binding_index.sync_count.(proc) <- s.Binding_index.sync_count.(proc) + 1
  | None -> ()

let on_barrier_complete t ~id =
  match Binding_index.find t.index id with
  | Some s -> s.Binding_index.episode <- s.Binding_index.episode + 1
  | None -> ()

(* ------------------------------------------------------------------ *)
(* The per-word access rules                                           *)
(* ------------------------------------------------------------------ *)

let note t ~cls ~proc ~sync ~w ~time ~op ~detail =
  Diag.note t.diags ~cls ~proc ~sync ~lo:(w lsl 3) ~hi:((w + 1) lsl 3) ~time ~op ~detail
    ~context:t.context

let kind_name = function Binding_index.Lock -> "lock" | Binding_index.Barrier -> "barrier"

(* The access is covered by no current binding the processor can claim:
   decide between stale-binding, unsynchronized and unbound. *)
let flag_uncovered t ~proc ~w ~time ~op ~writing ~covering =
  let verb = if writing then "wrote" else "read" in
  match
    List.filter (fun (s : Binding_index.sync) -> s.Binding_index.kind = Binding_index.Lock)
      (Binding_index.retired_at t.index w)
  with
  | _ :: _ as retired ->
      let l =
        match
          List.find_opt
            (fun (s : Binding_index.sync) ->
              Lockset.holds t.held ~proc ~id:s.Binding_index.id
              || s.Binding_index.sync_count.(proc) > 0)
            retired
        with
        | Some l -> l
        | None -> List.hd retired
      in
      note t ~cls:Diag.Stale_binding_access ~proc ~sync:l.Binding_index.id ~w ~time ~op
        ~detail:(fun () ->
          Printf.sprintf "p%d %s data that lock %d no longer binds (rebound away)" proc verb
            l.Binding_index.id)
  | [] -> (
      match covering with
      | (s : Binding_index.sync) :: _ ->
          note t ~cls:Diag.Unsynchronized_access ~proc ~sync:s.Binding_index.id ~w ~time ~op
            ~detail:(fun () ->
              Printf.sprintf
                "p%d %s data bound to %s %d without holding it or ever synchronizing on it" proc
                verb (kind_name s.Binding_index.kind) s.Binding_index.id)
      | [] ->
          if Binding_index.ever_bound t.index w then
            note t ~cls:Diag.Unsynchronized_access ~proc ~sync:(-1) ~w ~time ~op
              ~detail:(fun () ->
                Printf.sprintf "p%d %s formerly-bound data with no current binding" proc verb)
          else
            note t ~cls:Diag.Unbound_shared_data ~proc ~sync:(-1) ~w ~time ~op
              ~detail:(fun () ->
                Printf.sprintf
                  "shared data touched by several processors (p%d %s it) but never bound to any \
                   lock or barrier"
                  proc verb))

let covering_credit ~proc covering =
  List.exists
    (fun (s : Binding_index.sync) -> s.Binding_index.sync_count.(proc) > 0)
    covering

(* Each rule looks its word up once, with [Shadow.touch]: a fresh word
   is one [proc] alone has touched, with nothing written, so a first
   toucher passes every rule and keeps the word. *)
let check_read t ~proc ~time ~op ~shared_region w =
  let s = Shadow.touch t.shadow w ~proc in
  if s.Shadow.priv_writer >= 0 && s.Shadow.priv_writer <> proc then
    note t ~cls:Diag.Misclassified_private_store ~proc:s.Shadow.priv_writer ~sync:(-1) ~w ~time
      ~op ~detail:(fun () ->
        Printf.sprintf
          "p%d stored through write_*_private but p%d later read the data (the store needed \
           instrumentation)"
          s.Shadow.priv_writer proc);
  let was_excl = s.Shadow.excl in
  if shared_region && s.Shadow.written && was_excl <> proc then begin
    let covering = Binding_index.syncs_at t.index w in
    let held_cover =
      List.exists
        (fun (sy : Binding_index.sync) ->
          sy.Binding_index.kind = Binding_index.Lock
          && Lockset.holds t.held ~proc ~id:sy.Binding_index.id)
        covering
    in
    if (not held_cover) && not (covering_credit ~proc covering) then
      flag_uncovered t ~proc ~w ~time ~op ~writing:false ~covering
  end;
  if was_excl <> proc then s.Shadow.excl <- -1

let check_write t ~proc ~time ~op ~shared_region w =
  let s = Shadow.touch t.shadow w ~proc in
  let was_excl = s.Shadow.excl in
  s.Shadow.priv_writer <- -1;
  if shared_region then begin
    let covering = Binding_index.syncs_at t.index w in
    let excl_held =
      List.exists
        (fun (sy : Binding_index.sync) ->
          sy.Binding_index.kind = Binding_index.Lock
          && Lockset.holds_exclusive t.held ~proc ~id:sy.Binding_index.id)
        covering
    in
    let shared_hold =
      List.find_opt
        (fun (sy : Binding_index.sync) ->
          sy.Binding_index.kind = Binding_index.Lock
          && Lockset.holds t.held ~proc ~id:sy.Binding_index.id)
        covering
    in
    let barrier_cover =
      List.find_opt
        (fun (sy : Binding_index.sync) -> sy.Binding_index.kind = Binding_index.Barrier)
        covering
    in
    (* Two processors writing the same barrier-bound word in the same
       episode race at the merge: the slot arriving later silently wins. *)
    (match barrier_cover with
    | Some b ->
        if
          s.Shadow.last_writer >= 0
          && s.Shadow.last_writer <> proc
          && s.Shadow.lw_sync = b.Binding_index.id
          && s.Shadow.lw_episode = b.Binding_index.episode
        then
          note t ~cls:Diag.Unsynchronized_access ~proc ~sync:b.Binding_index.id ~w ~time ~op
            ~detail:(fun () ->
              Printf.sprintf
                "p%d and p%d both wrote barrier %d's bound data in the same episode (one update \
                 is lost at the merge)"
                s.Shadow.last_writer proc b.Binding_index.id);
        s.Shadow.last_writer <- proc;
        s.Shadow.lw_sync <- b.Binding_index.id;
        s.Shadow.lw_episode <- b.Binding_index.episode
    | None -> ());
    if excl_held then ()
    else
      match shared_hold with
      | Some l ->
          note t ~cls:Diag.Write_under_shared_hold ~proc ~sync:l.Binding_index.id ~w ~time ~op
            ~detail:(fun () ->
              Printf.sprintf "p%d wrote data bound to lock %d while holding it in shared (read) mode"
                proc l.Binding_index.id)
      | None ->
          if barrier_cover <> None then ()  (* ships at the next crossing *)
          else if was_excl = proc then ()  (* sole toucher: initialization *)
          else flag_uncovered t ~proc ~w ~time ~op ~writing:true ~covering
  end;
  s.Shadow.written <- true;
  if was_excl <> proc then s.Shadow.excl <- -1

let check_private_write t ~proc w =
  let s = Shadow.touch t.shadow w ~proc in
  let was_excl = s.Shadow.excl in
  s.Shadow.priv_writer <- proc;
  if was_excl <> proc then s.Shadow.excl <- -1

let on_access t ~proc ~time ~addr ~len ~op ~access ~shared_region =
  if len > 0 then begin
    t.accesses <- t.accesses + 1;
    for w = addr asr 3 to (addr + len - 1) asr 3 do
      match access with
      | Read -> check_read t ~proc ~time ~op ~shared_region w
      | Write -> check_write t ~proc ~time ~op ~shared_region w
      | Private_write -> check_private_write t ~proc w
    done
  end

(* ------------------------------------------------------------------ *)
(* Static lint of the binding table                                    *)
(* ------------------------------------------------------------------ *)

let lint t ~region_kind =
  if not t.linted then begin
    t.linted <- true;
    let no_ctx () = [] in
    let lint_note ~cls ~sync ~lo ~hi ~detail =
      Diag.note t.diags ~cls ~proc:(-1) ~sync ~lo ~hi ~time:0 ~op:"lint" ~detail ~context:no_ctx
    in
    List.iter
      (fun (id, addr, len) ->
        lint_note ~cls:Diag.Lint_degenerate_range ~sync:id ~lo:addr ~hi:(addr + len)
          ~detail:(fun () -> Printf.sprintf "sync %d binds a zero-length range at %#x" id addr))
      (Binding_index.degenerate t.index);
    let syncs = Binding_index.all t.index in
    (* Ranges bound to two different locks: a datum can only be made
       consistent under one guard. *)
    let rec pairs = function
      | [] -> ()
      | (a : Binding_index.sync) :: rest ->
          List.iter
            (fun (b : Binding_index.sync) ->
              if a.Binding_index.kind = Binding_index.Lock && b.Binding_index.kind = Binding_index.Lock
              then
                List.iter
                  (fun ia ->
                    List.iter
                      (fun ib ->
                        match Range.intersect ia ib with
                        | None -> ()
                        | Some o ->
                            let lo = o.Range.addr and hi = Range.limit o in
                            lint_note ~cls:Diag.Lint_overlapping_bindings ~sync:a.Binding_index.id
                              ~lo ~hi
                              ~detail:(fun () ->
                                Printf.sprintf "locks %d and %d both bind [%#x,%#x)"
                                  a.Binding_index.id b.Binding_index.id lo hi))
                      b.Binding_index.cur)
                  a.Binding_index.cur)
            rest;
          pairs rest
    in
    pairs syncs;
    (* Bindings must point into mapped shared memory. *)
    List.iter
      (fun (s : Binding_index.sync) ->
        List.iter
          (fun i ->
            let lo = i.Range.addr and hi = Range.limit i in
            let bad at =
              match region_kind at with
              | `Shared -> None
              | `Private -> Some "private memory"
              | `Unmapped -> Some "unmapped memory"
            in
            match (bad lo, bad (hi - 1)) with
            | Some what, _ | None, Some what ->
                lint_note ~cls:Diag.Lint_private_binding ~sync:s.Binding_index.id ~lo ~hi
                  ~detail:(fun () ->
                    Printf.sprintf "%s %d binds [%#x,%#x), which lies in %s"
                      (kind_name s.Binding_index.kind) s.Binding_index.id lo hi what)
            | None, None -> ())
          s.Binding_index.cur)
      syncs
  end

let report t =
  {
    Report.enabled = true;
    accesses_checked = t.accesses;
    words_tracked = Shadow.tracked t.shadow;
    syncs_seen = List.length (Binding_index.all t.index);
    violations = Diag.violations t.diags;
  }

let current_ranges t ~id = Binding_index.current_ranges t.index ~id
