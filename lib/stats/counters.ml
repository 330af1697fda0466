type t = {
  mutable dirtybits_set : int;
  mutable dirtybits_misclassified : int;
  mutable clean_dirtybits_read : int;
  mutable dirty_dirtybits_read : int;
  mutable dirtybits_updated : int;
  mutable write_faults : int;
  mutable pages_diffed : int;
  mutable pages_write_protected : int;
  mutable twin_update_bytes : int;
  mutable twin_compare_bytes : int;
  mutable data_received_bytes : int;
  mutable data_sent_bytes : int;
  mutable messages : int;
  mutable bound_bytes_scanned : int;
  mutable dirty_bytes_found : int;
  mutable lock_acquires_local : int;
  mutable lock_acquires_remote : int;
  mutable barrier_crossings : int;
  mutable trap_time_ns : int;
  mutable collect_time_ns : int;
  mutable retransmits : int;
  mutable drops_observed : int;
  mutable duplicates_suppressed : int;
  mutable backoff_time_ns : int;
  mutable failovers : int;
  mutable replications : int;
}

let create () =
  {
    dirtybits_set = 0;
    dirtybits_misclassified = 0;
    clean_dirtybits_read = 0;
    dirty_dirtybits_read = 0;
    dirtybits_updated = 0;
    write_faults = 0;
    pages_diffed = 0;
    pages_write_protected = 0;
    twin_update_bytes = 0;
    twin_compare_bytes = 0;
    data_received_bytes = 0;
    data_sent_bytes = 0;
    messages = 0;
    bound_bytes_scanned = 0;
    dirty_bytes_found = 0;
    lock_acquires_local = 0;
    lock_acquires_remote = 0;
    barrier_crossings = 0;
    trap_time_ns = 0;
    collect_time_ns = 0;
    retransmits = 0;
    drops_observed = 0;
    duplicates_suppressed = 0;
    backoff_time_ns = 0;
    failovers = 0;
    replications = 0;
  }

let add ~into t =
  into.dirtybits_set <- into.dirtybits_set + t.dirtybits_set;
  into.dirtybits_misclassified <- into.dirtybits_misclassified + t.dirtybits_misclassified;
  into.clean_dirtybits_read <- into.clean_dirtybits_read + t.clean_dirtybits_read;
  into.dirty_dirtybits_read <- into.dirty_dirtybits_read + t.dirty_dirtybits_read;
  into.dirtybits_updated <- into.dirtybits_updated + t.dirtybits_updated;
  into.write_faults <- into.write_faults + t.write_faults;
  into.pages_diffed <- into.pages_diffed + t.pages_diffed;
  into.pages_write_protected <- into.pages_write_protected + t.pages_write_protected;
  into.twin_update_bytes <- into.twin_update_bytes + t.twin_update_bytes;
  into.twin_compare_bytes <- into.twin_compare_bytes + t.twin_compare_bytes;
  into.data_received_bytes <- into.data_received_bytes + t.data_received_bytes;
  into.data_sent_bytes <- into.data_sent_bytes + t.data_sent_bytes;
  into.messages <- into.messages + t.messages;
  into.bound_bytes_scanned <- into.bound_bytes_scanned + t.bound_bytes_scanned;
  into.dirty_bytes_found <- into.dirty_bytes_found + t.dirty_bytes_found;
  into.lock_acquires_local <- into.lock_acquires_local + t.lock_acquires_local;
  into.lock_acquires_remote <- into.lock_acquires_remote + t.lock_acquires_remote;
  into.barrier_crossings <- into.barrier_crossings + t.barrier_crossings;
  into.trap_time_ns <- into.trap_time_ns + t.trap_time_ns;
  into.collect_time_ns <- into.collect_time_ns + t.collect_time_ns;
  into.retransmits <- into.retransmits + t.retransmits;
  into.drops_observed <- into.drops_observed + t.drops_observed;
  into.duplicates_suppressed <- into.duplicates_suppressed + t.duplicates_suppressed;
  into.backoff_time_ns <- into.backoff_time_ns + t.backoff_time_ns;
  into.failovers <- into.failovers + t.failovers;
  into.replications <- into.replications + t.replications

let total arr =
  let acc = create () in
  Array.iter (fun t -> add ~into:acc t) arr;
  acc

let average arr =
  let n = Array.length arr in
  if n = 0 then create ()
  else begin
    let acc = total arr in
    acc.dirtybits_set <- acc.dirtybits_set / n;
    acc.dirtybits_misclassified <- acc.dirtybits_misclassified / n;
    acc.clean_dirtybits_read <- acc.clean_dirtybits_read / n;
    acc.dirty_dirtybits_read <- acc.dirty_dirtybits_read / n;
    acc.dirtybits_updated <- acc.dirtybits_updated / n;
    acc.write_faults <- acc.write_faults / n;
    acc.pages_diffed <- acc.pages_diffed / n;
    acc.pages_write_protected <- acc.pages_write_protected / n;
    acc.twin_update_bytes <- acc.twin_update_bytes / n;
    acc.twin_compare_bytes <- acc.twin_compare_bytes / n;
    acc.data_received_bytes <- acc.data_received_bytes / n;
    acc.data_sent_bytes <- acc.data_sent_bytes / n;
    acc.messages <- acc.messages / n;
    acc.bound_bytes_scanned <- acc.bound_bytes_scanned / n;
    acc.dirty_bytes_found <- acc.dirty_bytes_found / n;
    acc.lock_acquires_local <- acc.lock_acquires_local / n;
    acc.lock_acquires_remote <- acc.lock_acquires_remote / n;
    acc.barrier_crossings <- acc.barrier_crossings / n;
    acc.trap_time_ns <- acc.trap_time_ns / n;
    acc.collect_time_ns <- acc.collect_time_ns / n;
    acc.retransmits <- acc.retransmits / n;
    acc.drops_observed <- acc.drops_observed / n;
    acc.duplicates_suppressed <- acc.duplicates_suppressed / n;
    acc.backoff_time_ns <- acc.backoff_time_ns / n;
    acc.failovers <- acc.failovers / n;
    acc.replications <- acc.replications / n;
    acc
  end

let percent_dirty_data t =
  if t.bound_bytes_scanned = 0 then 0.0
  else 100.0 *. float_of_int t.dirty_bytes_found /. float_of_int t.bound_bytes_scanned
