(** CSV export of suite results, for external plotting.

    One row per (application, system); columns are the simulated time,
    payload traffic and every primitive-operation counter from Table 2.
    `midway-experiments --csv FILE` writes this. *)

val field : string -> string
(** RFC-4180 quoting of one field: wrapped in double quotes (embedded
    quotes doubled) iff it contains a comma, quote or line break. *)

val of_suite : Suite.t -> string
(** Full CSV document (header + rows), deterministic column order. *)
