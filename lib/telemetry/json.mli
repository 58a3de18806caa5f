(** The one JSON string escaper: every hand-rolled JSON writer in the
    repository (trace export, event log, flight recorder, [/statusz], lint
    and SARIF reports, [check --json], [bench --json]) goes through it. *)

(** [escape s] is [s] made safe inside a JSON string literal: a double
    quote and a backslash are backslash-escaped, newline and tab become
    their two-character escapes, other bytes below 0x20 become a [\u]
    escape of four hex digits, and every other byte — UTF-8 sequences
    included — passes through unchanged. *)
val escape : string -> string
