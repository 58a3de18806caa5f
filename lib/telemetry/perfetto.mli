(** Chrome/Perfetto trace-event export.

    Serializes a {!Probe.snapshot} to the JSON Trace Event Format (the
    ["traceEvents"] object form) understood by Perfetto
    ([ui.perfetto.dev]) and the legacy [chrome://tracing] viewer:

    - one track (tid) per recording domain, named [domain N];
    - every span becomes a complete event ([ph = "X"]) with microsecond
      [ts]/[dur], timestamps rebased to the snapshot's earliest span;
    - the {!Metrics} counters and gauges ride along in the top-level
      ["otherData"] object, which both viewers preserve.

    Nesting needs no explicit parent links: complete events on the same
    track nest by interval containment, which is exactly how the spans
    were recorded. *)

(** [to_string snap] is the trace JSON. *)
val to_string : ?process_name:string -> Probe.snapshot -> string

(** [write_file path snap] writes {!to_string} to [path]. *)
val write_file : ?process_name:string -> string -> Probe.snapshot -> unit
