(** Profiling telemetry: spans, request ids and per-rule profiles.

    The verification stack is instrumented at four altitudes — proof score,
    proof case, [red] (one normalization), rule application.  All of it
    funnels through this module:

    - {b zero-cost when disabled}: every probe is guarded by one load of an
      atomic flag; with the flag off the instrumented code paths are the
      un-instrumented ones plus a single branch.  The differential suite
      asserts byte-identical normal forms and step counts either way.
    - {b domain-safe and contention-free}: each domain records into its own
      buffer, discovered through [Domain.DLS]; nothing is shared on the
      hot path.  Buffers are merged under a registry lock only at
      {!snapshot} time.
    - {b monotonic}: all timestamps come from the OS monotonic clock
      ([CLOCK_MONOTONIC], nanoseconds), never from wall-clock time.

    Counters and gauges (AC-matcher backtracks, memo hits, sched-pool
    steals, …) are not recorded here: they live in {!Metrics}, always on.
    A {!snapshot} carries that registry's counters and gauges next to the
    spans, so every renderer reads one view.

    {!snapshot} and {!reset} assume quiescence (no domain actively
    recording): take them after pool work has settled, as the CLIs do. *)

(** [set_enabled b] turns recording on or off, globally (all domains). *)
val set_enabled : bool -> unit

(** [enabled ()] is the single-branch guard every probe starts with. *)
val enabled : unit -> bool

(** [now_ns ()] is the monotonic clock, in nanoseconds (ns since an
    arbitrary epoch; differences are meaningful, absolute values are not). *)
val now_ns : unit -> int

(** {1 Spans}

    A span is a named, categorized interval attributed to the domain that
    ran it.  Spans nest (per domain): depth is tracked so exporters and
    tests can check proper nesting.  Short spans of the hot categories can
    be dropped at record time ({!set_span_min_ns}) to bound trace size;
    spans recorded with [~always:true] ignore the threshold. *)

(** [with_span ~cat name f] runs [f ()] inside a span.  When recording is
    disabled this is exactly [f ()].  The span is recorded even if [f]
    raises.  [always] (default [false]) bypasses the minimum-duration
    filter. *)
val with_span : ?always:bool -> cat:string -> string -> (unit -> 'a) -> 'a

(** [span_since ~cat name t0] records a span started at [t0] (a {!now_ns}
    reading) and ending now — the allocation-free variant for hot paths
    that cannot afford a closure.  Subject to the minimum-duration filter;
    no-op when disabled.  Does not affect nesting depth. *)
val span_since : cat:string -> string -> int -> unit

(** [set_span_min_ns n] drops spans shorter than [n] ns at record time
    (except [~always:true] ones).  Default [0]: keep everything. *)
val set_span_min_ns : int -> unit

(** {1 Request attribution}

    A per-domain request id, stamped onto every span recorded while it is
    set ([sp_req]), so a Perfetto trace of a server process can be
    filtered down to the spans — request, obligation, case, red, rule — of
    one wire request.  {!Sched.Pool.submit} captures the submitting
    domain's id and restores it around task execution on whichever worker
    runs the task, so the attribution follows fan-out.  All three
    operations are cheap domain-local field accesses. *)

(** [current_request ()] is the id set on the calling domain, if any. *)
val current_request : unit -> string option

(** [set_request r] installs (or with [None] clears) the calling domain's
    request id. *)
val set_request : string option -> unit

(** [with_request r f] runs [f ()] with the calling domain's request id
    set to [r], restoring the previous id afterwards (also on raise). *)
val with_request : string option -> (unit -> 'a) -> 'a

(** {1 Per-rule profiling}

    The rewriter brackets every rule application (and every condition
    discharge, and every root-match attempt) with
    {!rule_enter}/{!rule_exit}.  Frames form a per-domain stack so
    self-time is exact: a frame's children's total time is subtracted
    from its own.  Callers must guard with {!enabled} — the bracket
    assumes recording is on — and must pair enter/exit even on
    exceptions.  An application whose total time reaches the span
    threshold is additionally recorded as a span (cat ["rule"], ["cond"]
    or ["match"]), so slow instances show up on the trace timeline. *)

type kind =
  | Rewrite  (** normalizing the instantiated right-hand side *)
  | Cond  (** discharging the instantiated condition *)
  | Match
      (** one root-match attempt of the rule's left-hand side, successful
          or not — the cost rule indexing exists to avoid, attributed to
          the rule that was tried rather than dissolved into whichever
          rule happened to be firing above it *)

type frame

val rule_enter : unit -> frame
val rule_exit : frame -> kind:kind -> label:string -> unit

(** {1 Snapshot}

    Merges every domain's buffers into one immutable view. *)

type span = {
  sp_name : string;
  sp_cat : string;
  sp_t0 : int;  (** start, ns (monotonic) *)
  sp_dur : int;  (** duration, ns *)
  sp_dom : int;  (** id of the domain that ran the span *)
  sp_depth : int;  (** nesting depth within its domain at start time *)
  sp_req : string;  (** request id the span ran under; [""] = unattributed *)
}

type rule_stat = {
  rl_label : string;
  rl_fires : int;  (** rewrite applications of this rule *)
  rl_rw_self_ns : int;  (** rewrite time minus nested rule applications *)
  rl_rw_total_ns : int;  (** inclusive rewrite time *)
  rl_cond_evals : int;  (** condition discharges attempted *)
  rl_cond_self_ns : int;
  rl_cond_total_ns : int;
  rl_match_tries : int;  (** root-match attempts (successful and failed) *)
  rl_match_self_ns : int;
  rl_match_total_ns : int;
}

type snapshot = {
  sn_spans : span list;  (** all domains, sorted by start time *)
  sn_rules : rule_stat list;  (** merged across domains, unsorted *)
  sn_counters : (string * int) list;
      (** every {!Metrics} counter, sorted by name *)
  sn_gauges : (string * float) list;  (** every {!Metrics} gauge, sorted by name *)
  sn_dropped : int;  (** spans lost to the per-domain buffer cap *)
  sn_dropped_by_dom : (int * int) list;
      (** the same drops, attributed per domain id (only domains that
          dropped anything; sorted by domain) *)
  sn_t0 : int;  (** earliest span start (0 when no spans) *)
}

val snapshot : unit -> snapshot

(** [reset ()] clears every buffer and resets the {!Metrics} registry
    ({!Metrics.reset}); the enabled flag and minimum-duration threshold
    are left as they are. *)
val reset : unit -> unit
