(** Every counter and gauge of the process, always on.

    This is the one registry behind [--profile], Perfetto traces, the
    daemon's [/metrics] and [bench --json]: kernel ([kernel.*]),
    scheduler ([sched.*]), secrecy ([secrecy.*]), model-checker and
    server instruments all live here.  A counter is one atomic, so it is
    cheap enough to leave on forever (one uncontended increment per event)
    and can be snapshotted at any moment while work is in flight.
    {!Probe} keeps only what costs time to record — spans, request ids
    and per-rule profiles — and is zero-cost when disabled.

    All registration functions return the existing instrument when the
    name is already taken, so modules can register at initialization time
    without coordinating.  Everything is domain- and thread-safe. *)

(** {1 Counters} *)

type counter

val counter : string -> counter

val incr : counter -> unit
val add : counter -> int -> unit

(** [record_max c v] raises [c] to [v] if [v] is larger: a counter
    updated only this way is a high-water mark. *)
val record_max : counter -> int -> unit

val value : counter -> int

(** {1 Gauges}

    Point-in-time values (memo hit rates, intern-table occupancy, pool
    utilization), overwritten on every set.  Gauges are written at
    reporting time, not on hot paths. *)

val set_gauge : string -> float -> unit

(** {1 Histograms}

    Log-bucketed latency histograms: bucket [i] counts observations of at
    most [10 µs × 2^i] (25 buckets, so the top bucket covers ~167 s;
    larger observations land in an overflow bucket).  Quantiles in the
    snapshot are upper-bound approximations (the bucket boundary), which
    is the standard trade for lock-free recording. *)

type histogram

val histogram : string -> histogram
val observe_ns : histogram -> int -> unit

(** [observe_s h dt] records a duration in seconds. *)
val observe_s : histogram -> float -> unit

(** {1 Bucket geometry}

    Exposed so exporters (OpenMetrics [_bucket{le=...}] series) and the
    boundary tests can reason about the exact bucketing. *)

(** Number of bounded buckets; one overflow bucket follows. *)
val nbuckets : int

(** [bucket_bound_ns i] is the inclusive upper bound of bucket [i]
    ([10 µs × 2^i]); observations [<= bound] land in the first such
    bucket. *)
val bucket_bound_ns : int -> int

(** [bucket_of_ns ns] is the index ([0 .. nbuckets]) an observation of
    [ns] lands in; [nbuckets] is the overflow bucket. *)
val bucket_of_ns : int -> int

(** {1 Snapshot} *)

type histogram_view = {
  h_name : string;
  h_count : int;
  h_sum_ms : float;
  h_p50_ms : float;
  h_p90_ms : float;
  h_p99_ms : float;
  h_max_ms : float;
  h_buckets : int array;
      (** raw (non-cumulative) per-bucket counts, [nbuckets + 1] long,
          last = overflow *)
  h_sum_ns : int;  (** exact sum, for loss-free export *)
}

type snapshot = {
  m_counters : (string * int) list;  (** sorted by name *)
  m_gauges : (string * float) list;  (** sorted by name *)
  m_histograms : histogram_view list;  (** sorted by name *)
}

val snapshot : unit -> snapshot

(** [reset ()] zeroes every counter and histogram and forgets every
    gauge.  {!Probe.reset} calls it; like that, it assumes no domain is
    recording. *)
val reset : unit -> unit
