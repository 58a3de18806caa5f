(** Human-readable hotspot report over a {!Probe.snapshot}.

    Answers "which rule, which proof case, which worker is the hot spot?"
    without leaving the terminal:

    - top-N rules by self-time (rewrite, condition-discharge and
      match-attempt components split out);
    - per-invariant proof-case table (from [cat = "case"] spans), slowest
      first, with the domain each case ran on;
    - every {!Metrics} counter and gauge;
    - the span count and how many spans the buffer cap dropped. *)

(** [hot_rules ?top snap] is the rule profile sorted by descending
    self-time (rewrite self + condition self + match-attempt self),
    truncated to [top] (default 10). *)
val hot_rules : ?top:int -> Probe.snapshot -> Probe.rule_stat list

(** [slowest_cases ?top snap] is the [cat = "case"] spans sorted by
    descending duration, truncated to [top] (default 10). *)
val slowest_cases : ?top:int -> Probe.snapshot -> Probe.span list

val pp : ?top:int -> Format.formatter -> Probe.snapshot -> unit
