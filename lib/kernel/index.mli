(** Term indexing for rule selection — a discrimination tree with AC-aware
    buckets.

    [try_rules] used to scan every rule whose head operator matched the
    subject's root; on the generated TLS system that means every
    [trans-*-nw] rule is re-matched against every [nw(...)] subterm even
    though at most one action constructor can possibly fit.  The index
    compiles the left-hand sides of a rule set once and answers, per
    subject, a small candidate list that provably contains every rule the
    linear scan could fire ({e never-miss}):

    - rules whose head operator is {e not} AC live in a {b discrimination
      tree} keyed on the pre-order symbol string of the pattern —
      operator name and argument count per node, a wildcard for pattern
      variables.  Below an AC/Comm operator the engine matches modulo
      argument order, so those children are compiled as wildcards (only
      the root symbol discriminates there): the tree never assumes an
      ordering the matcher does not.
    - rules whose head operator {e is} AC live in an {b AC bucket}: per
      rule, the multiset profile of its flattened arguments (count of
      flattened arguments, count of variable arguments, multiset of root
      symbols of the rigid arguments).  A subject is compatible only if
      its own flattened-argument profile can cover the rule's — the exact
      pre-condition of [Ac.match_]'s rigid-placement/variable-distribution
      search.  Profiles are multisets, so they are invariant under AC
      canonicalization (the canonical flag permutes arguments, never adds
      or removes them).

    Candidates are always returned in rule-insertion order: the rewriter
    tries them exactly as the linear scan would, so the applied rule — and
    therefore every traced derivation and certificate — is byte-identical
    with and without the index.

    The index is {e defensive}: {!validate} replays the self-retrieval
    invariant (every compiled rule must be a candidate for its own
    left-hand side) and permanently degrades a corrupted index to
    full-bucket answers, so a detected inconsistency can only cost speed,
    never soundness.  {!unsafe_drop_slot} exists for the adversarial tests
    that prove this. *)

type 'a t

(** [build ~gen ~lhs entries] compiles an index over [entries], keyed by
    the left-hand sides [lhs e].  Entry order is remembered and respected
    by {!candidates}.  [gen] stamps the index with the identity of the
    rule set it was compiled from (the owning system's uid); it is
    reported by {!info} and lets callers assert an index was rebuilt when
    the rule set changed.
    @raise Invalid_argument if some [lhs e] is a variable. *)
val build : ?gen:int -> lhs:('a -> Term.t) -> 'a list -> 'a t

(** [candidates t subject] is the entries whose left-hand side may match
    at the root of [subject], in insertion order.  Guaranteed to be a
    superset of the entries the linear scan would fire (never-miss); a
    [Var] subject has no candidates (left-hand sides are never
    variables).  On an index degraded by {!validate} the whole head
    bucket is returned and counted as a fallback. *)
val candidates : 'a t -> Term.t -> 'a list

(** [bucket t name] is every entry whose left-hand side has head operator
    [name], in insertion order ([[]] when there is none) — the answer of
    a linear scan by head operator, with no filtering and no accounting.
    Built once by {!build}, so the call does not allocate. *)
val bucket : 'a t -> string -> 'a list

(** [ok t] is [false] once {!validate} has detected corruption (every
    query then falls back to the full bucket). *)
val ok : 'a t -> bool

(** [validate t] replays the self-retrieval invariant: every compiled
    entry must appear in [candidates t (lhs entry)].  On failure the
    index is marked not-{!ok} (degrading all queries to full-bucket
    fallbacks) and the error names the offending bucket and slot. *)
val validate : 'a t -> (unit, string) result

type info = {
  ix_rules : int;  (** entries compiled *)
  ix_buckets : int;  (** distinct head-operator buckets *)
  ix_ac_buckets : int;  (** buckets using the AC multiset profile *)
  ix_generation : int;  (** the [gen] the index was built with *)
  ix_ok : bool;
}

val info : 'a t -> info

(** {1 Process-wide query accounting}

    The [kernel.index.*] {!Telemetry.Metrics} counters, summed across
    every index in the process and always on.  Queries on head operators
    with no rules at all are not counted — they do no filtering work and
    would drown the ratio in constructor noise.  {!Telemetry.Probe.reset}
    zeroes them; to measure one stretch of work, subtract two {!stats}
    readings. *)

type stats = {
  queries : int;  (** candidate lookups answered by index filtering *)
  hits : int;  (** candidates returned by those lookups *)
  filtered : int;  (** rules excluded by those lookups *)
  fallbacks : int;
      (** lookups answered with the full bucket instead: the index was
          degraded by {!validate}, or rule selection was switched back to
          the linear scan ({!note_fallback}) *)
}

val stats : unit -> stats

(** [note_fallback ()] records one full-bucket answer made by a caller
    that bypassed the index (the rewriter's linear-scan path when indexing
    is disabled). *)
val note_fallback : unit -> unit

(**/**)

(** Test-only adversarial hook: silently corrupt the bucket for head
    operator [bucket] by unlinking entry [slot] — dropped from its
    discrimination-tree leaf, or its AC profile tampered into one its own
    left-hand side cannot satisfy.  Returns [false] if the bucket or slot
    does not exist.  After this, {!candidates} can miss the entry;
    {!validate} must detect it. *)
val unsafe_drop_slot : 'a t -> bucket:string -> slot:int -> bool
