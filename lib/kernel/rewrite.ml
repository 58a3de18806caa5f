module Probe = Telemetry.Probe
module Metrics = Telemetry.Metrics

type rule = {
  label : string;
  lhs : Term.t;
  rhs : Term.t;
  cond : Term.t option;
}

let var_subset small big =
  let inside = Term.vars big in
  List.for_all
    (fun (v : Term.var) ->
      List.exists
        (fun (w : Term.var) ->
          String.equal v.v_name w.v_name && Sort.equal v.v_sort w.v_sort)
        inside)
    (Term.vars small)

let rule ?cond ~label lhs rhs =
  (match Term.view lhs with
  | Term.Var _ -> invalid_arg (Printf.sprintf "Rewrite.rule %s: variable lhs" label)
  | Term.App _ -> ());
  if not (Sort.equal (Term.sort lhs) (Term.sort rhs)) then
    invalid_arg (Printf.sprintf "Rewrite.rule %s: sorts differ" label);
  if not (var_subset rhs lhs) then
    invalid_arg
      (Printf.sprintf "Rewrite.rule %s: rhs has variables not in lhs" label);
  (match cond with
  | Some c ->
    if not (Sort.equal (Term.sort c) Sort.bool) then
      invalid_arg (Printf.sprintf "Rewrite.rule %s: non-boolean condition" label);
    if not (var_subset c lhs) then
      invalid_arg
        (Printf.sprintf "Rewrite.rule %s: condition has variables not in lhs"
           label)
  | None -> ());
  { label; lhs; rhs; cond }

(* ------------------------------------------------------------------ *)
(* Derivations.                                                        *)
(* ------------------------------------------------------------------ *)

type deriv = { d_in : Term.t; d_out : Term.t; d_node : dnode }

and dnode =
  | Triv
  | Dapp of { children : deriv list; perm : int list option; step : rstep option }

and rstep = {
  rs_rule : rule;
  rs_sub : Subst.t;
  rs_cond : deriv option;
  rs_next : deriv;
}

type sys_info = {
  si_uid : int;
  si_parent : sys_info option;
  si_added : rule list;
}

(* ------------------------------------------------------------------ *)
(* Normal-form memo.

   Hash-consed terms make the memo a pointer-keyed table with a
   precomputed hash — no recursive hashing or comparison on lookup.  The
   table is striped (mutex per shard, shard picked by the term's hash) so
   the sched pool's domains share one read-mostly memo without contending
   on a single lock.  Every entry is stamped with the memo's generation at
   store time; [invalidate] bumps the generation, turning all existing
   entries into misses at once — this is what ties cached normal forms to
   the rule set they were computed under. *)

type memo_shard = { ms_lock : Mutex.t; ms_tbl : (int * Term.t) Term.Tbl.t }

type memo = {
  m_shards : memo_shard array;
  m_gen : int Atomic.t;
  m_hits : int Atomic.t;
  m_misses : int Atomic.t;
}

(* Keep creation cheap: the prover allocates a fresh system per split
   branch, so the empty memo must cost next to nothing.  16 shards is
   plenty of lock spread for the pool sizes we run; tables grow on
   demand. *)
let memo_shard_count = 16

let memo_create () =
  {
    m_shards =
      Array.init memo_shard_count (fun _ ->
          { ms_lock = Mutex.create (); ms_tbl = Term.Tbl.create 16 });
    m_gen = Atomic.make 0;
    m_hits = Atomic.make 0;
    m_misses = Atomic.make 0;
  }

(* The per-system atomics above answer [memo_stats]; the registry
   counters sum them across every system, so a run sees one process-wide
   hit/miss figure without holding a system. *)
let c_memo_hits = Metrics.counter "kernel.memo.hits"
let c_memo_misses = Metrics.counter "kernel.memo.misses"
let c_memo_invalidations = Metrics.counter "kernel.memo.invalidations"

let memo_find m t =
  let s = m.m_shards.(Term.hash t land (memo_shard_count - 1)) in
  Mutex.lock s.ms_lock;
  let r = Term.Tbl.find_opt s.ms_tbl t in
  Mutex.unlock s.ms_lock;
  match r with
  | Some (g, nf) when g = Atomic.get m.m_gen ->
    Atomic.incr m.m_hits;
    Metrics.incr c_memo_hits;
    Some nf
  | Some _ | None ->
    Atomic.incr m.m_misses;
    Metrics.incr c_memo_misses;
    None

let memo_store m t nf =
  let g = Atomic.get m.m_gen in
  let s = m.m_shards.(Term.hash t land (memo_shard_count - 1)) in
  Mutex.lock s.ms_lock;
  Term.Tbl.replace s.ms_tbl t (g, nf);
  Mutex.unlock s.ms_lock

let memo_reset m =
  Array.iter
    (fun s ->
      Mutex.lock s.ms_lock;
      Term.Tbl.reset s.ms_tbl;
      Mutex.unlock s.ms_lock)
    m.m_shards

let memo_entries m =
  Array.fold_left
    (fun acc s ->
      Mutex.lock s.ms_lock;
      let n = Term.Tbl.length s.ms_tbl in
      Mutex.unlock s.ms_lock;
      acc + n)
    0 m.m_shards

type memo_stats = { hits : int; misses : int; entries : int; generation : int }

type system = {
  ordered : rule list;
  dtree : rule Index.t;  (** discrimination-tree index over [ordered] *)
  mutable indexing : bool;  (** [false]: rule selection via the linear scan *)
  memo : memo;
  mutable dcache : deriv Term.Tbl.t option;
      (** derivation memo, allocated lazily on first traced run *)
  mutable step_limit : int;
  mutable deadline : float;  (** CPU-seconds per [normalize]; [0.] = none *)
  mutable deadline_at : float;
  steps_total : int Atomic.t;  (** shared with systems derived by [extend] *)
  mutable budget : int;
  info : sys_info;
}

let uid_counter = Atomic.make 0
let fresh_uid () = Atomic.fetch_and_add uid_counter 1

(* New systems pick up the process-wide default; [set_indexing] overrides
   per system, and [extend] inherits the parent's choice so a campaign
   forced onto the linear scan stays on it through every split branch. *)
let default_indexing_flag = Atomic.make true
let set_default_indexing b = Atomic.set default_indexing_flag b
let default_indexing () = Atomic.get default_indexing_flag

let build_dtree uid rules = Index.build ~gen:uid ~lhs:(fun r -> r.lhs) rules

let make rules =
  let uid = fresh_uid () in
  let dtree = build_dtree uid rules in
  (* Defensive: a miscompiled index could silently skip rules.  The
     self-retrieval replay costs one query per rule at construction time
     and degrades a bad index to full-bucket answers. *)
  (match Index.validate dtree with Ok () | Error _ -> ());
  {
    ordered = rules;
    dtree;
    indexing = default_indexing ();
    memo = memo_create ();
    dcache = None;
    step_limit = 5_000_000;
    deadline = 0.;
    deadline_at = 0.;
    steps_total = Atomic.make 0;
    budget = 0;
    info = { si_uid = uid; si_parent = None; si_added = rules };
  }

let rules sys = sys.ordered
let info sys = sys.info

(* A derived system gets a fresh memo: the extra rules rewrite terms the
   base system considered normal, so no base entry may be trusted.  The
   index is likewise recompiled over the extended rule set (extends are
   frequent — one per split branch — so the rebuild skips the
   self-retrieval replay [make] performs). *)
let extend sys extra =
  let rules = extra @ sys.ordered in
  let uid = fresh_uid () in
  {
    ordered = rules;
    dtree = build_dtree uid rules;
    indexing = sys.indexing;
    memo = memo_create ();
    dcache = None;
    step_limit = sys.step_limit;
    deadline = sys.deadline;
    deadline_at = 0.;
    steps_total = sys.steps_total;
    budget = 0;
    info = { si_uid = uid; si_parent = Some sys.info; si_added = extra };
  }

type limit = Steps of int | Deadline of float

exception Limit_exceeded of { limit : limit; steps : int }

let () =
  Printexc.register_printer (function
    | Limit_exceeded { limit = Steps n; steps } ->
      Some
        (Printf.sprintf
           "Rewrite.Limit_exceeded (step limit %d reached after %d steps)" n steps)
    | Limit_exceeded { limit = Deadline d; steps } ->
      Some
        (Printf.sprintf
           "Rewrite.Limit_exceeded (deadline %.3fs reached after %d steps)" d
           steps)
    | _ -> None)

let set_step_limit sys n = sys.step_limit <- n
let set_deadline sys d = sys.deadline <- d
let steps sys = Atomic.get sys.steps_total
let reset_steps sys = Atomic.set sys.steps_total 0

let clear_cache sys =
  memo_reset sys.memo;
  sys.dcache <- None

let invalidate_memo sys =
  Atomic.incr sys.memo.m_gen;
  Metrics.incr c_memo_invalidations

let memo_stats sys =
  {
    hits = Atomic.get sys.memo.m_hits;
    misses = Atomic.get sys.memo.m_misses;
    entries = memo_entries sys.memo;
    generation = Atomic.get sys.memo.m_gen;
  }

(* [steps_total] is atomic: a base system's counter is shared (via
   [extend]) by every branched system the proof pool runs concurrently,
   so a plain [incr] loses updates and [--jobs] totals under-report. *)
let tick sys =
  Atomic.incr sys.steps_total;
  sys.budget <- sys.budget - 1;
  if sys.budget <= 0 then
    raise (Limit_exceeded { limit = Steps sys.step_limit; steps = sys.step_limit });
  if sys.deadline > 0. && Sys.time () > sys.deadline_at then
    raise
      (Limit_exceeded
         { limit = Deadline sys.deadline; steps = sys.step_limit - sys.budget })

(* The seed engine's rule selection: every rule under the subject's head
   operator name, in rule order — the index's unfiltered head bucket.
   The reference the differential suite compares the index against, and
   the fallback when indexing is off. *)
let linear_rules sys name = Index.bucket sys.dtree name

(* Indexed rule selection.  [Index.candidates] is never-miss and preserves
   rule order, so the rule that fires — and with it every normal form,
   step count and traced derivation — is identical to the linear scan's.
   With indexing off the linear answer is returned and accounted as a
   fallback (an index degraded by a failed selfcheck accounts its own
   fallbacks internally). *)
let sys_rules sys t o =
  if sys.indexing then Index.candidates sys.dtree t
  else begin
    let rs = linear_rules sys o.Signature.name in
    if rs <> [] then Index.note_fallback ();
    rs
  end

(* One root-match attempt of [r.lhs] against [t] — AC roots go through the
   AC matcher, everything else through syntactic matching.  Profiled as a
   [Match] frame charged to the rule *attempted*, so the hot-rules table
   shows scan cost where it belongs: a rule that is tried at every redex
   and almost never fires is expensive even though it never rewrites
   anything, and that is precisely the cost the index removes. *)
let root_match r t =
  match Term.view r.lhs, Term.view t with
  | Term.App (po, _), Term.App (so, _)
    when Signature.is_ac po && Signature.op_equal po so ->
    Ac.match_first r.lhs t
  | _ -> Matching.match_ r.lhs t

let match_root r t =
  if not (Probe.enabled ()) then root_match r t
  else begin
    let f = Probe.rule_enter () in
    let m = root_match r t in
    Probe.rule_exit f ~kind:Probe.Match ~label:r.label;
    m
  end

(* ------------------------------------------------------------------ *)
(* Derivations.                                                        *)
(*                                                                     *)
(* The derivation memo is separate from the plain normal-form memo: a  *)
(* memo entry warmed by an earlier untraced run has no derivation, so  *)
(* traced runs consult only [dcache]; the plain memo is warmed only    *)
(* at derivation roots (hashing every subterm into both tables showed  *)
(* up as the bulk of the tracing overhead).                            *)
(*                                                                     *)
(* Derivations certify reachability (input rewrites to output using    *)
(* the recorded rules), which is what soundness of a proof score       *)
(* needs; they do not certify that the output is a normal form.  A     *)
(* node that performs no step anywhere collapses to [Triv].            *)
(* ------------------------------------------------------------------ *)

let dcache sys =
  match sys.dcache with
  | Some dc -> dc
  | None ->
    let dc = Term.Tbl.create 1024 in
    sys.dcache <- Some dc;
    dc

let triv t = { d_in = t; d_out = t; d_node = Triv }

(* AC/Comm canonicalization of [t'], recording the permutation of the
   flattened argument list.  Mirrors [Ac.normalize] on terms whose children
   are already canonical; [None] when canonicalization is the identity.

   Fast path: interned terms carry their canonicity, so the overwhelmingly
   common already-sorted case is a single flag read (no flatten, no
   compare — this is what keeps tracing overhead low). *)
let ac_perm o t' =
  if Term.ac_canonical t' then (None, t')
  else
    match Term.view t' with
    | Term.App (_, [ _; _ ]) when Signature.is_ac o ->
      let flat = Ac.flatten o t' in
      let idx = List.mapi (fun i t -> (t, i)) flat in
      let sorted =
        List.stable_sort (fun (a, _) (b, _) -> Term.ac_compare a b) idx
      in
      let t'' = Ac.rebuild o (List.map fst sorted) in
      if Term.equal t'' t' then (None, t')
      else (Some (List.map snd sorted), t'')
    | Term.App (_, [ a; b ]) when Signature.is_comm o ->
      if Term.ac_compare a b <= 0 then (None, t')
      else (Some [ 1; 0 ], Term.app_unchecked o [ b; a ])
    | _ -> (None, t')

(* Leftmost-innermost normalization: children first, then AC/Comm
   canonicalization at the root, then root rules in order until one fires.
   A rule's condition is normalized recursively and must reach the literal
   [true]; the fired rule's instantiated right-hand side is normalized in
   turn.

   [visit] is the only function that knows this strategy.  Every entry
   point runs it under a [mode] that fixes everything else: the cache a
   visit reads and writes (the shared striped memo, a private per-call
   table, or [dcache]), rule selection (index or linear reference scan),
   AC canonicalization ([Ac.normalize], or [ac_perm] when the permutation
   is recorded) and what a visit returns (the normal form, or a
   derivation).  Same strategy, same step accounting, so all modes are
   differentially comparable. *)

type ('a, 's) mode = {
  find : system -> Term.t -> 'a option;
  store : system -> Term.t -> 'a -> unit;
  rules : system -> Term.t -> Signature.op -> rule list;
      (** candidate rules for a root, in rule order *)
  canon : Signature.op -> Term.t -> int list option * Term.t;
  out : 'a -> Term.t;  (** the term a visit reached *)
  step : rule -> Subst.t -> 'a option -> 'a -> 's;
      (** a fired rule: its substitution, condition discharge and
          right-hand-side visit *)
  node : Term.t -> 'a list -> int list option -> Term.t -> 's option -> 'a;
      (** a visited term: the input, its children's visits, the AC
          permutation, the root the rules were tried on, the step fired *)
}

let rec unmoved m children args =
  match children, args with
  | c :: children, a :: args -> m.out c == a && unmoved m children args
  | _ -> true

let rec visit m sys t =
  match m.find sys t with
  | Some v -> v
  | None ->
    let v =
      match Term.view t with
      | Term.Var _ -> m.node t [] None t None
      | Term.App (o, args) ->
        let children = visit_args m sys args in
        (* reuse [t] when no child moved: keeps the stepless [Term.equal]
           of a traced node on its physical-equality fast path *)
        let t' =
          if unmoved m children args then t
          else Term.app_unchecked o (List.map m.out children)
        in
        if Signature.is_ac o || Signature.is_comm o then
          let perm, t' = m.canon o t' in
          m.node t children perm t' (try_rules m sys t' (m.rules sys t' o))
        else m.node t children None t' (try_rules m sys t' (m.rules sys t' o))
    in
    m.store sys t v;
    v

and visit_args m sys = function
  | [] -> []
  | a :: rest ->
    let v = visit m sys a in
    v :: visit_args m sys rest

and try_rules m sys t = function
  | [] -> None
  | r :: rest -> (
    match match_root r t with
    | None -> try_rules m sys t rest
    | Some sub -> (
      match r.cond with
      | None -> Some (fire m sys r sub None)
      | Some c ->
        let d = visit_as Probe.Cond m sys r (Subst.apply sub c) in
        if Term.equal (m.out d) Term.tt then Some (fire m sys r sub (Some d))
        else try_rules m sys t rest))

and fire m sys r sub cond =
  tick sys;
  m.step r sub cond (visit_as Probe.Rewrite m sys r (Subst.apply sub r.rhs))

(* Profiling brackets all three timed regions — the match attempt (in
   [match_root]), condition discharge and right-hand-side normalization —
   with a per-domain frame so the hotspot report gets exact self-times.
   The probe-off path is one flag read; the differential suite holds the
   two to identical normal forms and step counts. *)
and visit_as kind m sys r t =
  if not (Probe.enabled ()) then visit m sys t
  else begin
    let f = Probe.rule_enter () in
    match visit m sys t with
    | v ->
      Probe.rule_exit f ~kind ~label:r.label;
      v
    | exception e ->
      Probe.rule_exit f ~kind ~label:r.label;
      raise e
  end

(* [normalize]: the shared memo, indexed selection, normal forms. *)
let plain =
  {
    find = (fun sys t -> memo_find sys.memo t);
    store = (fun sys t nf -> memo_store sys.memo t nf);
    rules = sys_rules;
    canon = (fun _ t -> (None, Ac.normalize t));
    out = Fun.id;
    step = (fun _ _ _ nf -> nf);
    node = (fun _ _ _ t step -> Option.value step ~default:t);
  }

(* [normalize_uncached]: the seed engine's path, against a private table
   that dies with the call — nothing read from or written to the shared
   memo.  The differential suite compares the other modes against it. *)
let uncached () =
  let tbl = Term.Tbl.create 1024 in
  {
    plain with
    find = (fun _ t -> Term.Tbl.find_opt tbl t);
    store = (fun _ t nf -> Term.Tbl.replace tbl t nf);
    (* the reference path selects rules by linear scan, unconditionally,
       and does not count fallbacks — it is the baseline, not a fallback *)
    rules = (fun sys _ o -> linear_rules sys o.Signature.name);
  }

(* Traced runs: [dcache], indexed selection, derivations. *)
let traced =
  {
    find = (fun sys t -> Term.Tbl.find_opt (dcache sys) t);
    store = (fun sys t d -> Term.Tbl.replace (dcache sys) t d);
    rules = sys_rules;
    canon = ac_perm;
    out = (fun d -> d.d_out);
    step =
      (fun rs_rule rs_sub rs_cond rs_next -> { rs_rule; rs_sub; rs_cond; rs_next });
    node =
      (fun t children perm t' step ->
        match step with
        | None ->
          if Term.equal t' t then triv t
          else { d_in = t; d_out = t'; d_node = Dapp { children; perm; step } }
        | Some rs ->
          { d_in = t; d_out = rs.rs_next.d_out; d_node = Dapp { children; perm; step } });
  }

(* ------------------------------------------------------------------ *)
(* Global tracer.                                                      *)
(* ------------------------------------------------------------------ *)

type obligation = { ob_info : sys_info; ob_input : Term.t; ob_deriv : deriv }

type tracer = {
  tr_lock : Mutex.t;
  mutable tr_obs : obligation list;
  tr_seen : (int, unit Term.Tbl.t) Hashtbl.t;
}

let tracer () =
  { tr_lock = Mutex.create (); tr_obs = []; tr_seen = Hashtbl.create 64 }

let tracer_slot : tracer option Atomic.t = Atomic.make None
let set_tracer tr = Atomic.set tracer_slot tr

let obligations tr =
  Mutex.protect tr.tr_lock (fun () -> List.rev tr.tr_obs)

let record tr sys t d =
  match d.d_node with
  | Triv -> ()  (* zero-step runs carry nothing to check *)
  | _ ->
    Mutex.protect tr.tr_lock (fun () ->
        let uid = sys.info.si_uid in
        let seen =
          match Hashtbl.find_opt tr.tr_seen uid with
          | Some s -> s
          | None ->
            let s = Term.Tbl.create 64 in
            Hashtbl.replace tr.tr_seen uid s;
            s
        in
        if not (Term.Tbl.mem seen t) then begin
          Term.Tbl.replace seen t ();
          tr.tr_obs <-
            { ob_info = sys.info; ob_input = t; ob_deriv = d } :: tr.tr_obs
        end)

(* ------------------------------------------------------------------ *)
(* Entry points.                                                       *)
(* ------------------------------------------------------------------ *)

let run m sys t =
  sys.budget <- sys.step_limit;
  if sys.deadline > 0. then sys.deadline_at <- Sys.time () +. sys.deadline;
  visit m sys t

let run_traced sys t =
  let d = run traced sys t in
  memo_store sys.memo t d.d_out;
  d

(* One span per top-level normalization ([cat = "red"]): nested visits
   stay span-free (rule applications are profiled separately), so a trace
   shows each red as one block under its proof case. *)
let red f sys t =
  if not (Probe.enabled ()) then f sys t
  else begin
    let t0 = Probe.now_ns () in
    Fun.protect
      ~finally:(fun () -> Probe.span_since ~cat:"red" "red" t0)
      (fun () -> f sys t)
  end

let normalize sys t =
  red
    (fun sys t ->
      match Atomic.get tracer_slot with
      | None -> run plain sys t
      | Some tr ->
        let d = run_traced sys t in
        record tr sys t d;
        d.d_out)
    sys t

let normalize_uncached sys t = red (fun sys t -> run (uncached ()) sys t) sys t

let normalize_traced sys t =
  let d = red run_traced sys t in
  (d.d_out, d)

(* ------------------------------------------------------------------ *)
(* Index control and introspection.                                    *)
(* ------------------------------------------------------------------ *)

let set_indexing sys b = sys.indexing <- b
let indexing sys = sys.indexing
let index_info sys = Index.info sys.dtree

(* Re-runs the self-retrieval replay on demand.  A failure means the
   index was corrupted after construction, and any normal form computed
   through it since is suspect — so on [Error] the memo generation is
   bumped and the derivation cache dropped along with degrading the index
   to full-bucket answers.  This is the index side of the index⇄memo
   generation contract: the memo may only hold entries computed under a
   healthy index of the current rule set. *)
let selfcheck sys =
  match Index.validate sys.dtree with
  | Ok () -> Ok ()
  | Error _ as e ->
    invalidate_memo sys;
    sys.dcache <- None;
    e

let corrupt_index_for_tests sys ~bucket ~slot =
  Index.unsafe_drop_slot sys.dtree ~bucket ~slot

let pp_rule ppf r =
  match r.cond with
  | None -> Format.fprintf ppf "[%s] %a = %a" r.label Term.pp r.lhs Term.pp r.rhs
  | Some c ->
    Format.fprintf ppf "[%s] %a = %a if %a" r.label Term.pp r.lhs Term.pp r.rhs
      Term.pp c
