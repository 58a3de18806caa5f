(* Per-domain recording, merged at snapshot time.

   Every hot-path operation touches only domain-local state reached
   through [Domain.DLS]: one span/profile buffer per domain.  The only
   global synchronization is the registration of a fresh buffer (once per
   domain, under a mutex) and the snapshot/reset pass, which is
   documented as quiescent-only. *)

let enabled_flag = Atomic.make false
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

(* Monotonic ns as a native int: 2^62 ns ≈ 146 years of uptime, so the
   conversion from the clock's int64 never overflows in practice. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let span_min = Atomic.make 0
let set_span_min_ns n = Atomic.set span_min n

(* ------------------------------------------------------------------ *)
(* Spans and rule profiles: one buffer per domain *)

type span = {
  sp_name : string;
  sp_cat : string;
  sp_t0 : int;
  sp_dur : int;
  sp_dom : int;
  sp_depth : int;
  sp_req : string;  (* request id the span ran under; "" = unattributed *)
}

(* mutable per-domain accumulator for one rule label *)
type rcell = {
  mutable rc_fires : int;
  mutable rc_rw_self : int;
  mutable rc_rw_total : int;
  mutable rc_cond_evals : int;
  mutable rc_cond_self : int;
  mutable rc_cond_total : int;
  mutable rc_match_tries : int;
  mutable rc_match_self : int;
  mutable rc_match_total : int;
}

type frame = { fr_t0 : int; mutable fr_child : int }

type dbuf = {
  db_dom : int;
  mutable db_spans : span array;
  mutable db_n : int;
  mutable db_depth : int;
  mutable db_stack : frame list;
  db_rules : (string, rcell) Hashtbl.t;
  mutable db_dropped : int;
  mutable db_req : string;  (* current request id on this domain *)
}

let dummy_span =
  {
    sp_name = "";
    sp_cat = "";
    sp_t0 = 0;
    sp_dur = 0;
    sp_dom = 0;
    sp_depth = 0;
    sp_req = "";
  }

(* Cap per-domain span storage; beyond it spans are counted, not stored.
   The cap bounds profiled-campaign memory; the hotspot report surfaces
   the drop count so truncation is never silent. *)
let max_spans_per_domain = 1 lsl 20

let registry_lock = Mutex.create ()
let bufs : dbuf list ref = ref []

let buf_key : dbuf Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let b =
        {
          db_dom = (Domain.self () :> int);
          db_spans = Array.make 256 dummy_span;
          db_n = 0;
          db_depth = 0;
          db_stack = [];
          db_rules = Hashtbl.create 64;
          db_dropped = 0;
          db_req = "";
        }
      in
      Mutex.protect registry_lock (fun () -> bufs := b :: !bufs);
      b)

let my_buf () = Domain.DLS.get buf_key

let push_span b sp =
  if b.db_n >= max_spans_per_domain then b.db_dropped <- b.db_dropped + 1
  else begin
    let cap = Array.length b.db_spans in
    if b.db_n = cap then begin
      let fresh = Array.make (2 * cap) dummy_span in
      Array.blit b.db_spans 0 fresh 0 cap;
      b.db_spans <- fresh
    end;
    b.db_spans.(b.db_n) <- sp;
    b.db_n <- b.db_n + 1
  end

let record_span b ~always ~cat ~name ~t0 ~dur ~depth =
  if always || dur >= Atomic.get span_min then
    push_span b
      {
        sp_name = name;
        sp_cat = cat;
        sp_t0 = t0;
        sp_dur = dur;
        sp_dom = b.db_dom;
        sp_depth = depth;
        sp_req = b.db_req;
      }

let with_span ?(always = false) ~cat name f =
  if not (enabled ()) then f ()
  else begin
    let b = my_buf () in
    let depth = b.db_depth in
    b.db_depth <- depth + 1;
    let t0 = now_ns () in
    let finish () =
      let dur = now_ns () - t0 in
      b.db_depth <- depth;
      record_span b ~always ~cat ~name ~t0 ~dur ~depth
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let span_since ~cat name t0 =
  if enabled () then begin
    let b = my_buf () in
    record_span b ~always:false ~cat ~name ~t0 ~dur:(now_ns () - t0)
      ~depth:b.db_depth
  end

(* ------------------------------------------------------------------ *)
(* Request attribution: a per-domain id stamped onto every span recorded
   while it is set.  The scheduler captures it at submit time and restores
   it around task execution, so work fanned out across the pool keeps the
   id of the request that asked for it. *)

let current_request () =
  match (my_buf ()).db_req with "" -> None | s -> Some s

let set_request r =
  (my_buf ()).db_req <- (match r with None -> "" | Some s -> s)

let with_request r f =
  let b = my_buf () in
  let prev = b.db_req in
  b.db_req <- (match r with None -> "" | Some s -> s);
  Fun.protect ~finally:(fun () -> b.db_req <- prev) f

(* ------------------------------------------------------------------ *)
(* Rule profiling *)

type kind = Rewrite | Cond | Match

let rule_enter () =
  let b = my_buf () in
  let f = { fr_t0 = now_ns (); fr_child = 0 } in
  b.db_stack <- f :: b.db_stack;
  f

let rcell_of b label =
  match Hashtbl.find_opt b.db_rules label with
  | Some c -> c
  | None ->
    let c =
      {
        rc_fires = 0;
        rc_rw_self = 0;
        rc_rw_total = 0;
        rc_cond_evals = 0;
        rc_cond_self = 0;
        rc_cond_total = 0;
        rc_match_tries = 0;
        rc_match_self = 0;
        rc_match_total = 0;
      }
    in
    Hashtbl.add b.db_rules label c;
    c

let rule_exit f ~kind ~label =
  let b = my_buf () in
  let total = now_ns () - f.fr_t0 in
  let self = max 0 (total - f.fr_child) in
  (* pop, tolerating a mismatched stack after an unbalanced caller *)
  (match b.db_stack with
  | top :: rest when top == f -> b.db_stack <- rest
  | _ -> ());
  (* children count toward the parent frame's child time whichever kind
     they are: a condition discharge inside a rewrite is not self-time *)
  (match b.db_stack with
  | parent :: _ -> parent.fr_child <- parent.fr_child + total
  | [] -> ());
  let c = rcell_of b label in
  (match kind with
  | Rewrite ->
    c.rc_fires <- c.rc_fires + 1;
    c.rc_rw_self <- c.rc_rw_self + self;
    c.rc_rw_total <- c.rc_rw_total + total
  | Cond ->
    c.rc_cond_evals <- c.rc_cond_evals + 1;
    c.rc_cond_self <- c.rc_cond_self + self;
    c.rc_cond_total <- c.rc_cond_total + total
  | Match ->
    c.rc_match_tries <- c.rc_match_tries + 1;
    c.rc_match_self <- c.rc_match_self + self;
    c.rc_match_total <- c.rc_match_total + total);
  if total >= Atomic.get span_min && Atomic.get span_min > 0 then
    record_span b ~always:false
      ~cat:(match kind with Rewrite -> "rule" | Cond -> "cond" | Match -> "match")
      ~name:label ~t0:f.fr_t0 ~dur:total ~depth:(List.length b.db_stack)

(* ------------------------------------------------------------------ *)
(* Snapshot / reset *)

type rule_stat = {
  rl_label : string;
  rl_fires : int;
  rl_rw_self_ns : int;
  rl_rw_total_ns : int;
  rl_cond_evals : int;
  rl_cond_self_ns : int;
  rl_cond_total_ns : int;
  rl_match_tries : int;
  rl_match_self_ns : int;
  rl_match_total_ns : int;
}

type snapshot = {
  sn_spans : span list;
  sn_rules : rule_stat list;
  sn_counters : (string * int) list;
  sn_gauges : (string * float) list;
  sn_dropped : int;
  sn_dropped_by_dom : (int * int) list;
  sn_t0 : int;
}

let snapshot () =
  let bufs = Mutex.protect registry_lock (fun () -> !bufs) in
  let spans =
    List.concat_map
      (fun b -> Array.to_list (Array.sub b.db_spans 0 b.db_n))
      bufs
  in
  let spans =
    List.stable_sort
      (fun a b ->
        match compare a.sp_t0 b.sp_t0 with 0 -> compare a.sp_depth b.sp_depth | c -> c)
      spans
  in
  let merged : (string, rcell) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun b ->
      Hashtbl.iter
        (fun label (c : rcell) ->
          let m =
            match Hashtbl.find_opt merged label with
            | Some m -> m
            | None ->
              let m =
                {
                  rc_fires = 0;
                  rc_rw_self = 0;
                  rc_rw_total = 0;
                  rc_cond_evals = 0;
                  rc_cond_self = 0;
                  rc_cond_total = 0;
                  rc_match_tries = 0;
                  rc_match_self = 0;
                  rc_match_total = 0;
                }
              in
              Hashtbl.add merged label m;
              m
          in
          m.rc_fires <- m.rc_fires + c.rc_fires;
          m.rc_rw_self <- m.rc_rw_self + c.rc_rw_self;
          m.rc_rw_total <- m.rc_rw_total + c.rc_rw_total;
          m.rc_cond_evals <- m.rc_cond_evals + c.rc_cond_evals;
          m.rc_cond_self <- m.rc_cond_self + c.rc_cond_self;
          m.rc_cond_total <- m.rc_cond_total + c.rc_cond_total;
          m.rc_match_tries <- m.rc_match_tries + c.rc_match_tries;
          m.rc_match_self <- m.rc_match_self + c.rc_match_self;
          m.rc_match_total <- m.rc_match_total + c.rc_match_total)
        b.db_rules)
    bufs;
  let rules =
    Hashtbl.fold
      (fun label c acc ->
        {
          rl_label = label;
          rl_fires = c.rc_fires;
          rl_rw_self_ns = c.rc_rw_self;
          rl_rw_total_ns = c.rc_rw_total;
          rl_cond_evals = c.rc_cond_evals;
          rl_cond_self_ns = c.rc_cond_self;
          rl_cond_total_ns = c.rc_cond_total;
          rl_match_tries = c.rc_match_tries;
          rl_match_self_ns = c.rc_match_self;
          rl_match_total_ns = c.rc_match_total;
        }
        :: acc)
      merged []
  in
  let m = Metrics.snapshot () in
  {
    sn_spans = spans;
    sn_rules = rules;
    sn_counters = m.Metrics.m_counters;
    sn_gauges = m.Metrics.m_gauges;
    sn_dropped = List.fold_left (fun acc b -> acc + b.db_dropped) 0 bufs;
    sn_dropped_by_dom =
      (* group-sum per domain: a domain id appears once even if several
         historical buffers carry it *)
      (let tbl = Hashtbl.create 8 in
       List.iter
         (fun b ->
           if b.db_dropped > 0 then
             Hashtbl.replace tbl b.db_dom
               (b.db_dropped
               + Option.value ~default:0 (Hashtbl.find_opt tbl b.db_dom)))
         bufs;
       Hashtbl.fold (fun d n acc -> (d, n) :: acc) tbl []
       |> List.sort compare);
    sn_t0 = (match spans with [] -> 0 | s :: _ -> s.sp_t0);
  }

let reset () =
  let bufs = Mutex.protect registry_lock (fun () -> !bufs) in
  List.iter
    (fun b ->
      b.db_n <- 0;
      b.db_depth <- 0;
      b.db_stack <- [];
      b.db_dropped <- 0;
      b.db_req <- "";
      Hashtbl.reset b.db_rules)
    bufs;
  Metrics.reset ()
