(* Registry of named instruments.  Registration is rare (module init /
   first use) and guarded by one mutex; the hot paths — incr, add,
   observe — touch only their own Atomic cells. *)

type counter = int Atomic.t

(* 25 log2 buckets starting at 10 µs, plus one overflow bucket. *)
let nbuckets = 25
let base_ns = 10_000

type histogram = {
  cells : int Atomic.t array;  (* nbuckets + 1, last = overflow *)
  sum_ns : int Atomic.t;
  max_ns : int Atomic.t;
}

let registry_lock = Mutex.create ()
let counters : (string, counter) Hashtbl.t = Hashtbl.create 16
let gauges : (string, float ref) Hashtbl.t = Hashtbl.create 16
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 16

let with_lock f =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) f

let counter name =
  with_lock @@ fun () ->
  match Hashtbl.find_opt counters name with
  | Some c -> c
  | None ->
    let c = Atomic.make 0 in
    Hashtbl.add counters name c;
    c

let incr c = Atomic.incr c
let add c n = ignore (Atomic.fetch_and_add c n)
let value c = Atomic.get c

let rec record_max cell v =
  let cur = Atomic.get cell in
  if v <= cur then ()
  else if Atomic.compare_and_set cell cur v then ()
  else record_max cell v

let set_gauge name v =
  with_lock @@ fun () ->
  match Hashtbl.find_opt gauges name with
  | Some r -> r := v
  | None -> Hashtbl.add gauges name (ref v)

let histogram name =
  with_lock @@ fun () ->
  match Hashtbl.find_opt histograms name with
  | Some h -> h
  | None ->
    let h =
      {
        cells = Array.init (nbuckets + 1) (fun _ -> Atomic.make 0);
        sum_ns = Atomic.make 0;
        max_ns = Atomic.make 0;
      }
    in
    Hashtbl.add histograms name h;
    h

let bucket_of_ns ns =
  let rec go i bound =
    if i >= nbuckets then nbuckets
    else if ns <= bound then i
    else go (i + 1) (bound * 2)
  in
  go 0 base_ns

let bucket_bound_ns i = base_ns * (1 lsl i)

let observe_ns h ns =
  let ns = max 0 ns in
  Atomic.incr h.cells.(bucket_of_ns ns);
  ignore (Atomic.fetch_and_add h.sum_ns ns);
  record_max h.max_ns ns

let observe_s h dt = observe_ns h (int_of_float (dt *. 1e9))

type histogram_view = {
  h_name : string;
  h_count : int;
  h_sum_ms : float;
  h_p50_ms : float;
  h_p90_ms : float;
  h_p99_ms : float;
  h_max_ms : float;
  h_buckets : int array;  (* nbuckets + 1 raw (non-cumulative) counts *)
  h_sum_ns : int;
}

type snapshot = {
  m_counters : (string * int) list;
  m_gauges : (string * float) list;
  m_histograms : histogram_view list;
}

let ms_of_ns ns = float_of_int ns /. 1e6

(* Quantile = upper bound of the first bucket whose cumulative count
   reaches q × total; the overflow bucket reports the observed max. *)
let quantile counts total q =
  let target = int_of_float (ceil (q *. float_of_int total)) in
  let rec go i acc =
    if i > nbuckets then nbuckets
    else
      let acc = acc + counts.(i) in
      if acc >= target then i else go (i + 1) acc
  in
  go 0 0

let view name h =
  let counts = Array.map Atomic.get h.cells in
  let total = Array.fold_left ( + ) 0 counts in
  let max_ms = ms_of_ns (Atomic.get h.max_ns) in
  let q p =
    if total = 0 then 0.
    else
      let b = quantile counts total p in
      if b >= nbuckets then max_ms else ms_of_ns (bucket_bound_ns b)
  in
  {
    h_name = name;
    h_count = total;
    h_sum_ms = ms_of_ns (Atomic.get h.sum_ns);
    h_p50_ms = q 0.50;
    h_p90_ms = q 0.90;
    h_p99_ms = q 0.99;
    h_max_ms = max_ms;
    h_buckets = counts;
    h_sum_ns = Atomic.get h.sum_ns;
  }

let sorted_bindings tbl f =
  Hashtbl.fold (fun k v acc -> (k, f k v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let snapshot () =
  with_lock @@ fun () ->
  {
    m_counters = sorted_bindings counters (fun _ c -> Atomic.get c);
    m_gauges = sorted_bindings gauges (fun _ r -> !r);
    m_histograms = List.map snd (sorted_bindings histograms view);
  }

let reset () =
  with_lock @@ fun () ->
  Hashtbl.iter (fun _ c -> Atomic.set c 0) counters;
  Hashtbl.reset gauges;
  Hashtbl.iter
    (fun _ h ->
      Array.iter (fun c -> Atomic.set c 0) h.cells;
      Atomic.set h.sum_ns 0;
      Atomic.set h.max_ns 0)
    histograms
