(* Shared half of the benchmark's measuring executables (pb_prove,
   pb_lint, pb_mc, pb_serve; run.py runs them).

   Each executable links what the matching CLI binary links, so module
   initialization and interning order — and with them set-up time and the
   bytes of a certificate — are those a user of [verify], [lint],
   [attack] or [verifyd] gets.  One invocation is one fresh process doing
   one part of a workload:

     pb_prove campaign --style original|variant --seed N --t0 T [--trace]
     pb_prove certify --t0 T [--trace]
     pb_lint lint --t0 T [--trace]
     pb_mc mc --arm reduced|unreduced --t0 T [--trace]
     pb_serve serve --verifyd EXE --socket PATH --seed N --t0 T [--trace]
     ... --setup-only      stop after set-up

   [--t0] is the caller's wall clock just before it spawned the process,
   so [setup_s] covers exec, runtime start, module initialization, spec
   generation and every analysis a user pays before the first operation.
   The last line of stdout is [RESULT {json}] with the timings, the
   verdicts (checked by run.py against known_answers.json), the
   deterministic work counters and, with [--trace], the per-layer figures.

   Layers are measured from outside: by timing calls into their public
   functions, by wrapping the public [Mc.system]/[Mc.reduction] record
   fields, and (traced runs only) by switching on the existing
   [Telemetry.Probe] recording or reading the daemon's [Metrics] answer.
   Every in-process part runs on one domain ([jobs = 1]). *)

let now_ns = Telemetry.Probe.now_ns
let secs_since t = float_of_int (now_ns () - t) /. 1e9
let ms_of_ns n = float_of_int n /. 1e6

(* ------------------------------------------------------------------ *)
(* Output *)

type json =
  | F of float
  | I of int
  | S of string
  | O of (string * json) list
  | A of json list

let rec write_json buf = function
  | F f ->
    if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.17g" f)
    else Buffer.add_string buf "null"
  | I i -> Buffer.add_string buf (string_of_int i)
  | S s ->
    Buffer.add_char buf '"';
    String.iter
      (function
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'
  | A l ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        write_json buf v)
      l;
    Buffer.add_char buf ']'
  | O l ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        write_json buf (S k);
        Buffer.add_char buf ':';
        write_json buf v)
      l;
    Buffer.add_char buf '}'

(* Peak resident set of [pid] ("self" for this process), in MiB. *)
let peak_rss_mb pid =
  match In_channel.with_open_text (Printf.sprintf "/proc/%s/status" pid) In_channel.input_all with
  | text ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> float_of_string kb /. 1024.
          | [] -> acc)
        | _ -> acc)
      0. (String.split_on_char '\n' text)
  | exception Sys_error _ -> 0.

(* Words allocated so far by this domain, in millions. *)
let alloc_mwords () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words) /. 1e6

type result = {
  setup_s : float;
  wall_s : float;
  rss_mb : float;
  ops_ms : float list;  (** latency of each operation of the part *)
  verdicts : (string * string) list;  (** in operation order *)
  counters : (string * int) list;  (** deterministic work, compared exactly *)
  layers : (string * float) list;  (** per-layer figures, traced runs *)
}

let emit r =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "RESULT ";
  write_json buf
    (O
       [
         "setup_s", F r.setup_s;
         "wall_s", F r.wall_s;
         "peak_rss_mb", F r.rss_mb;
         "ops_ms", A (List.map (fun x -> F x) r.ops_ms);
         "verdicts", A (List.map (fun (k, v) -> A [ S k; S v ]) r.verdicts);
         "counters", O (List.map (fun (k, v) -> k, I v) r.counters);
         "layers", O (List.map (fun (k, v) -> k, F v) r.layers);
       ]);
  print_endline (Buffer.contents buf)

let setup_only_result setup_s =
  {
    setup_s;
    wall_s = 0.;
    rss_mb = peak_rss_mb "self";
    ops_ms = [];
    verdicts = [];
    counters = [];
    layers = [];
  }

(* ------------------------------------------------------------------ *)
(* Probe snapshot helpers (traced runs) *)

let start_recording () =
  Telemetry.Probe.reset ();
  Telemetry.Probe.set_enabled true

let stop_recording () =
  let snap = Telemetry.Probe.snapshot () in
  Telemetry.Probe.set_enabled false;
  snap

let span_sum ?(name = fun _ -> true) snap cat =
  List.fold_left
    (fun acc (s : Telemetry.Probe.span) ->
      if String.equal s.sp_cat cat && name s.sp_name then acc + s.sp_dur
      else acc)
    0 snap.Telemetry.Probe.sn_spans
  |> fun ns -> float_of_int ns /. 1e9

let probe_count snap name =
  Option.value ~default:0 (List.assoc_opt name snap.Telemetry.Probe.sn_counters)

let ratio a b = if a + b = 0 then 0. else float_of_int a /. float_of_int (a + b)

(* Rewriting-layer figures every prover-driven part reports. *)
let rewrite_layers snap =
  let open Telemetry.Probe in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 snap.sn_rules in
  let tries = sum (fun r -> r.rl_match_tries) in
  let fires = sum (fun r -> r.rl_fires) in
  let case_s = span_sum snap "case" in
  let red_s = span_sum snap "red" in
  [
    "induction.case_s", case_s;
    "rewrite.red_s", red_s;
    "prover.outside_red_s", case_s -. red_s;
    "matching.self_s", float_of_int (sum (fun r -> r.rl_match_self_ns)) /. 1e9;
    "matching.tries", float_of_int tries;
    "matching.fires", float_of_int fires;
    "rewrite.rhs_self_s", float_of_int (sum (fun r -> r.rl_rw_self_ns)) /. 1e9;
    "rewrite.cond_self_s", float_of_int (sum (fun r -> r.rl_cond_self_ns)) /. 1e9;
    "memo.hits", float_of_int (probe_count snap "kernel.memo.hits");
    "memo.misses", float_of_int (probe_count snap "kernel.memo.misses");
    "ac.backtracks", float_of_int (probe_count snap "kernel.ac.backtracks");
  ]

let median l =
  match List.sort compare l with
  | [] -> 0.
  | s ->
    let n = List.length s in
    if n mod 2 = 1 then List.nth s (n / 2)
    else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.

(* [repeat_ms n f] — median wall time of [n] calls, in ms. *)
let repeat_ms n f =
  median
    (List.init n (fun _ ->
         let t = now_ns () in
         ignore (Sys.opaque_identity (f ()));
         ms_of_ns (now_ns () - t)))

(* ------------------------------------------------------------------ *)
(* Proof campaigns (campaign and certify) *)

(* Fisher-Yates under the workload seed. *)
let shuffle seed salt l =
  let st = Random.State.make [| seed; salt |] in
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

(* Parse [PART --key value ... [--trace] [--setup-only]], run the part and
   print its record. *)
let main run =
  let part, rest =
    match Array.to_list Sys.argv with
    | _ :: p :: r -> p, r
    | _ ->
      prerr_endline "missing part";
      exit 2
  in
  let rec opts acc = function
    | (("--trace" | "--setup-only") as f) :: r -> opts ((f, "") :: acc) r
    | k :: v :: r when String.starts_with ~prefix:"--" k -> opts ((k, v) :: acc) r
    | [] -> acc
    | x :: _ ->
      prerr_endline ("bad argument " ^ x);
      exit 2
  in
  let o = opts [] rest in
  let get k =
    match List.assoc_opt k o with
    | Some v -> v
    | None ->
      prerr_endline ("missing " ^ k);
      exit 2
  in
  emit
    (run ~part ~get ~t0:(float_of_string (get "--t0"))
       ~trace:(List.mem_assoc "--trace" o)
       ~setup_only:(List.mem_assoc "--setup-only" o))
