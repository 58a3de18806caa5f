(* Crash flight recorder: a fixed-size ring of recent event lines per
   domain, kept in memory at a cost of one array store per note, dumped
   as a JSON post-mortem when something goes wrong (crash, SIGQUIT,
   Limit_exceeded).  The rings are domain-local (Domain.DLS, like the
   Probe buffers): recording never takes a lock; only capacity changes,
   reset and the dump itself touch the registry, and those are rare. *)

type entry = { e_ts : float; e_line : string }

type ring = {
  r_dom : int;
  mutable r_buf : entry array;
  mutable r_idx : int;  (* next write position *)
  mutable r_count : int;  (* live entries, <= capacity *)
}

let dummy = { e_ts = 0.; e_line = "" }
let enabled_flag = Atomic.make false
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag
let default_capacity = 256
let capacity = Atomic.make default_capacity
let registry_lock = Mutex.create ()
let rings : ring list ref = ref []

let ring_key : ring Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let r =
        {
          r_dom = (Domain.self () :> int);
          r_buf = Array.make (Atomic.get capacity) dummy;
          r_idx = 0;
          r_count = 0;
        }
      in
      Mutex.protect registry_lock (fun () -> rings := r :: !rings);
      r)

(* Resizes (and clears) every existing ring as well as setting the size
   for rings created later; quiescent-only, like Probe.reset. *)
let set_capacity n =
  let n = max 1 n in
  Atomic.set capacity n;
  Mutex.protect registry_lock (fun () ->
      List.iter
        (fun r ->
          r.r_buf <- Array.make n dummy;
          r.r_idx <- 0;
          r.r_count <- 0)
        !rings)

let reset () =
  Mutex.protect registry_lock (fun () ->
      List.iter
        (fun r ->
          Array.fill r.r_buf 0 (Array.length r.r_buf) dummy;
          r.r_idx <- 0;
          r.r_count <- 0)
        !rings)

let note line =
  if enabled () then begin
    let r = Domain.DLS.get ring_key in
    let cap = Array.length r.r_buf in
    r.r_buf.(r.r_idx) <- { e_ts = Unix.gettimeofday (); e_line = line };
    r.r_idx <- (r.r_idx + 1) mod cap;
    if r.r_count < cap then r.r_count <- r.r_count + 1
  end

let iso8601 t =
  let tm = Unix.gmtime t in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec
    (min 999 (int_of_float ((t -. Float.of_int (int_of_float t)) *. 1000.)))

(* Oldest-to-newest walk of one ring. *)
let entries_of r =
  let cap = Array.length r.r_buf in
  let start = if r.r_count < cap then 0 else r.r_idx in
  List.init r.r_count (fun i -> r.r_buf.((start + i) mod cap))

let dump ~reason =
  let rings = Mutex.protect registry_lock (fun () -> !rings) in
  let entries =
    List.concat_map (fun r -> List.map (fun e -> r.r_dom, e) (entries_of r)) rings
    |> List.sort (fun (_, a) (_, b) -> compare a.e_ts b.e_ts)
  in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"reason\":\"";
  Buffer.add_string b (Json.escape reason);
  Buffer.add_string b "\",\"dumped_at\":\"";
  Buffer.add_string b (iso8601 (Unix.gettimeofday ()));
  Buffer.add_string b (Printf.sprintf "\",\"pid\":%d" (Unix.getpid ()));
  (* span summaries per domain — only when the profiler has anything *)
  if Probe.enabled () then begin
    match Probe.snapshot () with
    | snap ->
      let per_dom = Hashtbl.create 8 in
      List.iter
        (fun (sp : Probe.span) ->
          Hashtbl.replace per_dom sp.Probe.sp_dom
            (1 + Option.value ~default:0 (Hashtbl.find_opt per_dom sp.Probe.sp_dom)))
        snap.Probe.sn_spans;
      let doms =
        List.sort_uniq compare
          (Hashtbl.fold (fun d _ acc -> d :: acc) per_dom []
          @ List.map fst snap.Probe.sn_dropped_by_dom)
      in
      Buffer.add_string b ",\"span_summary\":[";
      List.iteri
        (fun i d ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b
            (Printf.sprintf "{\"dom\":%d,\"spans\":%d,\"dropped\":%d}" d
               (Option.value ~default:0 (Hashtbl.find_opt per_dom d))
               (Option.value ~default:0
                  (List.assoc_opt d snap.Probe.sn_dropped_by_dom))))
        doms;
      Buffer.add_char b ']'
    | exception _ -> ()
  end;
  Buffer.add_string b ",\"entries\":[";
  List.iteri
    (fun i (dom, e) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "{\"ts\":\"%s\",\"dom\":%d,\"line\":\"%s\"}"
           (iso8601 e.e_ts) dom (Json.escape e.e_line)))
    entries;
  Buffer.add_string b "]}\n";
  Buffer.contents b

let dump_to_file ~reason path =
  match open_out path with
  | oc ->
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc (dump ~reason))
  | exception Sys_error _ -> ()
