(* pb_serve — the serve workload: a fresh [verifyd --jobs 1] driven
   closed-loop over one connection (see bench_common.ml). *)

open Bench_common

module P = Server.Protocol

(* A blocking closed-loop client over one connection, the same exchange
   as [Server.Client.request]; the codec calls are timed separately in
   traced runs. *)
type client = {
  fd : Unix.file_descr;
  trace : bool;
  mutable encode_ns : int list;
  mutable decode_ns : int list;
}

let request c req =
  let t = now_ns () in
  let payload = P.encode_request req in
  if c.trace then c.encode_ns <- (now_ns () - t) :: c.encode_ns;
  P.Frame.write c.fd payload;
  let rec loop acc =
    match P.Frame.read c.fd with
    | Error msg -> failwith ("protocol error: " ^ msg)
    | Ok None -> failwith "verifyd closed the connection"
    | Ok (Some payload) -> (
      let t = now_ns () in
      let resp = P.decode_response payload in
      if c.trace then c.decode_ns <- (now_ns () - t) :: c.decode_ns;
      match resp with
      | Error msg -> failwith ("protocol error: " ^ msg)
      | Ok (P.Done { exit_code }) -> List.rev acc, exit_code
      | Ok r -> loop (r :: acc))
  in
  loop []

let connect socket ~deadline =
  let rec go () =
    let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
    match Unix.connect fd (ADDR_UNIX socket) with
    | () -> fd
    | exception Unix.Unix_error ((ENOENT | ECONNREFUSED), _, _)
      when Unix.gettimeofday () < deadline ->
      Unix.close fd;
      Unix.sleepf 0.002;
      go ()
  in
  go ()

(* Spawn [verifyd --jobs 1] and wait for its first [Pong]: the daemon
   binds before it builds its resident environments, so the answer marks
   the end of set-up. *)
let spawn_daemon ~verifyd ~socket =
  let devnull = Unix.openfile "/dev/null" [ O_WRONLY ] 0 in
  let pid =
    Unix.create_process verifyd
      [| verifyd; "--socket"; socket; "--jobs"; "1"; "--no-flight"; "--idle-timeout"; "0" |]
      Unix.stdin devnull devnull
  in
  Unix.close devnull;
  let fd = connect socket ~deadline:(Unix.gettimeofday () +. 120.) in
  let c = { fd; trace = false; encode_ns = []; decode_ns = [] } in
  (match request c P.Ping with
  | [ P.Pong _ ], 0 -> ()
  | _ -> failwith "unexpected answer to ping");
  pid, c

let stop_daemon pid c =
  ignore (request c P.Shutdown);
  Unix.close c.fd;
  ignore (Unix.waitpid [] pid)

(* The request mix.  Every verify obligation is asked [repeats] times, so
   all but its first ask are answered from the daemon's registry; the
   negatives ride on an [inv1] request (the protocol has no way to ask
   for them alone).  Each spec file is evaluated once: an eval is always
   computed afresh. *)
type kind = Verify | Eval | Secrecy

let kind_name = function Verify -> "verify" | Eval -> "eval" | Secrecy -> "secrecy"

let eval_files =
  [
    "specs/bool_demo.cafe"; "specs/lock.cafe"; "specs/peano.cafe"; "specs/leaky.cafe";
    "specs/tls_handshake.cafe"; "specs/tls_variant.cafe";
  ]

let repeats = 30

let request_mix () =
  let styles = [ P.Original, Tls.Model.Original; P.Variant, Tls.Model.Cf2First ] in
  let verify =
    List.concat_map
      (fun (ws, ms) ->
        let names = List.map Proofs.Tls_invariants.name_of (Proofs.Tls_invariants.all ms) in
        let one name negative =
          ( Printf.sprintf "verify:%s:%s%s" (P.style_name ws) name
              (if negative then "+negatives" else ""),
            Verify,
            P.Verify
              { style = ws; only = [ name ]; negative; extensions = false; certify = false } )
        in
        one "inv1" true :: List.map (fun n -> one n false) names)
      styles
  in
  let secrecy =
    List.map
      (fun (ws, _) -> "secrecy:" ^ P.style_name ws, Secrecy, P.Secrecy { style = ws })
      styles
  in
  let evals =
    List.map
      (fun f ->
        ( "eval:" ^ Filename.basename f,
          Eval,
          P.Eval
            {
              src = In_channel.with_open_bin f In_channel.input_all;
              step_limit = None;
              deadline_s = None;
            } ))
      eval_files
  in
  List.concat_map (fun r -> List.init repeats (fun _ -> r)) (verify @ secrecy) @ evals

(* What a response stream says, reduced to what known_answers.json pins. *)
let summarize_responses = function
  | P.Rverdict _ :: _ as rs ->
    String.concat ","
      (List.filter_map
         (function
           | P.Rverdict v -> Some (v.P.v_name ^ "=" ^ if v.P.v_proved then "proved" else "refuted")
           | _ -> None)
         rs)
  | [ P.Rsecrecy { verdict; _ } ] -> verdict
  | P.Reval _ :: _ as rs ->
    String.concat "\n" (List.filter_map (function P.Reval { text } -> Some text | _ -> None) rs)
  | P.Rerror { code; msg } :: _ -> "error:" ^ code ^ ":" ^ msg
  | P.Rtimeout { name; _ } :: _ -> "timeout:" ^ name
  | _ -> "unexpected"

let pctl p l =
  match List.sort compare l with
  | [] -> 0.
  | s ->
    let n = List.length s in
    List.nth s (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1 |> max 0))

let serve ~t0 ~trace ~setup_only ~seed ~verifyd ~socket =
  let pid, c = spawn_daemon ~verifyd ~socket in
  let setup_s = Unix.gettimeofday () -. t0 in
  if setup_only then begin
    let rss = peak_rss_mb (string_of_int pid) in
    stop_daemon pid c;
    { (setup_only_result setup_s) with rss_mb = rss }
  end
  else begin
    let c = { c with trace } in
    let mix = shuffle seed 3 (request_mix ()) in
    let seen = Hashtbl.create 64 in
    let w = now_ns () in
    let samples =
      List.map
        (fun (key, kind, req) ->
          (* verify and secrecy answers are cached after the first ask;
             evals are computed every time *)
          let cold = kind = Eval || not (Hashtbl.mem seen key) in
          Hashtbl.replace seen key ();
          let t = now_ns () in
          let responses, code = request c req in
          let ms = ms_of_ns (now_ns () - t) in
          (* a verify asking for the negatives exits 1: they are refuted *)
          let answer =
            if code = 0 || kind = Verify then summarize_responses responses
            else "exit:" ^ string_of_int code
          in
          key, kind, cold, ms, answer)
        mix
    in
    let wall_s = secs_since w in
    let metrics, _ = request c P.Metrics in
    let rss = peak_rss_mb (string_of_int pid) in
    stop_daemon pid c;
    let cold = List.filter_map (fun (_, _, cd, ms, _) -> if cd then Some ms else None) samples in
    let warm = List.filter_map (fun (_, _, cd, ms, _) -> if cd then None else Some ms) samples in
    let counters, histograms =
      match metrics with
      | [ P.Rmetrics { counters; histograms; _ } ] -> counters, histograms
      | _ -> [], []
    in
    (* a histogram is [count; sum_ms; p50; p90; p99; max_ms] *)
    let hist i kind =
      match List.assoc_opt ("server.request_latency." ^ kind_name kind) histograms with
      | Some a when Array.length a > i -> a.(i)
      | _ -> 0.
    in
    let warm_verify_p50 =
      median
        (List.filter_map
           (fun (_, kind, cd, ms, _) -> if kind = Verify && not cd then Some ms else None)
           samples)
    in
    let us l = median (List.map (fun n -> float_of_int n /. 1e3) l) in
    let layers =
      if not trace then []
      else
        [
          "serve.cold_p50_ms", median cold;
          "serve.warm_p50_ms", median warm;
          "serve.warm_p99_ms", pctl 0.99 warm;
          "serve.warm_samples", float_of_int (List.length warm);
        ]
        @ List.map
            (fun k -> "server.side_p50_ms." ^ kind_name k, hist 2 k)
            [ Verify; Eval; Secrecy ]
        @ [
            "socket.overhead_p50_ms", warm_verify_p50 -. hist 2 Verify;
            "protocol.encode_us", us c.encode_ns;
            "protocol.decode_us", us c.decode_ns;
            ( "registry.hit_ratio",
              let v k = Option.value ~default:0 (List.assoc_opt k counters) in
              ratio (v "server.dedup.hits") (v "server.dedup.misses") );
            (* all the daemon's time on evals, each elaborated afresh *)
            "eval.server_ms", hist 1 Eval;
            (* client time outside any request round trip *)
            ( "unattributed_s",
              wall_s
              -. (List.fold_left (fun acc (_, _, _, ms, _) -> acc +. ms) 0. samples /. 1e3) );
          ]
    in
    {
      setup_s;
      wall_s;
      rss_mb = rss;
      ops_ms = List.map (fun (_, _, _, ms, _) -> ms) samples;
      verdicts = List.map (fun (key, _, _, _, v) -> key, v) samples;
      counters =
        [
          "serve.requests", List.length samples;
          "serve.cold_requests", List.length cold;
        ];
      layers;
    }
  end

let () =
  main (fun ~part ~get ~t0 ~trace ~setup_only ->
      match part with
      | "serve" ->
        serve ~t0 ~trace ~setup_only ~seed:(int_of_string (get "--seed"))
          ~verifyd:(get "--verifyd") ~socket:(get "--socket")
      | p -> failwith ("unknown part " ^ p))
