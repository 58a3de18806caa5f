(* caferepl — a tiny CafeOBJ-style interpreter.

   Usage:
     caferepl file.cafe ...     evaluate files, then exit
     caferepl --trace ...       additionally print every rewrite step of
                                each red (rule label, redex position, term)
     caferepl --profile ...     record telemetry; print a hotspot report
                                (per-rule self-time) on exit
     caferepl --trace-out FILE  write a Chrome/Perfetto trace on exit
     caferepl                   interactive session (phrases end with '.';
                                'mod' blocks end with '}') *)

let process env src =
  match Cafeobj.Eval.eval_string env src with
  | outputs ->
    List.iter (Format.printf "%a@." Cafeobj.Eval.pp_output) outputs;
    true
  | exception Cafeobj.Eval.Error m ->
    Format.printf "error: %s@." m;
    false
  | exception (Kernel.Rewrite.Limit_exceeded _ as e) ->
    (* distinct from a normal result: the reduction was cut off, no
       (partial) normal form is shown *)
    Format.printf "error: %s@." (Printexc.to_string e);
    false
  | exception Cafeobj.Parser.Error m ->
    Format.printf "parse error: %s@." m;
    false
  | exception Cafeobj.Lexer.Error { line; col; message } ->
    Format.printf "lex error at line %d, col %d: %s@." line col message;
    false

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* A phrase is complete when braces balance and the last token is '.',
   '}' or 'close'. *)
let complete buffer =
  let src = Buffer.contents buffer in
  let depth = ref 0 in
  String.iter
    (fun c -> if c = '{' then incr depth else if c = '}' then decr depth)
    src;
  let trimmed = String.trim src in
  !depth <= 0
  && trimmed <> ""
  && (String.length trimmed > 0
      && (trimmed.[String.length trimmed - 1] = '.'
          || trimmed.[String.length trimmed - 1] = '}'
          || Filename.check_suffix trimmed "close"))

let repl env =
  Format.printf "mini-CafeOBJ — phrases end with '.', modules with '}'; ^D quits@.";
  let buffer = Buffer.create 256 in
  let rec loop () =
    Format.printf (if Buffer.length buffer = 0 then "> @?" else ". @?");
    match input_line stdin with
    | exception End_of_file -> ()
    | line ->
      Buffer.add_string buffer line;
      Buffer.add_char buffer '\n';
      if complete buffer then begin
        ignore (process env (Buffer.contents buffer));
        Buffer.clear buffer
      end;
      loop ()
  in
  loop ()

let () =
  let env = Cafeobj.Eval.create () in
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse files trace profile trace_out = function
    | [] -> List.rev files, trace, profile, trace_out
    | "--trace" :: rest -> parse files true profile trace_out rest
    | "--profile" :: rest -> parse files trace true trace_out rest
    | "--trace-out" :: out :: rest -> parse files trace profile out rest
    | [ "--trace-out" ] ->
      prerr_endline "caferepl: --trace-out needs a file argument";
      exit 2
    | f :: rest -> parse (f :: files) trace profile trace_out rest
  in
  let files, trace, profile, trace_out = parse [] false false "" args in
  if trace then Cafeobj.Eval.set_tracing env true;
  Telemetry.Cli.setup ~profile ~trace_out ();
  let finish () =
    Telemetry.Cli.flush ~process_name:"caferepl" ~profile ~trace_out ()
  in
  match files with
  | [] ->
    repl env;
    finish ()
  | files ->
    let ok = List.for_all (fun f -> process env (read_file f)) files in
    finish ();
    if not ok then exit 1
