(* Differential test: every spec in specs/ runs three times — through the
   seed engine's path ([Rewrite.normalize_uncached], private per-call memo),
   through the shared generation-stamped memo ([Rewrite.normalize]) and
   through the traced engine ([Rewrite.normalize_traced], derivation memo).
   All three must produce identical outputs phrase by phrase: the same
   normal forms, the same verify verdicts, and memoized or traced step
   counts never above the uncached engine's (a memo can only skip work,
   not add it). *)

open Cafeobj

let spec_dir () =
  let candidates = [ "../specs"; "../../specs"; "specs"; "../../../specs" ] in
  match List.find_opt Sys.file_exists candidates with
  | Some dir -> dir
  | None -> Alcotest.fail "specs directory not found"

let all_specs () =
  let dir = spec_dir () in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".cafe")
  |> List.sort compare
  |> List.map (fun f -> f, Filename.concat dir f)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* A digest of one toplevel output that both engines must agree on. *)
type obs =
  | ODefined of string
  | OReduced of { input : string; nf : string; verdict : bool; steps : int }
  | OOpened of string
  | OClosed
  | OShown

let observe = function
  | Eval.Defined name -> ODefined name
  | Eval.Reduced r ->
    OReduced
      {
        input = Kernel.Term.to_string r.Eval.input;
        nf = Kernel.Term.to_string r.Eval.normal_form;
        verdict = Kernel.Term.equal r.Eval.normal_form Kernel.Term.tt;
        steps = r.Eval.steps;
      }
  | Eval.Opened name -> OOpened name
  | Eval.Closed -> OClosed
  | Eval.Shown _ -> OShown

(* The two protocol theories ship as pure module definitions (their [red]s
   live in the verify campaign), so the differential run appends a proof
   passage reducing representative observations over a one-step reachable
   state.  [mod_name] is read back from the source so the driver follows a
   renamed module. *)
let driver_for src =
  if
    String.split_on_char '\n' src
    |> List.exists (fun l -> String.length (String.trim l) >= 3
                             && String.sub (String.trim l) 0 3 = "red")
  then ""
  else
    let mod_name =
      String.split_on_char '\n' src
      |> List.find_map (fun l ->
             match String.split_on_char ' ' (String.trim l) with
             | "mod" :: name :: _ -> Some name
             | _ -> None)
    in
    match mod_name with
    | None -> Alcotest.fail "spec defines no module and performs no red"
    | Some m ->
      Printf.sprintf
        {|
open %s
op dxa : -> Prin { ctor } .
op dxb : -> Prin { ctor } .
op dxr : -> Rand { ctor } .
op dxc : -> Choice { ctor } .
red msg-in(ch(dxa, dxa, dxb, dxr, lcons(dxc, lnil)),
           nw(chello(tls-init, dxa, dxb, dxr, lcons(dxc, lnil)))) .
red rand-in(dxr, ur(chello(tls-init, dxa, dxb, dxr, lcons(dxc, lnil)))) .
red rand-in(dxr, ur(tls-init)) .
close
|}
        m

let run ?(traced = false) ~uncached src =
  let env = Eval.create () in
  Eval.set_uncached env uncached;
  Eval.set_tracing env traced;
  List.map observe (Eval.eval_string env (src ^ driver_for src))

let check_spec (file, path) () =
  let src = read_file path in
  let old_path = run ~uncached:true src in
  List.iter
    (fun (name, new_path) ->
      Alcotest.(check int)
        (Printf.sprintf "%s: same number of outputs (%s)" file name)
        (List.length old_path) (List.length new_path);
      let reds = ref 0 in
      List.iteri
        (fun i (o, m) ->
          let at what =
            Printf.sprintf "%s phrase %d: %s (%s)" file (i + 1) what name
          in
          match o, m with
          | OReduced o, OReduced m ->
            incr reds;
            Alcotest.(check string) (at "input") o.input m.input;
            Alcotest.(check string) (at "normal form") o.nf m.nf;
            Alcotest.(check bool) (at "verdict") o.verdict m.verdict;
            (* A memo can only save rewrite steps, never add them. *)
            if m.steps > o.steps then
              Alcotest.failf "%s: %s path used %d steps, uncached used %d"
                (at "steps") name m.steps o.steps
          | ODefined a, ODefined b -> Alcotest.(check string) (at "defined") a b
          | OOpened a, OOpened b -> Alcotest.(check string) (at "opened") a b
          | OClosed, OClosed | OShown, OShown -> ()
          | _ -> Alcotest.failf "%s" (at "output kinds diverge"))
        (List.combine old_path new_path);
      Alcotest.(check bool) (file ^ ": exercises red") true (!reds > 0))
    [
      "memoized", run ~uncached:false src;
      "traced", run ~traced:true ~uncached:false src;
    ]

let test_coverage () =
  (* The differential suite must cover every spec shipped in specs/ — if a
     spec is added, it is picked up automatically; this guards against the
     directory moving out from under the globs. *)
  let names = List.map fst (all_specs ()) in
  Alcotest.(check bool) "at least the five seed specs" true (List.length names >= 5);
  List.iter
    (fun expected ->
      Alcotest.(check bool) ("covers " ^ expected) true (List.mem expected names))
    [
      "bool_demo.cafe"; "lock.cafe"; "peano.cafe"; "tls_handshake.cafe";
      "tls_variant.cafe";
    ]

let suite =
  ( "differential",
    Alcotest.test_case "covers all specs" `Quick test_coverage
    :: List.map
         (fun spec ->
           Alcotest.test_case ("memo vs uncached: " ^ fst spec) `Quick
             (check_spec spec))
         (all_specs ()) )
