(* pb_lint — the lint workload: every checker of [lint] on the shipped
   and generated specs (see bench_common.ml). *)

open Bench_common

(* The spec files shipped with the repository, linted one file per call
   as [lint FILE] would; the two exported TLS modules are covered by the
   generated TLS pass below. *)
let lint_files =
  [ "specs/bool_demo.cafe"; "specs/lock.cafe"; "specs/peano.cafe"; "specs/leaky.cafe" ]

(* Independence over the full TLS module takes the better part of a
   minute; the lint pass over it runs every other checker, and the
   independence checker's own entry point runs on the pairs touching
   these actions (the client side of the full handshake). *)
let indep_focus = [ "chello"; "cfin"; "compl" ]

let lint ~t0 ~trace ~setup_only =
  let tls = Tls.Model.spec Tls.Model.Original in
  let nspk = Nspk.Symbolic.spec in
  List.iter (fun f -> if not (Sys.file_exists f) then failwith ("missing " ^ f)) lint_files;
  let setup_s = Unix.gettimeofday () -. t0 in
  if setup_only then setup_only_result setup_s
  else
    Sched.Pool.with_pool ~jobs:1 @@ fun pool ->
    let opts = Analysis.Lint.default_options in
    let passes =
      List.map (fun f -> f, opts, Analysis.Lint.File f) lint_files
      @ [
          ( "generated:nspk",
            opts,
            Analysis.Lint.Generated { label = "generated:nspk"; spec = nspk } );
          ( "generated:tls",
            { opts with Analysis.Lint.skip = [ "independence" ] },
            Analysis.Lint.Generated { label = "generated:tls"; spec = tls } );
        ]
    in
    if trace then start_recording ();
    let a0 = alloc_mwords () in
    let w = now_ns () in
    let reports =
      List.map
        (fun (label, opts, src) ->
          let t = now_ns () in
          let r = Analysis.Lint.run ~pool ~opts [ src ] in
          label, r, ms_of_ns (now_ns () - t))
        passes
    in
    let t = now_ns () in
    let indep = Analysis.Indep.analyze ~pool ~focus:indep_focus tls in
    let indep_ms = ms_of_ns (now_ns () - t) in
    let wall_s = secs_since w in
    let alloc = alloc_mwords () -. a0 in
    let modules = List.concat_map (fun (_, r, _) -> r.Analysis.Lint.modules) reports in
    let tls_mod =
      List.find (fun m -> m.Analysis.Lint.m_source = "generated:tls") modules
    in
    let sum f = List.fold_left (fun acc m -> acc + Option.value ~default:0 (f m)) 0 modules in
    let ipairs, itotal, iclaims =
      match indep with
      | None -> 0, 0, 0
      | Some r ->
        ( r.Analysis.Indep.r_independent,
          r.Analysis.Indep.r_total,
          List.fold_left
            (fun acc p -> acc + List.length p.Analysis.Indep.p_claims)
            0 r.Analysis.Indep.r_pairs )
    in
    let layers =
      if not trace then []
      else begin
        let snap = stop_recording () in
        let per_checker =
          List.map
            (fun c ->
              ( "lint." ^ c ^ "_s",
                span_sum snap "lint" ~name:(fun n ->
                    String.length n > String.length c
                    && String.sub n 0 (String.length c + 1) = c ^ ":") ))
            Analysis.Lint.checkers
        in
        (* the coverage checker records no span: time its entry point on
           each file's parsed program; the direct independence call is
           attributed to its checker *)
        let coverage_s =
          List.fold_left
            (fun acc f ->
              let program =
                Cafeobj.Parser.parse_string (In_channel.with_open_bin f In_channel.input_all)
              in
              let t = now_ns () in
              ignore (Sys.opaque_identity (Analysis.Coverage.check program));
              acc +. secs_since t)
            0. lint_files
        in
        let per_checker =
          List.map
            (fun (k, v) ->
              match k with
              | "lint.independence_s" -> k, v +. (indep_ms /. 1e3)
              | "lint.coverage_s" -> k, coverage_s
              | _ -> k, v)
            per_checker
        in
        let passes_s =
          List.fold_left (fun acc (_, _, ms) -> acc +. (ms /. 1e3)) 0. reports
        in
        let rules = Cafeobj.Spec.all_rules tls in
        let t = now_ns () in
        ignore (Sys.opaque_identity (Kernel.Completion.all_critical_pairs rules));
        let overlaps_s = secs_since t in
        let lint_s = span_sum snap "lint" in
        per_checker
        @ [
            (* elaboration, coverage and orchestration inside [Lint.run] *)
            "lint.load_s", passes_s -. lint_s;
            "completion.overlaps_s", overlaps_s;
            "secrecy.horn_clauses", float_of_int (probe_count snap "secrecy.horn_clauses");
            "gc.alloc_mwords", alloc;
            "unattributed_s", wall_s -. passes_s -. (indep_ms /. 1e3);
          ]
      end
    in
    {
      setup_s;
      wall_s;
      rss_mb = peak_rss_mb "self";
      ops_ms = List.map (fun (_, _, ms) -> ms) reports @ [ indep_ms ];
      verdicts =
        List.map (fun (l, r, _) -> "errors:" ^ l, string_of_int r.Analysis.Lint.errors) reports
        @ [
            "secrecy:generated:tls", Option.value ~default:"skipped" tls_mod.m_secrecy;
            ( "terminating:generated:tls",
              match tls_mod.m_terminating with Some b -> string_of_bool b | None -> "skipped" );
            ( "joinable:generated:tls",
              match tls_mod.m_joinable with Some b -> string_of_bool b | None -> "skipped" );
            "independence:generated:tls", (if indep = None then "none" else "analyzed");
          ];
      counters =
        [
          "confluence.critical_pairs", sum (fun m -> m.Analysis.Lint.m_pairs);
          "indep.action_pairs", itotal;
          "indep.independent_pairs", ipairs;
          "indep.claims", iclaims;
          ( "lint.diagnostics",
            List.fold_left
              (fun acc (_, r, _) -> acc + List.length r.Analysis.Lint.diagnostics)
              0 reports );
        ];
      layers;
    }

let () =
  main (fun ~part ~get:_ ~t0 ~trace ~setup_only ->
      match part with
      | "lint" -> lint ~t0 ~trace ~setup_only
      | p -> failwith ("unknown part " ^ p))
