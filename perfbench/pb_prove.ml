(* pb_prove — the campaign and certify workloads: the paths of
   [verify --negative] and [verify --certify], one style per process
   (see bench_common.ml). *)

open Bench_common

let style_of = function
  | "original" -> Tls.Model.Original
  | "variant" -> Tls.Model.Cf2First
  | s -> failwith ("unknown style " ^ s)

let verdict_of (r : Core.Induction.result) =
  if r.proved then "proved"
  else if
    List.exists
      (fun c ->
        match c.Core.Induction.outcome with Core.Prover.Refuted _ -> true | _ -> false)
      r.cases
  then "refuted"
  else "unknown"

let campaign_counters results =
  let cases = List.concat_map (fun r -> r.Core.Induction.cases) results in
  let stat f =
    List.fold_left
      (fun acc c -> acc + f (Core.Prover.outcome_stats c.Core.Induction.outcome))
      0 cases
  in
  [
    "prover.cases", List.length cases;
    "prover.splits", stat (fun s -> s.Core.Prover.splits);
    "rewrite.steps", stat (fun s -> s.Core.Prover.rewrite_steps);
  ]

(* Spec generation and the proof environment: what a [verify] user pays
   before the first proof (the base rewrite system is built on first use,
   as in [verify]). *)
let prepare_style style =
  let t = now_ns () in
  let spec = Tls.Model.spec style in
  let spec_s = secs_since t in
  let t = now_ns () in
  let env = Tls.Model.env style in
  let env_s = secs_since t in
  spec, env, spec_s, env_s

(* One proof after another, as [verify] without [--stats] runs them (a
   certificate records its obligations in execution order, so the order
   decides its bytes). *)
let run_proofs ~pool env proofs =
  List.map
    (fun p ->
      let t = now_ns () in
      let r = Proofs.Tls_invariants.run ~pool env p in
      r, ms_of_ns (now_ns () - t))
    proofs

let campaign ~t0 ~trace ~setup_only ~seed ~style:style_name =
  let style = style_of style_name in
  let spec, env, spec_s, env_s = prepare_style style in
  let setup_s = Unix.gettimeofday () -. t0 in
  if setup_only then setup_only_result setup_s
  else
    Sched.Pool.with_pool ~jobs:1 @@ fun pool ->
    (* the eighteen proofs and the two Section 5.3 negatives are
       independent (each case runs in its own branched environment), so
       their order is drawn from the seed *)
    let proofs =
      shuffle seed
        (match style with Tls.Model.Original -> 1 | Tls.Model.Cf2First -> 2)
        (Proofs.Tls_invariants.all style
        @ [ Proofs.Tls_invariants.prop2' style; Proofs.Tls_invariants.prop3' style ])
    in
    if trace then start_recording ();
    let a0 = alloc_mwords () in
    let w = now_ns () in
    let timed = run_proofs ~pool env proofs in
    let wall_s = secs_since w in
    let alloc = alloc_mwords () -. a0 in
    let results = List.map fst timed in
    let layers =
      if not trace then []
      else begin
        let snap = stop_recording () in
        (* one rebuild of the base system and one overlay by a ground
           rule, the two constructions every proof case and split pays *)
        let rules = Cafeobj.Spec.all_rules spec in
        let base = Core.Induction.system env in
        let c1 = Core.Induction.fresh_const env Tls.Model.protocol_sort in
        let c2 = Core.Induction.fresh_const env Tls.Model.protocol_sort in
        let ground = Kernel.Rewrite.rule ~label:"perfbench-ground" c1 c2 in
        rewrite_layers snap
        @ [
            "rewrite.make_ms", repeat_ms 5 (fun () -> Kernel.Rewrite.make rules);
            "rewrite.extend_ms", repeat_ms 5 (fun () -> Kernel.Rewrite.extend base [ ground ]);
            "specgen.spec_s", spec_s;
            "induction.env_s", env_s;
            "gc.alloc_mwords", alloc;
            "unattributed_s", wall_s -. span_sum snap "invariant";
          ]
      end
    in
    {
      setup_s;
      wall_s;
      rss_mb = peak_rss_mb "self";
      ops_ms = List.map snd timed;
      verdicts =
        List.map (fun (r, _) -> r.Core.Induction.res_invariant, verdict_of r) timed;
      counters = campaign_counters results;
      layers;
    }

(* The [verify --certify] path: the Original campaign under the global
   tracer, then every stage of the certificate pipeline, each timed at its
   public entry point. *)
let certify ~t0 ~trace ~setup_only =
  let spec, env, _, _ = prepare_style Tls.Model.Original in
  let setup_s = Unix.gettimeofday () -. t0 in
  if setup_only then setup_only_result setup_s
  else
    Sched.Pool.with_pool ~jobs:1 @@ fun pool ->
    if trace then start_recording ();
    let a0 = alloc_mwords () in
    let w = now_ns () in
    let phases = ref [] in
    let phase name f =
      let t = now_ns () in
      let x = f () in
      phases := (name, secs_since t) :: !phases;
      x
    in
    let tr = Kernel.Rewrite.tracer () in
    let timed =
      phase "certify.traced_campaign_s" (fun () ->
          Kernel.Rewrite.set_tracer (Some tr);
          Fun.protect
            ~finally:(fun () -> Kernel.Rewrite.set_tracer None)
            (fun () ->
              run_proofs ~pool env (Proofs.Tls_invariants.all Tls.Model.Original)))
    in
    let b = Analysis.Certgen.create () in
    phase "certgen.obligations_s" (fun () ->
        Analysis.Certgen.add_obligations b (Kernel.Rewrite.obligations tr));
    let rules = Cafeobj.Spec.all_rules spec in
    let lpo_ok =
      phase "termination.lpo_s" (fun () ->
          let term = Analysis.Termination.check spec in
          if term.Analysis.Termination.certified then
            Analysis.Certgen.add_lpo b
              ~precedence:term.Analysis.Termination.search.Kernel.Order.precedence rules;
          term.Analysis.Termination.certified)
    in
    let conf =
      phase "confluence.certs_s" (fun () ->
          Analysis.Confluence.check ~pool ~certify:true spec)
    in
    let cert =
      phase "certgen.joins_s" (fun () ->
          Analysis.Certgen.add_joins b ~rules conf.Analysis.Confluence.certs;
          Analysis.Certgen.cert b)
    in
    let text = phase "cert.serialize_s" (fun () -> Certify.Cert.to_string cert) in
    let parsed = phase "cert.parse_s" (fun () -> Certify.Cert.of_string text) in
    let check =
      match parsed with
      | Error _ -> None
      | Ok c -> Some (phase "certify.check_s" (fun () -> Analysis.Certgen.check ~pool c))
    in
    let wall_s = secs_since w in
    let alloc = alloc_mwords () -. a0 in
    let results = List.map fst timed in
    let accepted, obligations, replayed =
      match check with
      | Some c ->
        ( c.Analysis.Certgen.errors = [],
          c.Analysis.Certgen.obligations,
          c.Analysis.Certgen.steps_replayed )
      | None -> false, 0, 0
    in
    let layers =
      if not trace then []
      else begin
        let snap = stop_recording () in
        List.rev !phases
        @ [
            "gc.alloc_mwords", alloc;
            "unattributed_s", wall_s -. List.fold_left (fun a (_, s) -> a +. s) 0. !phases;
          ]
        @ rewrite_layers snap
      end
    in
    {
      setup_s;
      wall_s;
      rss_mb = peak_rss_mb "self";
      ops_ms = List.map snd timed;
      verdicts =
        List.map (fun (r, _) -> r.Core.Induction.res_invariant, verdict_of r) timed
        @ [
            "lpo", (if lpo_ok then "certified" else "failed");
            "certificate", (if accepted then "accepted" else "rejected");
            "parse", (match parsed with Ok _ -> "ok" | Error _ -> "error");
          ];
      counters =
        campaign_counters results
        @ [
            "cert.obligations", obligations;
            "cert.steps_replayed", replayed;
            "cert.bytes", String.length text;
          ];
      layers;
    }

let () =
  main (fun ~part ~get ~t0 ~trace ~setup_only ->
      match part with
      | "campaign" ->
        campaign ~t0 ~trace ~setup_only ~seed:(int_of_string (get "--seed")) ~style:(get "--style")
      | "certify" -> certify ~t0 ~trace ~setup_only
      | p -> failwith ("unknown part " ^ p))
