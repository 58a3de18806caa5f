(* pb_mc — the mc workload: bounded BFS of the concrete TLS scenario,
   as [attack] runs it, under the certified reduction or unreduced (see
   bench_common.ml). *)

open Bench_common

type timer = { mutable ns : int; mutable calls : int }

let timer () = { ns = 0; calls = 0 }

let timed tm f x =
  let t = now_ns () in
  let y = f x in
  tm.ns <- tm.ns + (now_ns () - t);
  tm.calls <- tm.calls + 1;
  y

let tm_s tm = float_of_int tm.ns /. 1e9

(* Reduced searches: the depth at which the certified reduction meets
   each property (prop3' needs the resumption after a full handshake). *)
let reduced_searches scen =
  [
    "prop2'", 5, [ "cf-authentic", Tls.Concrete.prop_cf_authentic ];
    "prop3'", 7, [ "cf2-authentic", Tls.Concrete.prop_cf2_authentic ];
    ( "props1-3",
      5,
      [
        "pms-secrecy", Tls.Concrete.prop_pms_secrecy scen;
        "sf-authentic", Tls.Concrete.prop_sf_authentic;
        "sf2-authentic", Tls.Concrete.prop_sf2_authentic;
      ] );
  ]

let unreduced_searches scen =
  [
    "prop2'", 6, [ "cf-authentic", Tls.Concrete.prop_cf_authentic ];
    ( "props1-3",
      7,
      [
        "pms-secrecy", Tls.Concrete.prop_pms_secrecy scen;
        "sf-authentic", Tls.Concrete.prop_sf_authentic;
        "sf2-authentic", Tls.Concrete.prop_sf2_authentic;
      ] );
  ]

let mc ~t0 ~trace ~setup_only ~arm =
  let scen = Tls.Concrete.default_scenario () in
  let sys = Tls.Concrete.system scen in
  let t = now_ns () in
  let reduction =
    match arm with
    | "reduced" ->
      (* builds the certified reduction: the focused independence and
         the symmetry analyses of the generated theory *)
      Some (Tls.Concrete.reduction scen)
    | "unreduced" -> None
    | a -> failwith ("unknown arm " ^ a)
  in
  let reduction_setup_s = if reduction = None then 0. else secs_since t in
  let setup_s = Unix.gettimeofday () -. t0 in
  if setup_only then setup_only_result setup_s
  else begin
    let next_t = timer () and key_t = timer () and canon_t = timer () and props_t = timer () in
    let sys, reduction =
      if not trace then sys, reduction
      else
        ( { sys with Mc.next = timed next_t sys.Mc.next; key = timed key_t sys.Mc.key },
          Option.map
            (fun r -> { r with Mc.canon = timed canon_t r.Mc.canon })
            reduction )
    in
    let searches =
      if reduction = None then unreduced_searches scen else reduced_searches scen
    in
    let a0 = alloc_mwords () in
    let w = now_ns () in
    let outcomes =
      List.map
        (fun (name, depth, props) ->
          let props =
            if trace then List.map (fun (n, p) -> n, timed props_t p) props else props
          in
          let t = now_ns () in
          let o = Mc.bfs ~max_states:200_000 ~max_depth:depth ?reduction sys ~props in
          name, o, ms_of_ns (now_ns () - t))
        searches
    in
    let wall_s = secs_since w in
    let alloc = alloc_mwords () -. a0 in
    let stats = List.map (fun (_, o, _) -> Mc.outcome_stats o) outcomes in
    let total f = List.fold_left (fun acc s -> acc + f s) 0 stats in
    let elapsed = List.fold_left (fun acc s -> acc +. s.Mc.elapsed) 0. stats in
    let prefix = "mc." ^ arm ^ "." in
    let layers =
      if not trace then []
      else
        List.map
          (fun (k, v) -> prefix ^ k, v)
          [
            "concrete.next_s", tm_s next_t;
            "concrete.next_calls", float_of_int next_t.calls;
            "mc.key_s", tm_s key_t;
            "mc.key_calls", float_of_int key_t.calls;
            "symmetry.canon_s", tm_s canon_t;
            "symmetry.canon_calls", float_of_int canon_t.calls;
            "mc.props_s", tm_s props_t;
            ( "mc.search_other_s",
              elapsed -. tm_s next_t -. tm_s key_t -. tm_s canon_t -. tm_s props_t );
          ]
        @ [
            "mc.reduction_setup_s", reduction_setup_s;
            "gc.alloc_mwords", alloc;
            "unattributed_s", wall_s -. elapsed;
          ]
    in
    {
      setup_s;
      wall_s;
      rss_mb = peak_rss_mb "self";
      ops_ms = List.map (fun (_, _, ms) -> ms) outcomes;
      verdicts =
        List.map
          (fun (name, o, _) ->
            ( name,
              match o with
              | Mc.Violation _ -> "violated"
              | Mc.No_violation _ | Mc.Out_of_bounds _ -> "holds" ))
          outcomes;
      counters =
        [
          prefix ^ "mc.states", total (fun s -> s.Mc.states_explored);
          prefix ^ "mc.transitions", total (fun s -> s.Mc.transitions_fired);
          prefix ^ "mc.pruned", total (fun s -> s.Mc.states_pruned);
        ];
      layers;
    }
  end

let () =
  main (fun ~part ~get ~t0 ~trace ~setup_only ->
      match part with
      | "mc" -> mc ~t0 ~trace ~setup_only ~arm:(get "--arm")
      | p -> failwith ("unknown part " ^ p))
