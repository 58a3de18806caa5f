(* Certificate round-trip and adversarial-tampering tests: a valid traced
   campaign must check, and every forged certificate — wrong rule, wrong
   position, wrong substitution, skipped condition discharge, bogus AC
   permutation, reversed LPO precedence — must be rejected with a
   positioned diagnostic. *)

open Kernel
module C = Certify.Cert

let nat = Sort.visible "TcNat"
let sg = Signature.create ()
let zop = Signature.declare sg "tcZ" [] nat ~attrs:[ Signature.Ctor ]
let sop = Signature.declare sg "tcS" [ nat ] nat ~attrs:[ Signature.Ctor ]
let plusop = Signature.declare sg "tcP" [ nat; nat ] nat ~attrs:[]
let uop = Signature.declare sg "tcU" [ nat; nat ] nat ~attrs:[ Signature.Ac ]
let iszop = Signature.declare sg "tcIsz" [ nat ] Sort.bool ~attrs:[]
let gateop = Signature.declare sg "tcGate" [ nat ] nat ~attrs:[]
let caop = Signature.declare sg "tcA" [] nat ~attrs:[ Signature.Ctor ]
let cbop = Signature.declare sg "tcB" [] nat ~attrs:[ Signature.Ctor ]
let ccop = Signature.declare sg "tcC" [] nat ~attrs:[ Signature.Ctor ]
let z = Term.const zop
let s t = Term.app sop [ t ]
let plus a b = Term.app plusop [ a; b ]
let u a b = Term.app uop [ a; b ]
let isz t = Term.app iszop [ t ]
let gate t = Term.app gateop [ t ]
let vM = Term.var "M" nat
let vN = Term.var "N" nat

let rules =
  [
    Rewrite.rule ~label:"tc-p0" (plus z vN) vN;
    Rewrite.rule ~label:"tc-ps" (plus (s vM) vN) (s (plus vM vN));
    Rewrite.rule ~label:"tc-isz" (isz z) Term.tt;
    Rewrite.rule ~cond:(isz vN) ~label:"tc-gate" (gate vN) z;
  ]

(* Trace three reductions: a two-step [plus], a pure AC reorder (records a
   permutation, no rule step) and a conditional rule discharge. *)
let traced_cert () =
  let sys = Rewrite.make rules in
  let tr = Rewrite.tracer () in
  Rewrite.set_tracer (Some tr);
  Fun.protect ~finally:(fun () -> Rewrite.set_tracer None) @@ fun () ->
  ignore (Rewrite.normalize sys (plus (s z) (s (s z))));
  ignore (Rewrite.normalize sys (u (Term.const ccop) (u (Term.const caop) (Term.const cbop))));
  ignore (Rewrite.normalize sys (gate z));
  let b = Analysis.Certgen.create () in
  Analysis.Certgen.add_obligations b (Rewrite.obligations tr);
  Analysis.Certgen.cert b

let check_errors cert = Certify.Check.create cert |> Certify.Check.check_all

let expect_reject what cert ~path ~msg =
  match check_errors cert with
  | [] -> Alcotest.failf "%s: tampered certificate was accepted" what
  | e :: _ ->
    let contains hay needle =
      let lh = String.length hay and ln = String.length needle in
      let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
      ln = 0 || go 0
    in
    if not (contains e.Certify.Check.e_path path) then
      Alcotest.failf "%s: diagnostic path %S does not mention %S" what
        e.Certify.Check.e_path path;
    if not (contains e.Certify.Check.e_msg msg) then
      Alcotest.failf "%s: diagnostic %S does not mention %S" what
        e.Certify.Check.e_msg msg

(* Rebuild the cert with red number [i]'s derivation transformed. *)
let tamper_red cert i f =
  {
    cert with
    C.reds =
      List.mapi
        (fun j (r : C.red) -> if i = j then { r with C.red_deriv = f r.red_deriv } else r)
        cert.C.reds;
  }

(* [App] carries an inlined record, so the rebuild has to happen inside
   the match: [f] maps the (children, perm, step) triple. *)
let map_root_app what (d : C.deriv) f =
  match d.C.d_node with
  | C.App { children; perm; step } ->
    let children, perm, step = f children perm step in
    { d with C.d_node = C.App { children; perm; step } }
  | C.Triv -> Alcotest.failf "%s: expected an app derivation at the root" what

let map_root_step what (d : C.deriv) f =
  map_root_app what d (fun children perm step ->
      match step with
      | Some st -> (children, perm, f st)
      | None -> Alcotest.failf "%s: expected a rule step at the root" what)

(* ------------------------------------------------------------------ *)

let test_valid_cert () =
  let cert = traced_cert () in
  Alcotest.(check int) "three obligations" 3 (List.length cert.C.reds);
  (match check_errors cert with
  | [] -> ()
  | e :: _ ->
    Alcotest.failf "valid certificate rejected: %s: %s" e.Certify.Check.e_path
      e.Certify.Check.e_msg);
  let ck = Certify.Check.create cert in
  ignore (Certify.Check.check_all ck);
  Alcotest.(check bool) "steps were replayed" true (Certify.Check.steps_validated ck >= 3)

let test_roundtrip () =
  let cert = traced_cert () in
  let text = C.to_string cert in
  match C.of_string text with
  | Error m -> Alcotest.failf "serialized certificate does not parse: %s" m
  | Ok cert' ->
    Alcotest.(check bool) "round-trip is identical" true (C.equal cert cert');
    Alcotest.(check int) "round-tripped cert checks" 0 (List.length (check_errors cert'))

let test_tamper_wrong_rule () =
  let cert = traced_cert () in
  let other =
    match
      List.find_opt
        (fun (r : C.rule) -> r.C.r_label = "tc-isz")
        (List.hd cert.C.reds).C.red_rset.C.rs_rules
    with
    | Some r -> r
    | None -> Alcotest.fail "fixture rule tc-isz not in rule set"
  in
  (* make the plus step claim it used tc-isz *)
  let wrong =
    tamper_red cert 0 (fun d ->
        map_root_step "wrong-rule" d (fun st -> Some { st with C.s_rule = other }))
  in
  expect_reject "wrong-rule" wrong ~path:"red r0" ~msg:"does not match the redex"

let test_tamper_wrong_position () =
  let cert = traced_cert () in
  (* swap the argument derivations: each now starts at the other argument *)
  let wrong =
    tamper_red cert 0 (fun d ->
        map_root_app "wrong-position" d (fun children perm step ->
            (List.rev children, perm, step)))
  in
  expect_reject "wrong-position" wrong ~path:"red r0/arg 0" ~msg:"not argument"

let test_tamper_wrong_substitution () =
  let cert = traced_cert () in
  (* swap the images bound to M and N: same variables, wrong instance *)
  let wrong =
    tamper_red cert 0 (fun d ->
        map_root_step "wrong-subst" d (fun st ->
            let sub =
              match st.C.s_sub with
              | [ (n1, s1, t1); (n2, s2, t2) ] -> [ (n1, s1, t2); (n2, s2, t1) ]
              | _ -> Alcotest.fail "expected two bindings in the plus step"
            in
            Some { st with C.s_sub = sub }))
  in
  expect_reject "wrong-subst" wrong ~path:"red r0" ~msg:"does not match the redex"

let test_tamper_skipped_condition () =
  let cert = traced_cert () in
  (* red r2 is the conditional gate rule: drop its condition discharge *)
  let wrong =
    tamper_red cert 2 (fun d ->
        map_root_step "skip-cond" d (fun st -> Some { st with C.s_cond = None }))
  in
  expect_reject "skip-cond" wrong ~path:"red r2" ~msg:"records no condition discharge"

let test_tamper_bogus_perm () =
  let cert = traced_cert () in
  (* red r1 is the pure AC reorder: replace its permutation with a non-bijection *)
  let wrong =
    tamper_red cert 1 (fun d ->
        map_root_app "bogus-perm" d (fun children perm step ->
            (match perm with
            | Some _ -> ()
            | None -> Alcotest.fail "fixture AC derivation records no permutation");
            (children, Some [ 0; 0; 0 ], step)))
  in
  expect_reject "bogus-perm" wrong ~path:"red r1/perm" ~msg:"bogus AC permutation"

(* ------------------------------------------------------------------ *)

let lpo_cert () =
  let ops = [ zop; sop; plusop; uop; iszop; gateop; caop; cbop; ccop ] in
  let sr = Order.search_precedence ~ops rules in
  Alcotest.(check int) "fixture rules orient" 0 (List.length sr.Order.unoriented);
  let b = Analysis.Certgen.create () in
  Analysis.Certgen.add_lpo b ~precedence:sr.Order.precedence rules;
  Analysis.Certgen.cert b

let test_lpo_cert () =
  let cert = lpo_cert () in
  (match check_errors cert with
  | [] -> ()
  | e :: _ ->
    Alcotest.failf "valid LPO certificate rejected: %s: %s" e.Certify.Check.e_path
      e.Certify.Check.e_msg);
  (* reversing the precedence must break at least one orientation *)
  let reversed =
    match cert.C.lpo with
    | Some l -> { cert with C.lpo = Some { l with C.lpo_prec = List.rev l.C.lpo_prec } }
    | None -> Alcotest.fail "certificate has no LPO section"
  in
  expect_reject "reversed-precedence" reversed ~path:"lpo/rule" ~msg:"not LPO-greater"

let test_join_cert () =
  let b = Analysis.Certgen.create () in
  let cert0 = Analysis.Certgen.cert b in
  let cterm name = C.A ({ C.op_name = name; op_arity = []; op_sort = "TcNat"; op_flags = [] }, []) in
  let l = cterm "tcA" in
  let r = cterm "tcB" in
  let triv t = { C.d_in = t; d_out = t; d_node = C.Triv } in
  let rs = { C.rs_parent = None; rs_rules = [] } in
  let join jc_right =
    {
      C.j_label = "t1";
      j_rset = rs;
      j_peak = l;
      j_left = l;
      j_right = l;
      j_cert = { C.jc_left = triv l; jc_right; jc_tail = C.Jsyn };
    }
  in
  let good = { cert0 with C.joins = [ join (triv l) ] } in
  (match check_errors good with
  | [] -> ()
  | e :: _ ->
    Alcotest.failf "valid join certificate rejected: %s: %s" e.Certify.Check.e_path
      e.Certify.Check.e_msg);
  (* a join whose right side silently ends somewhere else must be refused *)
  let bad = { cert0 with C.joins = [ { (join (triv r)) with C.j_right = r } ] } in
  expect_reject "unjoined" bad ~path:"join t1" ~msg:"distinct terms"

(* ------------------------------------------------------------------ *)
(* Encoder bytes.  A hand-built certificate that uses every grammar
   production — quoted atoms, op flags, variables, a conditional rule, a
   two-level rule-set chain shared by two reds, perm/step/cond/next, an
   LPO section and a split join — must encode to exactly these bytes. *)

let golden_cert () =
  let op ?(flags = []) name arity sort =
    { C.op_name = name; op_arity = arity; op_sort = sort; op_flags = flags }
  in
  let nat = "TcNat" in
  let zo = op "tcZ" [] nat and so = op "tcS" [ nat ] nat in
  let uo = op ~flags:[ C.Ac; C.Comm ] "tc U" [ nat; nat ] nat in
  let tto = op ~flags:[ C.Tt ] "true" [] "Bool" in
  let eqo = op ~flags:[ C.Eq ] "_==_" [ nat; nat ] "Bool" in
  let z = C.A (zo, []) and tt = C.A (tto, []) in
  let s t = C.A (so, [ t ]) and u a b = C.A (uo, [ a; b ]) in
  let eq a b = C.A (eqo, [ a; b ]) in
  let v name = C.V { v_name = name; v_sort = nat } in
  let triv t = { C.d_in = t; d_out = t; d_node = C.Triv } in
  let rule ?cond label lhs rhs = { C.r_label = label; r_lhs = lhs; r_rhs = rhs; r_cond = cond } in
  let r_plain = rule "s-z" (s z) z in
  let r_cond = rule ~cond:(eq (v "N") z) "u \"c\"" (u (v "M") (v "N")) (s (v "M")) in
  let r_hyp = rule "hyp" (eq z z) tt in
  let r_hyp2 = rule "hyp2" (s (s z)) (s z) in
  let base = { C.rs_parent = None; rs_rules = [ r_plain; r_cond ] } in
  let mid = { C.rs_parent = Some base; rs_rules = [ r_hyp ] } in
  let top = { C.rs_parent = Some mid; rs_rules = [ r_hyp2 ] } in
  let app ?perm ?cond d_in d_out children rule sub next =
    let step = { C.s_rule = rule; s_sub = sub; s_cond = cond; s_next = next } in
    { C.d_in; d_out; d_node = C.App { children; perm; step = Some step } }
  in
  let d_cond = app (eq z z) tt [] r_hyp [] (triv tt) in
  let d_main =
    app ~perm:[ 1; 0 ] ~cond:d_cond (u (v "I") z) (v "O")
      [ triv (v "I"); triv z ]
      r_cond
      [ ("M", nat, v "I"); ("N", nat, z) ]
      (triv (v "O"))
  in
  let red name d =
    { C.red_name = name; red_rset = top; red_in = d.C.d_in; red_out = d.C.d_out; red_deriv = d }
  in
  let jc l r tail = { C.jc_left = triv l; jc_right = triv r; jc_tail = tail } in
  let fo = op "tcF" [ nat ] nat and go = op "tcG" [] nat in
  {
    C.reds = [ red "goal-1" d_main; red "goal 2" (triv (v "M")) ];
    lpo =
      Some
        {
          C.lpo_prec = [ go; zo; so; uo ];
          lpo_rules = [ r_plain; rule "f" (C.A (fo, [ z ])) z ];
        };
    joins =
      [
        {
          C.j_label = "cp;1";
          j_rset = mid;
          j_peak = v "P";
          j_left = v "L";
          j_right = v "R";
          j_cert =
            jc (v "JL") (v "JR")
              (C.Jsplit (eq (v "C") z, jc (v "T") (v "T") C.Jsyn, jc (v "F") (v "F") C.Jring));
        };
      ];
  }

let golden_text =
  String.concat ""
    [
      {|(eqcert (version 1) (ops (op 0 tcS (TcNat) TcNat) (op 1 tcZ () TcNat)|};
      {| (op 2 "tc U" (TcNat TcNat) TcNat ac comm) (op 3 _==_ (TcNat TcNat) Bool eq)|};
      {| (op 4 true () Bool tt) (op 5 tcG () TcNat) (op 6 tcF (TcNat) TcNat)) (terms|};
      {| (t 0 a 1) (t 1 a 0 0) (t 2 v M TcNat) (t 3 v N TcNat) (t 4 a 2 2 3) (t 5 a 0 2)|};
      {| (t 6 a 3 3 0) (t 7 a 3 0 0) (t 8 a 4) (t 9 a 0 1) (t 10 v I TcNat)|};
      {| (t 11 a 2 10 0) (t 12 v O TcNat) (t 13 a 6 0) (t 14 v JL TcNat)|};
      {| (t 15 v JR TcNat) (t 16 v F TcNat) (t 17 v T TcNat) (t 18 v C TcNat)|};
      {| (t 19 a 3 18 0) (t 20 v R TcNat) (t 21 v L TcNat) (t 22 v P TcNat)) (rules|};
      {| (rule 0 s-z 1 0) (rule 1 "u \"c\"" 4 5 6) (rule 2 hyp 7 8) (rule 3 hyp2 9 1)|};
      {| (rule 4 f 13 0)) (rsets (rs 0 -1 0 1) (rs 1 0 2) (rs 2 1 3)) (derivs|};
      {| (d 0 triv 10) (d 1 triv 0) (d 2 triv 8) (d 3 app 7 8 () (step 2 (sub) 2))|};
      {| (d 4 triv 12)|};
      {| (d 5 app 11 12 (0 1) (perm 1 0) (step 1 (sub (M TcNat 10) (N TcNat 0)) (cond 3) 4))|};
      {| (d 6 triv 2) (d 7 triv 14) (d 8 triv 15) (d 9 triv 16) (d 10 triv 17)) (reds|};
      {| (red goal-1 2 11 12 5) (red "goal 2" 2 2 2 6)) (lpo (prec 5 1 0 2) (rules 0 4))|};
      {| (joins (join "cp;1" 1 22 21 20 (j 7 8 (split 19 (j 10 10 syn) (j 9 9 ring))))))|};
    ]

let test_golden_bytes () =
  Alcotest.(check string) "encoder bytes" golden_text (C.to_string (golden_cert ()))

let count_sub hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i n =
    if i + ln > lh then n else go (i + 1) (if String.sub hay i ln = needle then n + 1 else n)
  in
  go 0 0

(* Many reds over one rule set — physically shared, and rebuilt as a
   structurally equal copy — still emit one entry per distinct rule set
   and rule. *)
let test_shared_rset_once () =
  let g = golden_cert () in
  let red0 = List.hd g.C.reds in
  let rs = red0.C.red_rset in
  let copy =
    { rs with C.rs_rules = List.map (fun r -> { r with C.r_label = r.C.r_label }) rs.C.rs_rules }
  in
  let reds =
    List.init 200 (fun i ->
        {
          red0 with
          C.red_name = Printf.sprintf "r%d" i;
          red_rset = (if i mod 2 = 0 then rs else copy);
        })
  in
  let text = C.to_string { C.reds; lpo = None; joins = [] } in
  Alcotest.(check int) "one (rs ...) per rule set" 3 (count_sub text "(rs ");
  Alcotest.(check int) "one (rule ...) per rule" 4 (count_sub text "(rule ");
  Alcotest.(check int) "every red" 200 (count_sub text "(red ")

(* ------------------------------------------------------------------ *)
(* Serialization fuzz: random certificates (weird atom spellings
   included) must round-trip to structurally identical values. *)

let gen_name =
  QCheck.Gen.(
    oneof
      [
        map (Printf.sprintf "op-%d") (int_bound 30);
        map (Printf.sprintf "weird %d \"quoted\" \\ ;semi") (int_bound 9);
        return "";
      ])

let gen_term =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        if n <= 0 then
          oneof
            [
              map (fun nm -> C.V { v_name = nm; v_sort = "S" }) gen_name;
              map
                (fun nm ->
                  C.A ({ C.op_name = nm; op_arity = []; op_sort = "S"; op_flags = [] }, []))
                gen_name;
            ]
        else
          map2
            (fun nm args ->
              C.A
                ( {
                    C.op_name = nm;
                    op_arity = List.map (fun _ -> "S") args;
                    op_sort = "S";
                    op_flags = [];
                  },
                  args ))
            gen_name
            (list_size (int_bound 3) (self (n / 2)))))

let gen_cert =
  QCheck.Gen.(
    map2
      (fun lhs rhs ->
        let rule = { C.r_label = "g"; r_lhs = lhs; r_rhs = lhs; r_cond = None } in
        let rs = { C.rs_parent = None; rs_rules = [ rule ] } in
        let d = { C.d_in = rhs; d_out = rhs; d_node = C.Triv } in
        {
          C.reds =
            [ { C.red_name = "r0"; red_rset = rs; red_in = rhs; red_out = rhs; red_deriv = d } ];
          lpo = None;
          joins = [];
        })
      gen_term gen_term)

let prop_roundtrip =
  QCheck.Test.make ~name:"certificate serialization round-trips" ~count:200
    (QCheck.make gen_cert) (fun cert ->
      match C.of_string (C.to_string cert) with
      | Ok cert' -> C.equal cert cert'
      | Error _ -> false)

let suite =
  ( "certify",
    [
      "valid certificate accepted", `Quick, test_valid_cert;
      "serialize/parse round-trip", `Quick, test_roundtrip;
      "tamper: wrong rule", `Quick, test_tamper_wrong_rule;
      "tamper: wrong position", `Quick, test_tamper_wrong_position;
      "tamper: wrong substitution", `Quick, test_tamper_wrong_substitution;
      "tamper: skipped condition", `Quick, test_tamper_skipped_condition;
      "tamper: bogus AC permutation", `Quick, test_tamper_bogus_perm;
      "LPO certificate and reversed precedence", `Quick, test_lpo_cert;
      "join certificate and unjoined tamper", `Quick, test_join_cert;
      "encoder bytes are stable", `Quick, test_golden_bytes;
      "shared rule sets encoded once", `Quick, test_shared_rset_once;
      QCheck_alcotest.to_alcotest prop_roundtrip;
    ] )
