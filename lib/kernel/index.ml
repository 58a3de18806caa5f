module Metrics = Telemetry.Metrics

(* A tree edge symbol: operator name plus argument count.  [Signature]
   keeps names unique per signature and [op_equal] is name equality, so
   agreeing on (name, argc) is implied by any successful match — filtering
   on it can only exclude rules the matcher would reject anyway. *)
type sym = { y_name : string; y_arity : int }

let sym_of o args = { y_name = o.Signature.name; y_arity = List.length args }
let sym_equal a b = a.y_arity = b.y_arity && String.equal a.y_name b.y_name

(* ------------------------------------------------------------------ *)
(* Discrimination tree over pre-order symbol strings.                  *)
(* ------------------------------------------------------------------ *)

type node = {
  mutable n_succ : (sym * node) list;  (* symbol edges, small fanout *)
  mutable n_star : node option;  (* the pattern-variable edge *)
  mutable n_leaf : int list;  (* entry slots ending here, ascending *)
}

let new_node () = { n_succ = []; n_star = None; n_leaf = [] }

type path_elt = Psym of sym | Pstar

(* Pre-order serialization of a pattern.  A variable is a wildcard that
   consumes one whole subject subterm.  Below an AC or Comm operator the
   matcher tries argument permutations, so a fixed child order must not be
   compiled in: the root symbol is kept (a match still needs the same
   operator there) and every child becomes a wildcard. *)
let rec serialize t acc =
  match Term.view t with
  | Term.Var _ -> Pstar :: acc
  | Term.App (o, args) ->
    let s = Psym (sym_of o args) in
    if Signature.is_ac o || Signature.is_comm o then
      s :: List.fold_left (fun acc _ -> Pstar :: acc) acc args
    else s :: List.fold_right serialize args acc

let insert root path slot =
  let rec go node = function
    | [] -> node.n_leaf <- node.n_leaf @ [ slot ]
    | Pstar :: rest ->
      let child =
        match node.n_star with
        | Some c -> c
        | None ->
          let c = new_node () in
          node.n_star <- Some c;
          c
      in
      go child rest
    | Psym s :: rest ->
      let child =
        match List.find_opt (fun (s', _) -> sym_equal s s') node.n_succ with
        | Some (_, c) -> c
        | None ->
          let c = new_node () in
          node.n_succ <- node.n_succ @ [ (s, c) ];
          c
      in
      go child rest
  in
  go root path

(* Retrieval: walk the subject pre-order against the tree.  A wildcard
   edge skips the whole subterm at the head of the stack; a symbol edge
   requires the subject's root there to carry the same name and argument
   count and descends into its children.  A [Var] {e subject} can only go
   through wildcard edges — a non-variable pattern position never matches
   a subject variable. *)
let query_tree root subject =
  let hits = ref [] in
  let rec walk node stack =
    match stack with
    | [] -> if node.n_leaf <> [] then hits := node.n_leaf :: !hits
    | t :: rest -> (
      (match node.n_star with Some c -> walk c rest | None -> ());
      match Term.view t with
      | Term.Var _ -> ()
      | Term.App (o, args) ->
        let s = sym_of o args in
        List.iter
          (fun (s', c) -> if sym_equal s s' then walk c (args @ rest))
          node.n_succ)
  in
  walk root [ subject ];
  match !hits with
  | [] -> []
  | [ one ] -> one
  | many -> List.sort_uniq compare (List.concat many)

(* ------------------------------------------------------------------ *)
(* AC buckets: flattened-argument multiset profiles.                   *)
(* ------------------------------------------------------------------ *)

type prof = {
  p_len : int;  (* flattened arguments of the pattern *)
  p_vars : int;  (* of which variables *)
  p_rigid : (sym * int) list;  (* root-symbol multiset of the rigid ones *)
}

let profile op lhs =
  let args = Ac.flatten op lhs in
  let vars, rigid =
    List.partition
      (fun a -> match Term.view a with Term.Var _ -> true | Term.App _ -> false)
      args
  in
  let counts = Hashtbl.create 8 in
  List.iter
    (fun a ->
      match Term.view a with
      | Term.App (o, aa) ->
        let s = sym_of o aa in
        Hashtbl.replace counts s
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts s))
      | Term.Var _ -> assert false)
    rigid;
  {
    p_len = List.length args;
    p_vars = List.length vars;
    p_rigid = Hashtbl.fold (fun s c acc -> (s, c) :: acc) counts [];
  }

(* The never-miss pre-condition of [Ac.match_]: each rigid pattern
   argument consumes exactly one subject argument with the same root
   symbol, each variable pattern argument consumes at least one subject
   argument, and with no variables everything must be consumed.  Profiles
   ignore argument order entirely, so AC canonicalization of the subject
   cannot change the verdict. *)
let compat prof ~slen counts =
  prof.p_len <= slen
  && (prof.p_vars > 0 || prof.p_len = slen)
  && List.for_all
       (fun (s, c) ->
         match Hashtbl.find_opt counts s with Some n -> n >= c | None -> false)
       prof.p_rigid

let query_ac profs subject =
  match Term.view subject with
  | Term.Var _ -> []
  | Term.App (o, _) ->
    let args = Ac.flatten o subject in
    let slen = List.length args in
    let counts = Hashtbl.create 8 in
    List.iter
      (fun a ->
        match Term.view a with
        | Term.Var _ -> ()
        | Term.App (oo, aa) ->
          let s = sym_of oo aa in
          Hashtbl.replace counts s
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts s)))
      args;
    let hits = ref [] in
    Array.iteri
      (fun slot prof -> if compat prof ~slen counts then hits := slot :: !hits)
      profs;
    List.rev !hits

(* ------------------------------------------------------------------ *)
(* Buckets and the index proper.                                       *)
(* ------------------------------------------------------------------ *)

type kind =
  | Tree of node
  | Acb of prof array  (* aligned with [b_items] *)
  | Opaque  (* heterogeneous head operators: no filtering, full bucket *)

type 'a bucket = {
  b_items : ('a * Term.t) array;
  b_all : 'a list;  (* the entries of [b_items], kept as the full answer *)
  b_kind : kind;
}

type 'a t = {
  i_buckets : (string, 'a bucket) Hashtbl.t;
  i_rules : int;
  i_gen : int;
  mutable i_ok : bool;
}

let c_queries = Metrics.counter "kernel.index.queries"
let c_hits = Metrics.counter "kernel.index.hits"
let c_filtered = Metrics.counter "kernel.index.filtered"
let c_fallbacks = Metrics.counter "kernel.index.fallbacks"

type stats = { queries : int; hits : int; filtered : int; fallbacks : int }

let stats () =
  {
    queries = Metrics.value c_queries;
    hits = Metrics.value c_hits;
    filtered = Metrics.value c_filtered;
    fallbacks = Metrics.value c_fallbacks;
  }

let note_fallback () = Metrics.incr c_fallbacks

let head_of lhs =
  match Term.view lhs with
  | Term.App (o, _) -> o
  | Term.Var _ -> invalid_arg "Index.build: variable left-hand side"

let build ?(gen = 0) ~lhs entries =
  let order = Hashtbl.create 32 in
  (* group by head name, preserving entry order within each group *)
  List.iter
    (fun e ->
      let name = (head_of (lhs e)).Signature.name in
      let prev = Option.value ~default:[] (Hashtbl.find_opt order name) in
      Hashtbl.replace order name (e :: prev))
    entries;
  let buckets = Hashtbl.create 32 in
  Hashtbl.iter
    (fun name rev_group ->
      let group = List.rev rev_group in
      let items = Array.of_list (List.map (fun e -> (e, lhs e)) group) in
      let heads = Array.map (fun (_, l) -> head_of l) items in
      let all_ac = Array.for_all Signature.is_ac heads in
      let no_ac =
        Array.for_all (fun o -> not (Signature.is_ac o)) heads
      in
      let kind =
        if all_ac then
          Acb (Array.map (fun (_, l) -> profile (head_of l) l) items)
        else if no_ac then begin
          let root = new_node () in
          Array.iteri
            (fun slot (_, l) -> insert root (serialize l []) slot)
            items;
          Tree root
        end
        else Opaque
      in
      Hashtbl.replace buckets name { b_items = items; b_all = group; b_kind = kind })
    order;
  { i_buckets = buckets; i_rules = List.length entries; i_gen = gen; i_ok = true }

(* Candidate slots for [subject] in [b], without accounting — shared by the
   public query and by [validate]'s self-retrieval replay. *)
let bucket_slots b subject =
  match b.b_kind with
  | Tree root -> query_tree root subject
  | Acb profs -> query_ac profs subject
  | Opaque -> List.init (Array.length b.b_items) Fun.id

let candidates t subject =
  match Term.view subject with
  | Term.Var _ -> []
  | Term.App (o, _) -> (
    match Hashtbl.find_opt t.i_buckets o.Signature.name with
    | None -> []
    | Some b when not t.i_ok ->
      note_fallback ();
      b.b_all
    | Some b ->
      let slots = bucket_slots b subject in
      let n = Array.length b.b_items in
      let k = List.length slots in
      Metrics.incr c_queries;
      Metrics.add c_hits k;
      Metrics.add c_filtered (n - k);
      List.map (fun slot -> fst b.b_items.(slot)) slots)

let bucket t name =
  match Hashtbl.find_opt t.i_buckets name with
  | None -> []
  | Some b -> b.b_all

let ok t = t.i_ok

let validate t =
  let failure = ref None in
  Hashtbl.iter
    (fun name b ->
      if !failure = None then
        Array.iteri
          (fun slot (_, l) ->
            if !failure = None && not (List.mem slot (bucket_slots b l)) then
              failure :=
                Some
                  (Printf.sprintf
                     "bucket %s: slot %d not retrieved by its own lhs %s" name
                     slot (Term.to_string l)))
          b.b_items)
    t.i_buckets;
  match !failure with
  | None -> Ok ()
  | Some msg ->
    t.i_ok <- false;
    Error msg

type info = {
  ix_rules : int;
  ix_buckets : int;
  ix_ac_buckets : int;
  ix_generation : int;
  ix_ok : bool;
}

let info t =
  let ac =
    Hashtbl.fold
      (fun _ b acc -> match b.b_kind with Acb _ -> acc + 1 | _ -> acc)
      t.i_buckets 0
  in
  {
    ix_rules = t.i_rules;
    ix_buckets = Hashtbl.length t.i_buckets;
    ix_ac_buckets = ac;
    ix_generation = t.i_gen;
    ix_ok = t.i_ok;
  }

let unsafe_drop_slot t ~bucket ~slot =
  match Hashtbl.find_opt t.i_buckets bucket with
  | None -> false
  | Some b -> (
    if slot < 0 || slot >= Array.length b.b_items then false
    else
      match b.b_kind with
      | Opaque -> false
      | Acb profs ->
        (* a profile its own lhs cannot satisfy: demands one more
           flattened argument than exists, with no variables to absorb
           the mismatch *)
        let p = profs.(slot) in
        profs.(slot) <- { p with p_len = p.p_len + 1; p_vars = 0 };
        true
      | Tree root ->
        let dropped = ref false in
        let rec scrub node =
          if List.mem slot node.n_leaf then begin
            node.n_leaf <- List.filter (fun s -> s <> slot) node.n_leaf;
            dropped := true
          end;
          (match node.n_star with Some c -> scrub c | None -> ());
          List.iter (fun (_, c) -> scrub c) node.n_succ
        in
        scrub root;
        !dropped)
