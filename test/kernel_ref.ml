(* Reference oracle for the Ψ_G and Π' constraint kernels: the
   closure-based checks the library ran before its kernels became
   allocation-free loops on scratch views, kept verbatim (only the module
   wrappers are new). Test_kernels compares the library's kernels with
   these on valid and corrupted Π² and Π³ outputs. The references read
   plain arrays: [V.of_node]/[V.of_edge] read a window into them through
   [Ne_lcl]'s accessors, and [V.node]/[V.edge] make a window over labels
   of their own. *)

module V = struct
  module Ne_lcl = Repro_lcl.Ne_lcl

  type ('vi, 'ei, 'bi, 'vo, 'eo, 'bo) node = {
    degree : int;
    v_in : 'vi;
    v_out : 'vo;
    e_in : 'ei array;
    e_out : 'eo array;
    b_in : 'bi array;
    b_out : 'bo array;
  }

  type ('vi, 'ei, 'bi, 'vo, 'eo, 'bo) edge = {
    self_loop : bool;
    u_in : 'vi;
    u_out : 'vo;
    w_in : 'vi;
    w_out : 'vo;
    ee_in : 'ei;
    ee_out : 'eo;
    bu_in : 'bi;
    bu_out : 'bo;
    bw_in : 'bi;
    bw_out : 'bo;
  }

  let of_node nv =
    let d = Ne_lcl.degree nv in
    {
      degree = d;
      v_in = Ne_lcl.v_in nv;
      v_out = Ne_lcl.v_out nv;
      e_in = Array.init d (Ne_lcl.e_in nv);
      e_out = Array.init d (Ne_lcl.e_out nv);
      b_in = Array.init d (Ne_lcl.b_in nv);
      b_out = Array.init d (Ne_lcl.b_out nv);
    }

  let of_edge ev =
    {
      self_loop = Ne_lcl.self_loop ev;
      u_in = Ne_lcl.u_in ev;
      u_out = Ne_lcl.u_out ev;
      w_in = Ne_lcl.w_in ev;
      w_out = Ne_lcl.w_out ev;
      ee_in = Ne_lcl.ee_in ev;
      ee_out = Ne_lcl.ee_out ev;
      bu_in = Ne_lcl.bu_in ev;
      bu_out = Ne_lcl.bu_out ev;
      bw_in = Ne_lcl.bw_in ev;
      bw_out = Ne_lcl.bw_out ev;
    }

  let node x : _ Ne_lcl.node_view =
    {
      Ne_lcl.vi = [| x.v_in |];
      vo = [| x.v_out |];
      ei = x.e_in;
      eo = x.e_out;
      bi = x.b_in;
      bo = x.b_out;
      ports = Array.init x.degree Fun.id;
      node = 0;
      lo = 0;
      degree = x.degree;
      edge_shift = 0;
    }

  let edge x : _ Ne_lcl.edge_view =
    {
      Ne_lcl.uvi = [| x.u_in |];
      uvo = [| x.u_out |];
      wvi = [| x.w_in |];
      wvo = [| x.w_out |];
      eei = [| x.ee_in |];
      eeo = [| x.ee_out |];
      ubi = [| x.bu_in |];
      ubo = [| x.bu_out |];
      wbi = [| x.bw_in |];
      wbo = [| x.bw_out |];
      u = 0;
      w = 0;
      edge = 0;
      hu = 0;
      hw = 0;
      loop = x.self_loop;
    }
end

module Ne_psi_ref = struct
  module Ne_lcl = Repro_lcl.Ne_lcl
  module Psi = Repro_gadget.Psi
  open Repro_gadget.Labels
  open Repro_gadget.Ne_psi

  let chain_mem c chains = List.mem c chains

  let check_node ~delta (nv : (node_label, unit, half_in, node_out, unit, half_out) Ne_lcl.node_view) =
    let nv : _ V.node = V.of_node nv in
    let out = nv.v_out in
    let halves = nv.b_out in
    let inputs = nv.b_in in
    let mirrors_ok = Array.for_all (fun h -> h.mirror = out) halves in
    let ok_clean =
      out.status <> NOk
      || (out.chains = []
         && Array.for_all
              (fun h ->
                (not h.bad_edge) && h.color_claim = None && h.to_next = []
                && h.from_prev = [])
              halves)
    in
    (* chain well-formedness *)
    let count f = Array.fold_left (fun acc h -> if f h then acc + 1 else acc) 0 halves in
    let chains_ok =
      List.for_all
        (fun c ->
          let cont =
            c.cpos >= chain_last c.ckind
            || count (fun i -> List.mem c i.to_next) = 1
          in
          let prev =
            c.cpos = 0 || count (fun i -> List.mem c i.from_prev) = 1
          in
          cont && prev)
        out.chains
    in
    let tags_ok =
      let ok = ref true in
      Array.iteri
        (fun idx h ->
          List.iter
            (fun c ->
              if
                (not (chain_mem c out.chains))
                || c.cpos >= chain_last c.ckind
                || inputs.(idx).bl <> chain_step c.ckind c.cpos
              then ok := false)
            h.to_next;
          List.iter
            (fun c ->
              if (not (chain_mem c out.chains)) || c.cpos = 0 then ok := false)
            h.from_prev)
        halves;
      !ok
    in
    (* pointer well-formedness *)
    let has_label l = Array.exists (fun i -> i.bl = l) inputs in
    let ptr_ok =
      match out.status with
      | NPtr Psi.PRight -> has_label Right
      | NPtr Psi.PLeft -> has_label Left
      | NPtr Psi.PParent -> has_label Parent
      | NPtr Psi.PRChild -> has_label RChild
      | NPtr Psi.PUp -> nv.v_in.kind <> Center && has_label Up
      | NPtr (Psi.PDown i) -> nv.v_in.kind = Center && has_label (Down i)
      | NOk | NWit -> true
    in
    (* witness justification *)
    let justified =
      match out.status with
      | NWit ->
        node_input_bad ~delta nv.v_in inputs
        || Array.exists (fun h -> h.bad_edge) halves
        || (let claims =
              Array.to_list halves |> List.filter_map (fun h -> h.color_claim)
            in
            let sorted = List.sort compare claims in
            let rec dup = function
              | a :: (b :: _ as r) -> a = b || dup r
              | _ -> false
            in
            dup sorted)
        || List.exists
             (fun c ->
               c.cpos = chain_last c.ckind
               && not
                    (chain_mem
                       { c with cpos = 0 }
                       out.chains))
             out.chains
        || List.exists
             (fun c ->
               c.cpos = 0
               && not
                    (chain_mem
                       { c with cpos = chain_last c.ckind }
                       out.chains))
             out.chains
      | NOk | NPtr _ -> true
    in
    mirrors_ok && ok_clean && chains_ok && tags_ok && ptr_ok && justified

  let check_edge (ev : (node_label, unit, half_in, node_out, unit, half_out) Ne_lcl.edge_view) =
    let ev : _ V.edge = V.of_edge ev in
    let mirrors = ev.bu_out.mirror = ev.u_out && ev.bw_out.mirror = ev.w_out in
    let mix = (ev.u_out.status = NOk) = (ev.w_out.status = NOk) in
    let ptr_rule (src : node_out) (src_in : node_label) (lsrc : half_label)
        (dst : node_out) =
      match src.status with
      | NOk | NWit -> true
      | NPtr p -> (
        let applies =
          match (p, lsrc) with
          | Psi.PRight, Right
          | Psi.PLeft, Left
          | Psi.PParent, Parent
          | Psi.PRChild, RChild
          | Psi.PUp, Up -> true
          | Psi.PDown i, Down j -> i = j
          | ( ( Psi.PRight | Psi.PLeft | Psi.PParent | Psi.PRChild | Psi.PUp
              | Psi.PDown _ ),
              _ ) -> false
        in
        if not applies then true
        else
          match (p, dst.status) with
          | _, NWit -> true
          | Psi.PRight, NPtr Psi.PRight -> true
          | Psi.PLeft, NPtr Psi.PLeft -> true
          | ( Psi.PParent,
              NPtr (Psi.PParent | Psi.PLeft | Psi.PRight | Psi.PUp) ) -> true
          | Psi.PRChild, NPtr (Psi.PRChild | Psi.PRight | Psi.PLeft) -> true
          | Psi.PUp, NPtr (Psi.PDown j) -> (
            match src_in.kind with Index i -> j <> i | Center -> false)
          | Psi.PDown _, NPtr Psi.PRChild -> true
          | ( ( Psi.PRight | Psi.PLeft | Psi.PParent | Psi.PRChild | Psi.PUp
              | Psi.PDown _ ),
              (NOk | NPtr _) ) -> false)
    in
    let bad_edge_ok =
      ((not ev.bu_out.bad_edge) && not ev.bw_out.bad_edge)
      || edge_input_bad ev.u_in ev.w_in ev.bu_in ev.bw_in
    in
    let claim_ok (h : half_out) (far : node_label) =
      match h.color_claim with None -> true | Some c -> far.color2 = c
    in
    let chain_edge (h : half_out) (lsrc : half_in) (lfar : half_in)
        (far : node_out) =
      List.for_all
        (fun c ->
          lsrc.bl = chain_step c.ckind c.cpos
          && chain_mem { c with cpos = c.cpos + 1 } far.chains)
        h.to_next
      && List.for_all
           (fun c ->
             lfar.bl = chain_step c.ckind (c.cpos - 1)
             && chain_mem { c with cpos = c.cpos - 1 } far.chains)
           h.from_prev
    in
    mirrors && mix
    && ptr_rule ev.u_out ev.u_in ev.bu_in.bl ev.w_out
    && ptr_rule ev.w_out ev.w_in ev.bw_in.bl ev.u_out
    && bad_edge_ok
    && claim_ok ev.bu_out ev.w_in
    && claim_ok ev.bw_out ev.u_in
    && chain_edge ev.bu_out ev.bu_in ev.bw_in ev.w_out
    && chain_edge ev.bw_out ev.bw_in ev.bu_in ev.u_out

  let problem ~delta : problem_t =
    {
      name = "psi-gadget-ne";
      check_node = check_node ~delta;
      check_edge;
    }

end

module Pi_prime_ref = struct
  module Ne_lcl = Repro_lcl.Ne_lcl
  module Spec = Repro_padding.Spec
  module GL = Repro_gadget.Labels
  module NP = Repro_gadget.Ne_psi
  module Family = Repro_gadget.Family
  open Repro_padding.Padded_types

  let is_port_half (e_in : _ pe_in) = e_in.etype = PortEdge

  (* Constraint 2 at a node: Ψ_G's node constraint over gadget edges only. *)
  let psi_node_ok ~(family : Family.t) (nv : _ V.node) =
    let idxs = ref [] in
    Array.iteri
      (fun k (e : _ pe_in) -> if e.etype = GadEdge then idxs := k :: !idxs)
      nv.V.e_in;
    let idxs = Array.of_list (List.rev !idxs) in
    let some_ok =
      Array.for_all
        (fun k ->
          match nv.V.b_out.(k) with Some _ -> true | None -> false)
        idxs
    in
    some_ok
    &&
    let unwrap k =
      match nv.V.b_out.(k) with Some h -> h | None -> assert false
    in
    let psi_view =
      {
        V.degree = Array.length idxs;
        v_in = (nv.V.v_in : _ pv_in).gad_v;
        v_out = (nv.V.v_out : _ pv_out).psi_v;
        e_in = Array.map (fun _ -> ()) idxs;
        e_out = Array.map (fun _ -> ()) idxs;
        b_in = Array.map (fun k -> (nv.V.b_in.(k) : _ pb_in).gad_b) idxs;
        b_out = Array.map unwrap idxs;
      }
    in
    family.Family.ne_problem.Ne_lcl.check_node (V.node psi_view)

  (* Constraint 5's hypothetical node: Π's node constraint on the virtual
     node encoded in Σ_list. *)
  let hypothetical_node_ok (p : _ Ne_lcl.t) (l : _ sigma_list) =
    let members = ref [] in
    Array.iteri (fun k m -> if m then members := k :: !members) l.s;
    let ms = Array.of_list (List.rev !members) in
    let view =
      {
        V.degree = Array.length ms;
        v_in = l.iv;
        v_out = l.ov;
        e_in = Array.map (fun k -> l.ie.(k)) ms;
        e_out = Array.map (fun k -> l.oe.(k)) ms;
        b_in = Array.map (fun k -> l.ib.(k)) ms;
        b_out = Array.map (fun k -> l.ob.(k)) ms;
      }
    in
    p.Ne_lcl.check_node (V.node view)

  let check_node ~(family : Family.t) (p : _ Ne_lcl.t) nv =
    let nv = V.of_node nv in
    let delta = family.Family.delta in
    let vin : _ pv_in = nv.V.v_in in
    let vout : _ pv_out = nv.V.v_out in
    (* constraint 1: ε exactly on port-edge halves *)
    let eps_ok =
      Array.for_all
        (fun k ->
          let is_port = is_port_half nv.V.e_in.(k) in
          match nv.V.b_out.(k) with
          | None -> is_port
          | Some _ -> not is_port)
        (Array.init nv.V.degree (fun k -> k))
    in
    (* constraint 3: PortErr2 placement *)
    let port_edge_count =
      Array.fold_left
        (fun acc (e : _ pe_in) -> if e.etype = PortEdge then acc + 1 else acc)
        0 nv.V.e_in
    in
    let perr2_ok =
      match vin.gad_v.GL.port with
      | Some _ -> (vout.perr = PortErr2) = (port_edge_count <> 1)
      | None -> vout.perr <> PortErr2
    in
    (* constraint 2 *)
    let psi_ok = psi_node_ok ~family nv in
    (* constraint 5, gated on the gadget claiming GadOk *)
    let list_ok =
      vout.psi_v.NP.status <> NP.NOk
      ||
      let l = vout.list_part in
      Array.length l.s = delta
      && Array.length l.ie = delta
      && Array.length l.ib = delta
      && Array.length l.oe = delta
      && Array.length l.ob = delta
      && (match vin.gad_v.GL.port with
         | Some i -> l.s.(i - 1) = (vout.perr = NoPortErr)
         | None -> true)
      && (match vin.gad_v.GL.port with
         | Some 1 -> l.iv = vin.pi_v
         | Some _ | None -> true)
      && (match vin.gad_v.GL.port with
         | Some i when l.s.(i - 1) ->
           (* the unique incident port edge's Π-inputs are copied *)
           let ok = ref true in
           Array.iteri
             (fun k (e : _ pe_in) ->
               if e.etype = PortEdge then begin
                 if l.ie.(i - 1) <> e.pi_e then ok := false;
                 if l.ib.(i - 1) <> (nv.V.b_in.(k) : _ pb_in).pi_b then
                   ok := false
               end)
             nv.V.e_in;
           !ok
         | Some _ | None -> true)
      && hypothetical_node_ok p l
    in
    eps_ok && perr2_ok && psi_ok && list_ok

  let check_edge ~(family : Family.t) (p : _ Ne_lcl.t) ev =
    let ev = V.of_edge ev in
    let ein : _ pe_in = ev.V.ee_in in
    let uin : _ pv_in = ev.V.u_in in
    let win : _ pv_in = ev.V.w_in in
    let uout : _ pv_out = ev.V.u_out in
    let wout : _ pv_out = ev.V.w_out in
    let u_ok = uout.psi_v.NP.status = NP.NOk in
    let w_ok = wout.psi_v.NP.status = NP.NOk in
    match ein.etype with
    | GadEdge -> (
      (* constraint 2: Ψ_G's edge constraint *)
      match (ev.V.bu_out, ev.V.bw_out) with
      | Some bu, Some bw ->
        let psi_view =
          {
            V.self_loop = ev.V.self_loop;
            u_in = uin.gad_v;
            u_out = uout.psi_v;
            w_in = win.gad_v;
            w_out = wout.psi_v;
            ee_in = ();
            ee_out = ();
            bu_in = (ev.V.bu_in : _ pb_in).gad_b;
            bu_out = bu;
            bw_in = (ev.V.bw_in : _ pb_in).gad_b;
            bw_out = bw;
          }
        in
        family.Family.ne_problem.Ne_lcl.check_edge (V.edge psi_view)
        (* constraint 6, gadget edges: the Σ_list agrees across the gadget *)
        && ((not (u_ok && w_ok)) || uout.list_part = wout.list_part)
      | None, _ | _, None -> false (* constraint 1, edge side *))
    | PortEdge -> (
      (ev.V.bu_out = None && ev.V.bw_out = None)
      &&
      (* constraint 4 *)
      let c4_side (xin : _ pv_in) (xout : _ pv_out) (yin : _ pv_in)
          (yout : _ pv_out) =
        match xin.gad_v.GL.port with
        | None -> true
        | Some _ ->
          let both_ports_ok =
            yin.gad_v.GL.port <> None
            && xout.psi_v.NP.status = NP.NOk
            && yout.psi_v.NP.status = NP.NOk
          in
          let facing_bad =
            yin.gad_v.GL.port = None
            || xout.psi_v.NP.status <> NP.NOk
            || yout.psi_v.NP.status <> NP.NOk
          in
          ((not both_ports_ok) || xout.perr <> PortErr1)
          && ((not facing_bad) || xout.perr <> NoPortErr)
      in
      c4_side uin uout win wout
      && c4_side win wout uin uout
      &&
      (* constraint 6, port edges: the virtual edge satisfies Π's edge
         constraint. The paper gates this on both endpoints being ports of
         GadOk gadgets; we additionally require both ports to be valid
         (members of S), which — given constraints 3–5 — is equivalent in
         every situation the solver can reach and keeps the entries
         meaningful when a port faces a PortErr2 port. *)
      match (uin.gad_v.GL.port, win.gad_v.GL.port) with
      | Some i, Some j when u_ok && w_ok ->
        let lu = uout.list_part and lw = wout.list_part in
        if
          i - 1 < Array.length lu.s
          && j - 1 < Array.length lw.s
          && lu.s.(i - 1)
          && lw.s.(j - 1)
        then
          lu.ie.(i - 1) = lw.ie.(j - 1)
          && lu.oe.(i - 1) = lw.oe.(j - 1)
          &&
          let view =
            {
              V.self_loop = false;
              u_in = lu.iv;
              u_out = lu.ov;
              w_in = lw.iv;
              w_out = lw.ov;
              ee_in = lu.ie.(i - 1);
              ee_out = lu.oe.(i - 1);
              bu_in = lu.ib.(i - 1);
              bu_out = lu.ob.(i - 1);
              bw_in = lw.ib.(j - 1);
              bw_out = lw.ob.(j - 1);
            }
          in
          p.Ne_lcl.check_edge (V.edge view)
        else true
      | (Some _ | None), _ -> true)

  let problem ~family (spec : _ Spec.t) : _ Ne_lcl.t =
    {
      Ne_lcl.name = spec.Spec.name ^ "-padded";
      check_node = check_node ~family spec.Spec.problem;
      check_edge = check_edge ~family spec.Spec.problem;
    }

end

(* Reference oracle for the Ψ_G prover: the parent kernels of
   [Check.node_bad], [Verifier.run] and [Ne_psi.prove], kept verbatim
   (only the module wrappers and the opens are new) from before the
   prover walked hoisted CSR arrays and compared labels by pattern
   match. Test_kernels proves gadgets with both and compares solutions,
   meter radii and verifier counter totals. *)

module Check_ref = struct
  module G = Repro_graph.Multigraph
  module Labels = Repro_gadget.Labels
  open Repro_gadget.Labels

  exception Bad_node

  (* the half at [v] labeled [l] (a constant constructor), or -1 *)
  let rec half_find (t : Labels.t) v l k d =
    if k >= d then -1
    else
      let h = G.half_at t.graph v k in
      if t.halves.(h) = l then h else half_find t v l (k + 1) d

  let half_with_i (t : Labels.t) v l = half_find t v l 0 (G.degree t.graph v)
  let has_half_i t v l = half_with_i t v l >= 0

  (* the neighbor across the [l]-labeled half of [v], or -1 *)
  let follow_i (t : Labels.t) v l =
    let h = half_with_i t v l in
    if h < 0 then -1 else G.half_node t.graph (G.mate h)

  (* all of [u]'s labels are LChild/RChild/Up (3e's root shape) *)
  let rec root_labels (t : Labels.t) u k d =
    k >= d
    ||
    match t.halves.(G.half_at t.graph u k) with
    | LChild | RChild | Up -> root_labels t u (k + 1) d
    | Parent | Left | Right | Down _ -> false

  let rec center_count (t : Labels.t) g u k d acc =
    if k >= d then acc
    else
      let w = G.half_node g (G.mate (G.half_at g u k)) in
      center_count t g u (k + 1) d
        (if t.nodes.(w).kind = Center then acc + 1 else acc)

  let node_bad ~delta (t : Labels.t) u =
    let g = t.graph in
    let d = G.degree g u in
    let nl = t.nodes.(u) in
    try
      (* presence bitmask over the constant structural labels *)
      let mask = ref 0 in
      for k = 0 to d - 1 do
        (match t.halves.(G.half_at g u k) with
        | Parent -> mask := !mask lor 1
        | LChild -> mask := !mask lor 2
        | RChild -> mask := !mask lor 4
        | Left -> mask := !mask lor 8
        | Right -> mask := !mask lor 16
        | Up -> mask := !mask lor 32
        | Down _ -> mask := !mask lor 64)
      done;
      let m = !mask in
      let has_parent = m land 1 <> 0 and has_lchild = m land 2 <> 0 in
      let has_rchild = m land 4 <> 0 and has_left = m land 8 <> 0 in
      let has_right = m land 16 <> 0 in
      let c = nl.color2 in
      (* one pairwise pass: 1a (self-loops, parallel edges), 1b (duplicate
         labels), d2 (duplicate far colors); one linear pass: fl (truthful
         replicated flags), d2 (replicated color, far color <> ours) *)
      let fr = has_right and fle = has_left in
      let fc = has_lchild || has_rchild in
      for i = 0 to d - 1 do
        let hi = G.half_at g u i in
        let fari = G.half_node g (G.mate hi) in
        if fari = u then raise Bad_node;
        let f = t.half_flags.(hi) in
        if f.f_right <> fr || f.f_left <> fle || f.f_child <> fc then
          raise Bad_node;
        if t.half_color2.(hi) <> c then raise Bad_node;
        if t.nodes.(fari).color2 = c then raise Bad_node;
        for j = i + 1 to d - 1 do
          let hj = G.half_at g u j in
          let farj = G.half_node g (G.mate hj) in
          if fari = farj then raise Bad_node;
          if t.halves.(hi) = t.halves.(hj) then raise Bad_node;
          if t.nodes.(fari).color2 = t.nodes.(farj).color2 then raise Bad_node
        done
      done;
      (match nl.kind with
      | Center ->
        (* c2a-c2d, 1d *)
        if d <> delta then raise Bad_node;
        if nl.port <> None then raise Bad_node;
        for k = 0 to d - 1 do
          let h = G.half_at g u k in
          let w = G.half_node g (G.mate h) in
          (match t.nodes.(w).kind with
          | Index i -> (
            match t.halves.(h) with
            | Down j -> if j <> i then raise Bad_node
            | _ -> raise Bad_node)
          | Center -> raise Bad_node);
          if t.halves.(G.mate h) <> Up then raise Bad_node
        done;
        for i = 0 to d - 1 do
          for j = i + 1 to d - 1 do
            match
              ( t.nodes.(G.half_node g (G.mate (G.half_at g u i))).kind,
                t.nodes.(G.half_node g (G.mate (G.half_at g u j))).kind )
            with
            | Index a, Index b -> if a = b then raise Bad_node
            | (Center | Index _), _ -> ()
          done
        done
      | Index i ->
        (* 1c, 1d, 2a / 2b *)
        (match nl.port with
        | Some j -> if j <> i then raise Bad_node
        | None -> ());
        for k = 0 to d - 1 do
          let h = G.half_at g u k in
          let w = G.half_node g (G.mate h) in
          let ml = t.halves.(G.mate h) in
          match t.halves.(h) with
          | Parent | LChild | RChild | Left | Right ->
            (match t.nodes.(w).kind with
            | Index j -> if j <> i then raise Bad_node
            | Center -> raise Bad_node);
            (match t.halves.(h) with
            | Left -> if ml <> Right then raise Bad_node
            | Right -> if ml <> Left then raise Bad_node
            | Parent -> if ml <> RChild && ml <> LChild then raise Bad_node
            | LChild | RChild -> if ml <> Parent then raise Bad_node
            | Up | Down _ -> ())
          | Up -> if t.nodes.(w).kind <> Center then raise Bad_node
          | Down _ -> raise Bad_node
        done;
        (* 2c: u(LChild, Right, Parent) = u *)
        let w1 = follow_i t u LChild in
        if w1 >= 0 then begin
          let w2 = follow_i t w1 Right in
          if w2 >= 0 then begin
            let w3 = follow_i t w2 Parent in
            if w3 >= 0 && w3 <> u then raise Bad_node
          end
        end;
        (* 2d: u(Right, LChild, Left, Parent) = u *)
        let w1 = follow_i t u Right in
        if w1 >= 0 then begin
          let w2 = follow_i t w1 LChild in
          if w2 >= 0 then begin
            let w3 = follow_i t w2 Left in
            if w3 >= 0 then begin
              let w4 = follow_i t w3 Parent in
              if w4 >= 0 && w4 <> u then raise Bad_node
            end
          end
        end;
        (* 3a-3d *)
        let ph = half_with_i t u Parent in
        if ph >= 0 then begin
          let p = G.half_node g (G.mate ph) in
          let mlab = t.halves.(G.mate ph) in
          if (not has_right) <> ((not (has_half_i t p Right)) && mlab = RChild)
          then raise Bad_node;
          if (not has_left) <> ((not (has_half_i t p Left)) && mlab = LChild)
          then raise Bad_node;
          if (not has_right) && mlab <> RChild then raise Bad_node;
          if (not has_left) && mlab <> LChild then raise Bad_node
        end;
        (* 3e *)
        if
          (not has_right) && (not has_left)
          && not (has_lchild && has_rchild && root_labels t u 0 d)
        then raise Bad_node;
        (* 3f *)
        if has_rchild <> has_lchild then raise Bad_node;
        (* 3g *)
        if (not has_lchild) && not has_rchild then begin
          let ok_dir w =
            w < 0 || ((not (has_half_i t w LChild)) && not (has_half_i t w RChild))
          in
          if not (ok_dir (follow_i t u Left) && ok_dir (follow_i t u Right))
          then raise Bad_node
        end;
        (* 3h *)
        if
          (nl.port <> None)
          <> ((not has_right) && (not has_lchild) && not has_rchild)
        then raise Bad_node;
        (* c1 *)
        if (not has_parent) && center_count t g u 0 d 0 <> 1 then raise Bad_node);
      false
    with Bad_node -> true

  let erring_nodes ~delta t =
    Array.init (G.n t.graph) (fun u -> node_bad ~delta t u)
end

module Verifier_ref = struct
  module G = Repro_graph.Multigraph
  module T = Repro_graph.Traversal
  module Meter = Repro_local.Meter
  module Pool = Repro_local.Pool
  module Obs = Repro_obs
  module Psi = Repro_gadget.Psi
  module Check = Check_ref
  module Labels = Repro_gadget.Labels
  open Repro_gadget.Labels

  let counter = Obs.Registry.counter Obs.Registry.default
  let m_runs = counter "gadget.verifier.runs"
  let m_err = counter "gadget.verifier.error_nodes"
  let m_ok = counter "gadget.verifier.ok_nodes"
  let m_ptr = counter "gadget.verifier.pointer_nodes"

  let proof_radius ~n =
    let rec log2_ceil x acc = if x <= 1 then acc else log2_ceil ((x + 1) / 2) (acc + 1) in
    (4 * log2_ceil (max n 2) 0) + 8

  let is_all_ok out = Array.for_all (fun o -> o = Psi.Ok) out

  (* Follow [dir] from [v] up to [cap] steps; true iff an err node is hit
     after at least [min_steps] steps. A revisited node means the walk
     looped without finding an error. *)
  let walk_err t err v dir ~min_steps ~cap =
    let visited = Hashtbl.create 16 in
    let rec go v steps =
      if steps > cap || Hashtbl.mem visited v then false
      else begin
        Hashtbl.replace visited v ();
        if steps >= min_steps && err.(v) then true
        else
          match follow t v dir with
          | None -> false
          | Some w -> go w (steps + 1)
      end
    in
    go v 0

  (* err reachable via dir1^{>=1} followed by Right^* or Left^* *)
  let walk_then_sweep t err u dir1 ~cap =
    let visited = Hashtbl.create 16 in
    let rec go v steps =
      if steps > cap || Hashtbl.mem visited v then false
      else begin
        Hashtbl.replace visited v ();
        if
          steps >= 1
          && (err.(v)
             || walk_err t err v Right ~min_steps:1 ~cap
             || walk_err t err v Left ~min_steps:1 ~cap)
        then true
        else
          match follow t v dir1 with
          | None -> false
          | Some w -> go w (steps + 1)
      end
    in
    go u 0

  let pointer_for t err u ~cap : Psi.pointer =
    match t.nodes.(u).kind with
    | Center ->
      (* rule 5: smallest Down_i whose sub-gadget shows a pattern error *)
      let down_indices =
        Array.to_list (G.halves t.graph u)
        |> List.filter_map (fun h ->
               match t.halves.(h) with Down i -> Some i | _ -> None)
        |> List.sort_uniq compare
      in
      let matches i =
        match follow t u (Down i) with
        | None -> false
        | Some v ->
          err.(v)
          || walk_err t err v Right ~min_steps:1 ~cap
          || walk_err t err v Left ~min_steps:1 ~cap
          || walk_then_sweep t err v RChild ~cap
      in
      let rec first = function
        | [] -> (
          (* cannot happen on a non-erring center of an invalid component;
             fall back to the smallest sub-gadget *)
          match down_indices with
          | i :: _ -> Psi.PDown i
          | [] -> Psi.PUp)
        | i :: rest -> if matches i then Psi.PDown i else first rest
      in
      first down_indices
    | Index _ ->
      if walk_err t err u Right ~min_steps:1 ~cap then Psi.PRight
      else if walk_err t err u Left ~min_steps:1 ~cap then Psi.PLeft
      else if walk_then_sweep t err u Parent ~cap then Psi.PParent
      else if walk_then_sweep t err u RChild ~cap then Psi.PRChild
      else if has_half t u Parent then Psi.PParent
      else Psi.PUp

  let run ~delta ~n (t : Labels.t) =
    Obs.Counter.incr m_runs;
    let g = t.graph in
    let size = G.n g in
    let radius = proof_radius ~n in
    let err = Check.erring_nodes ~delta t in
    let out = Array.make size Psi.Ok in
    let meter = Meter.create size in
    (* distance to the nearest erring node *)
    let dist_err = Array.make size max_int in
    let q = Queue.create () in
    for v = 0 to size - 1 do
      if err.(v) then begin
        dist_err.(v) <- 0;
        Queue.add v q
      end
    done;
    while not (Queue.is_empty q) do
      let v = Queue.take q in
      G.iter_halves g v ~f:(fun h ->
          let w = G.half_node g (G.mate h) in
          if dist_err.(w) = max_int then begin
            dist_err.(w) <- dist_err.(v) + 1;
            Queue.add w q
          end)
    done;
    (* eccentricity estimate per component by double sweep *)
    let ecc_est = Array.make size 0 in
    let comp, ncomp = T.components g in
    let comp_first = Array.make ncomp (-1) in
    for v = size - 1 downto 0 do
      comp_first.(comp.(v)) <- v
    done;
    for c = 0 to ncomp - 1 do
      let d0 = T.bfs g comp_first.(c) in
      let a = ref comp_first.(c) in
      for v = 0 to size - 1 do
        if comp.(v) = c && d0.(v) > d0.(!a) then a := v
      done;
      let da = T.bfs g !a in
      let b = ref !a in
      for v = 0 to size - 1 do
        if comp.(v) = c && da.(v) > da.(!b) then b := v
      done;
      let db = T.bfs g !b in
      Pool.parallel_for ~grain:20 ~n:size (fun v ->
          if comp.(v) = c then ecc_est.(v) <- max da.(v) db.(v))
    done;
    let cap = size in
    (* the per-node verdicts are independent: pointer_for only reads the
       labelled gadget and the precomputed err/dist tables, and each node
       writes its own output and meter slot — the verifier's hot loop *)
    (* one index = a radius-ball pointer check: by far the heaviest
       per-index body in the repo (see EXPERIMENTS.md W-dispatch) *)
    Pool.parallel_for ~grain:2_500 ~n:size (fun u ->
        if err.(u) then begin
          out.(u) <- Psi.Error;
          Obs.Counter.incr m_err;
          Meter.charge meter u 2
        end
        else if dist_err.(u) > radius then begin
          out.(u) <- Psi.Ok;
          Obs.Counter.incr m_ok;
          Meter.charge meter u (min radius ecc_est.(u))
        end
        else begin
          out.(u) <- Psi.Ptr (pointer_for t err u ~cap);
          Obs.Counter.incr m_ptr;
          Meter.charge meter u (min radius ecc_est.(u))
        end);
    (out, meter)
end

module Prove_ref = struct
  module G = Repro_graph.Multigraph
  module T = Repro_graph.Traversal
  module Labeling = Repro_lcl.Labeling
  module Meter = Repro_local.Meter
  module Psi = Repro_gadget.Psi
  module Check = Repro_gadget.Check
  module Verifier = Verifier_ref
  module Labels = Repro_gadget.Labels
  open Repro_gadget.Labels
  open Repro_gadget.Ne_psi

  let is_nok = function NOk -> true | NPtr _ | NWit -> false
  let is_nwit = function NWit -> true | NOk | NPtr _ -> false

  let clean_half mirror =
    { mirror; bad_edge = false; color_claim = None; to_next = []; from_prev = [] }

  (* distance-9 coloring of the chain initiators: greedy, each initiator
     avoids colors of initiators within distance 9 *)
  let initiator_colors g initiators =
    let colors = Hashtbl.create 16 in
    List.iter
      (fun u ->
        let near = T.bfs_bounded g u ~radius:9 in
        let avoid = Hashtbl.create 8 in
        List.iter
          (fun (w, _) ->
            match Hashtbl.find_opt colors w with
            | Some c -> Hashtbl.replace avoid c ()
            | None -> ())
          near;
        let rec pick c = if Hashtbl.mem avoid c then pick (c + 1) else c in
        Hashtbl.replace colors u (pick 0))
      initiators;
    colors

  let prove ~delta ~n (t : Labels.t) =
    let g = t.graph in
    let psi_out, meter = Verifier.run ~delta ~n t in
    let status =
      Array.map
        (function
          | Psi.Ok -> NOk
          | Psi.Error -> NWit
          | Psi.Ptr p -> NPtr p)
        psi_out
    in
    let chains = Array.make (G.n g) [] in
    (* per-half witness data, flat: the solution is assembled from these *)
    let nh = 2 * G.m g in
    let to_next_tag = Array.make nh [] in
    let from_prev_tag = Array.make nh [] in
    let bad_edge_mark = Array.make nh false in
    let color_claim_mark = Array.make nh None in
    (* chain initiators *)
    let wants_chain u =
      let rules = Check.node_violations ~delta t u in
      let has r = List.exists (fun v -> v.Check.rule = r) rules in
      let kinds = ref [] in
      if has "2c" then begin
        match follow_path t u [ LChild; Right; Parent ] with
        | Some w when w <> u -> kinds := K2c :: !kinds
        | Some _ | None -> ()
      end;
      if has "2d" then begin
        match follow_path t u [ Right; LChild; Left; Parent ] with
        | Some w when w <> u -> kinds := K2d :: !kinds
        | Some _ | None -> ()
      end;
      !kinds
    in
    let initiators = ref [] in
    for u = 0 to G.n g - 1 do
      if is_nwit status.(u) && wants_chain u <> [] then
        initiators := u :: !initiators
    done;
    let icolors = initiator_colors g (List.rev !initiators) in
    (* lay chains *)
    List.iter
      (fun u ->
        let col = Hashtbl.find icolors u in
        List.iter
          (fun kind ->
            let rec walk v pos =
              let cid = { ccolor = col; cpos = pos; ckind = kind } in
              if not (List.mem cid chains.(v)) then
                chains.(v) <- cid :: chains.(v);
              if pos < chain_last kind then begin
                match half_with t v (chain_step kind pos) with
                | None -> () (* cannot happen: wants_chain checked the path *)
                | Some h ->
                  let prev = to_next_tag.(h) in
                  if not (List.mem cid prev) then to_next_tag.(h) <- cid :: prev;
                  let w = G.half_node g (G.mate h) in
                  let cid' = { ccolor = col; cpos = pos + 1; ckind = kind } in
                  let prev' = from_prev_tag.(G.mate h) in
                  if not (List.mem cid' prev') then
                    from_prev_tag.(G.mate h) <- cid' :: prev';
                  walk w (pos + 1)
              end
            in
            walk u 0;
            Meter.charge meter u 12)
          (wants_chain u))
      (List.rev !initiators);
    (* witnesses for edge-visible and color-visible violations *)
    for u = 0 to G.n g - 1 do
      if is_nwit status.(u) then begin
        let hs = G.halves g u in
        (* bad-edge marks *)
        Array.iter
          (fun h ->
            let m = G.mate h in
            let w = G.half_node g m in
            let bu = { bl = t.halves.(h); bcolor = t.half_color2.(h); bflags = t.half_flags.(h) } in
            let bw = { bl = t.halves.(m); bcolor = t.half_color2.(m); bflags = t.half_flags.(m) } in
            if edge_input_bad t.nodes.(u) t.nodes.(w) bu bw then
              bad_edge_mark.(h) <- true)
          hs;
        (* color claims: two halves with equal far colors *)
        let far_color h = t.nodes.(G.half_node g (G.mate h)).color2 in
        let arr = Array.map (fun h -> (far_color h, h)) hs in
        Array.sort compare arr;
        for i = 1 to Array.length arr - 1 do
          let c0, h0 = arr.(i - 1) and c1, h1 = arr.(i) in
          if c0 = c1 then begin
            color_claim_mark.(h0) <- Some c0;
            color_claim_mark.(h1) <- Some c1
          end
        done
      end
    done;
    (* chain participants that end up holding an open end must be witnesses
       only if their status is NWit; others keep pointer/Ok status — but a
       node made to hold chain tags cannot be NOk, so promote those *)
    for u = 0 to G.n g - 1 do
      match chains.(u) with
      | _ :: _ when is_nok status.(u) -> status.(u) <- NWit
      | _ -> ()
    done;
    (* one node_out per node, shared between the node slot and every
       incident half's mirror, and one clean half_out per node, shared by
       all of its halves that carry no witness data (every half of a valid
       gadget) — values are structurally what a record per half would be *)
    let outs =
      Array.init (G.n g) (fun u ->
          let chains =
            (* List.sort allocates its merge closures even on [] *)
            match chains.(u) with
            | ([] | [ _ ]) as l -> l
            | l -> List.sort compare l
          in
          { status = status.(u); chains })
    in
    let clean = Array.map clean_half outs in
    let sol : solution =
      Labeling.init g
        ~v:(fun u -> outs.(u))
        ~e:(fun _ -> ())
        ~b:(fun h ->
          let u = G.half_node g h in
          match (bad_edge_mark.(h), color_claim_mark.(h), to_next_tag.(h),
                 from_prev_tag.(h)) with
          | false, None, [], [] -> clean.(u)
          | bad_edge, color_claim, to_next, from_prev ->
            { mirror = outs.(u); bad_edge; color_claim; to_next; from_prev })
    in
    (sol, meter)
end
