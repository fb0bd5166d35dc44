(* Reference oracle for the Ψ_G and Π' constraint kernels: the
   closure-based checks the library ran before its kernels became
   allocation-free loops on scratch views, kept verbatim (only the module
   wrappers are new). Test_kernels compares the library's kernels with
   these on valid and corrupted Π² and Π³ outputs. *)

module Ne_psi_ref = struct
  module Ne_lcl = Repro_lcl.Ne_lcl
  module Psi = Repro_gadget.Psi
  open Repro_gadget.Labels
  open Repro_gadget.Ne_psi

  let chain_mem c chains = List.mem c chains

  let check_node ~delta (nv : (node_label, unit, half_in, node_out, unit, half_out) Ne_lcl.node_view) =
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
  let psi_node_ok ~(family : Family.t) (nv : _ Ne_lcl.node_view) =
    let idxs = ref [] in
    Array.iteri
      (fun k (e : _ pe_in) -> if e.etype = GadEdge then idxs := k :: !idxs)
      nv.Ne_lcl.e_in;
    let idxs = Array.of_list (List.rev !idxs) in
    let some_ok =
      Array.for_all
        (fun k ->
          match nv.Ne_lcl.b_out.(k) with Some _ -> true | None -> false)
        idxs
    in
    some_ok
    &&
    let unwrap k =
      match nv.Ne_lcl.b_out.(k) with Some h -> h | None -> assert false
    in
    let psi_view : _ Ne_lcl.node_view =
      {
        Ne_lcl.degree = Array.length idxs;
        v_in = (nv.Ne_lcl.v_in : _ pv_in).gad_v;
        v_out = (nv.Ne_lcl.v_out : _ pv_out).psi_v;
        e_in = Array.map (fun _ -> ()) idxs;
        e_out = Array.map (fun _ -> ()) idxs;
        b_in = Array.map (fun k -> (nv.Ne_lcl.b_in.(k) : _ pb_in).gad_b) idxs;
        b_out = Array.map unwrap idxs;
      }
    in
    family.Family.ne_problem.Ne_lcl.check_node psi_view

  (* Constraint 5's hypothetical node: Π's node constraint on the virtual
     node encoded in Σ_list. *)
  let hypothetical_node_ok (p : _ Ne_lcl.t) (l : _ sigma_list) =
    let members = ref [] in
    Array.iteri (fun k m -> if m then members := k :: !members) l.s;
    let ms = Array.of_list (List.rev !members) in
    let view : _ Ne_lcl.node_view =
      {
        Ne_lcl.degree = Array.length ms;
        v_in = l.iv;
        v_out = l.ov;
        e_in = Array.map (fun k -> l.ie.(k)) ms;
        e_out = Array.map (fun k -> l.oe.(k)) ms;
        b_in = Array.map (fun k -> l.ib.(k)) ms;
        b_out = Array.map (fun k -> l.ob.(k)) ms;
      }
    in
    p.Ne_lcl.check_node view

  let check_node ~(family : Family.t) (p : _ Ne_lcl.t) (nv : _ Ne_lcl.node_view) =
    let delta = family.Family.delta in
    let vin : _ pv_in = nv.Ne_lcl.v_in in
    let vout : _ pv_out = nv.Ne_lcl.v_out in
    (* constraint 1: ε exactly on port-edge halves *)
    let eps_ok =
      Array.for_all
        (fun k ->
          let is_port = is_port_half nv.Ne_lcl.e_in.(k) in
          match nv.Ne_lcl.b_out.(k) with
          | None -> is_port
          | Some _ -> not is_port)
        (Array.init nv.Ne_lcl.degree (fun k -> k))
    in
    (* constraint 3: PortErr2 placement *)
    let port_edge_count =
      Array.fold_left
        (fun acc (e : _ pe_in) -> if e.etype = PortEdge then acc + 1 else acc)
        0 nv.Ne_lcl.e_in
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
                 if l.ib.(i - 1) <> (nv.Ne_lcl.b_in.(k) : _ pb_in).pi_b then
                   ok := false
               end)
             nv.Ne_lcl.e_in;
           !ok
         | Some _ | None -> true)
      && hypothetical_node_ok p l
    in
    eps_ok && perr2_ok && psi_ok && list_ok

  let check_edge ~(family : Family.t) (p : _ Ne_lcl.t) (ev : _ Ne_lcl.edge_view) =
    let ein : _ pe_in = ev.Ne_lcl.ee_in in
    let uin : _ pv_in = ev.Ne_lcl.u_in in
    let win : _ pv_in = ev.Ne_lcl.w_in in
    let uout : _ pv_out = ev.Ne_lcl.u_out in
    let wout : _ pv_out = ev.Ne_lcl.w_out in
    let u_ok = uout.psi_v.NP.status = NP.NOk in
    let w_ok = wout.psi_v.NP.status = NP.NOk in
    match ein.etype with
    | GadEdge -> (
      (* constraint 2: Ψ_G's edge constraint *)
      match (ev.Ne_lcl.bu_out, ev.Ne_lcl.bw_out) with
      | Some bu, Some bw ->
        let psi_view : _ Ne_lcl.edge_view =
          {
            Ne_lcl.self_loop = ev.Ne_lcl.self_loop;
            u_in = uin.gad_v;
            u_out = uout.psi_v;
            w_in = win.gad_v;
            w_out = wout.psi_v;
            ee_in = ();
            ee_out = ();
            bu_in = (ev.Ne_lcl.bu_in : _ pb_in).gad_b;
            bu_out = bu;
            bw_in = (ev.Ne_lcl.bw_in : _ pb_in).gad_b;
            bw_out = bw;
          }
        in
        family.Family.ne_problem.Ne_lcl.check_edge psi_view
        (* constraint 6, gadget edges: the Σ_list agrees across the gadget *)
        && ((not (u_ok && w_ok)) || uout.list_part = wout.list_part)
      | None, _ | _, None -> false (* constraint 1, edge side *))
    | PortEdge -> (
      (ev.Ne_lcl.bu_out = None && ev.Ne_lcl.bw_out = None)
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
          let view : _ Ne_lcl.edge_view =
            {
              Ne_lcl.self_loop = false;
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
          p.Ne_lcl.check_edge view
        else true
      | (Some _ | None), _ -> true)

  let problem ~family (spec : _ Spec.t) : _ Ne_lcl.t =
    {
      Ne_lcl.name = spec.Spec.name ^ "-padded";
      check_node = check_node ~family spec.Spec.problem;
      check_edge = check_edge ~family spec.Spec.problem;
    }

end
