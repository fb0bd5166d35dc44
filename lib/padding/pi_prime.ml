module G = Repro_graph.Multigraph
module T = Repro_graph.Traversal
module Labeling = Repro_lcl.Labeling
module Ne_lcl = Repro_lcl.Ne_lcl
module Instance = Repro_local.Instance
module Meter = Repro_local.Meter
module Ids = Repro_local.Ids
module Pool = Repro_local.Pool
module GL = Repro_gadget.Labels
module NP = Repro_gadget.Ne_psi
module GB = Repro_gadget.Build
module Family = Repro_gadget.Family
open Padded_types

let delta_of (spec : _ Spec.t) = spec.Spec.hard_max_degree

(* ------------------------------------------------------------------ *)
(* Constraints of Π' (§3.3)                                            *)
(* ------------------------------------------------------------------ *)

(* Scratch views. Constraint 5 hands Π a view of the hypothetical node
   encoded in Σ_list, and constraint 6 one of the virtual edge. Both are
   windows pointed straight at the Σ_list's arrays, with the selected
   ports as an int index; only the Σ_list's node labels, which are
   fields, go into one-slot arrays of the view's own. Every store into a
   view is skipped when the slot already holds the same ([==]) value, so
   a gadget component, whose nodes all share one Σ_list, writes no label
   at all. Constraint 2 on a gadget edge needs no view: the family's
   [edge_ok] takes Ψ_G's eight edge labels as arguments, and they are
   read straight from the padded window ([gad_v], [psi_v], [gad_b] and
   the [h] of [Some h]). On a node, constraint 2 hands Ψ_G a sub-view of
   the gadget halves only. Its labels are those same projections, with
   no array to point at, so this sub-view is the only one that copies,
   into arrays of its own (DESIGN.md §18). Each padded problem keeps one
   set of views per pool slot, padded onto cache lines of its own. A
   check that nests — Π''s constraint 5 runs Π's own node check, which
   for Π = Π^i is again a padded check — reaches a different problem's
   scratch, so no two live checks on one domain share a view. Views are
   never retained past the sub-check that reads them. *)

type psi_node_view =
  (GL.node_label, unit, NP.half_in, NP.node_out, unit, NP.half_out)
  Ne_lcl.node_view

type ('vi, 'ei, 'bi, 'vo, 'eo, 'bo) scratch = {
  psi_nv : psi_node_view;
  hyp_nv : ('vi, 'ei, 'bi, 'vo, 'eo, 'bo) Ne_lcl.node_view;
  pi_ev : ('vi, 'ei, 'bi, 'vo, 'eo, 'bo) Ne_lcl.edge_view;
}

(* Ψ_G's default labels: the scratch views' seeds, and the padded
   spec's defaults *)
let default_gad_v = { GL.kind = GL.Index 1; port = None; color2 = 0 }
let default_flags = { GL.f_right = false; f_left = false; f_child = false }
let default_gad_b = { NP.bl = GL.Up; bcolor = 0; bflags = default_flags }
let default_psi_v = { NP.status = NP.NOk; chains = [] }

let default_psi_b =
  {
    NP.mirror = default_psi_v;
    bad_edge = false;
    color_claim = None;
    to_next = [];
    from_prev = [];
  }

(* [a.(i) <- x] unless [a.(i)] already is [x] *)
let[@inline] store a i x = if a.(i) != x then a.(i) <- x

(* Views over arrays of their own, seeded with default labels (which
   gives the arrays the label types' representation). Node labels sit in
   one-slot arrays; a node view's edge and half arrays start empty, and
   are grown (the Ψ_G sub-view) or pointed at a Σ_list's (the
   hypothetical node). *)
let own_node_view ~vi ~vo : _ Ne_lcl.node_view =
  {
    Ne_lcl.vi = [| vi |];
    vo = [| vo |];
    ei = [||];
    eo = [||];
    bi = [||];
    bo = [||];
    ports = [||];
    node = 0;
    lo = 0;
    degree = 0;
    edge_shift = 0;
  }

let own_edge_view ~vi ~vo ~ei ~eo ~bi ~bo : _ Ne_lcl.edge_view =
  {
    Ne_lcl.uvi = [| vi |];
    uvo = [| vo |];
    wvi = [| vi |];
    wvo = [| vo |];
    eei = [| ei |];
    eeo = [| eo |];
    ubi = [| bi |];
    ubo = [| bo |];
    wbi = [| bi |];
    wbo = [| bo |];
    u = 0;
    w = 0;
    edge = 0;
    hu = 0;
    hw = 0;
    loop = false;
  }

let fresh_scratch (spec : _ Spec.t) =
  Pool.padded
    {
      psi_nv = Pool.padded (own_node_view ~vi:default_gad_v ~vo:default_psi_v);
      hyp_nv = Pool.padded (own_node_view ~vi:spec.Spec.dvi ~vo:spec.Spec.dvo);
      pi_ev =
        Pool.padded
          (own_edge_view ~vi:spec.Spec.dvi ~vo:spec.Spec.dvo ~ei:spec.Spec.dei
             ~eo:spec.Spec.deo ~bi:spec.Spec.dbi ~bo:spec.Spec.dbo);
    }

(* The calling pool slot's scratch ({!Pool.worker_index}), made on the
   slot's first check. The slot array grows on demand, since a padded
   problem is usually built before [Pool.set_size] fixes the slot count.
   Only slot [i]'s own domain reads or writes entry [i]; a grower copies
   the entries it sees, so an entry written meanwhile into the replaced
   array is lost and simply made again on that slot's next check. *)
let slot_scratch slots spec =
  let i = Pool.worker_index () in
  let a = Atomic.get slots in
  if i < Array.length a then
    match a.(i) with
    | Some sc -> sc
    | None ->
      let sc = fresh_scratch spec in
      a.(i) <- Some sc;
      sc
  else begin
    let sc = fresh_scratch spec in
    let rec grow () =
      let a = Atomic.get slots in
      let len = max (Array.length a) (max (i + 1) (Pool.worker_slots ())) in
      let b = Array.make len None in
      Array.blit a 0 b 0 (Array.length a);
      b.(i) <- Some sc;
      if not (Atomic.compare_and_set slots a b) then grow ()
    in
    grow ();
    sc
  end

(* Ψ_G's node sub-view, with room for [d] ports *)
let psi_sub_view sc d =
  let v = sc.psi_nv in
  if Array.length v.Ne_lcl.bi < d then begin
    v.Ne_lcl.ei <- Array.make d ();
    v.Ne_lcl.eo <- Array.make d ();
    v.Ne_lcl.bi <- Array.make d default_gad_b;
    v.Ne_lcl.bo <- Array.make d default_psi_b;
    v.Ne_lcl.ports <- Array.init d Fun.id
  end;
  v

let is_nok (o : NP.node_out) =
  match o.NP.status with NP.NOk -> true | NP.NPtr _ | NP.NWit -> false

(* Constraint 5's hypothetical node: Π's node constraint on the virtual
   node encoded in Σ_list, a window on its arrays through the index of
   its selected ports *)
let hypothetical_node_ok spec sc (l : _ sigma_list) =
  let hv = sc.hyp_nv in
  let s = l.s in
  if Array.length hv.Ne_lcl.ports < Array.length s then
    hv.Ne_lcl.ports <- Array.make (Array.length s) 0;
  let sel = hv.Ne_lcl.ports in
  let k = ref 0 in
  for i = 0 to Array.length s - 1 do
    if s.(i) then begin
      sel.(!k) <- i;
      incr k
    end
  done;
  store hv.Ne_lcl.vi 0 l.iv;
  store hv.Ne_lcl.vo 0 l.ov;
  if hv.Ne_lcl.ei != l.ie then hv.Ne_lcl.ei <- l.ie;
  if hv.Ne_lcl.eo != l.oe then hv.Ne_lcl.eo <- l.oe;
  if hv.Ne_lcl.bi != l.ib then hv.Ne_lcl.bi <- l.ib;
  if hv.Ne_lcl.bo != l.ob then hv.Ne_lcl.bo <- l.ob;
  hv.Ne_lcl.degree <- !k;
  spec.Spec.problem.Ne_lcl.check_node hv

(* constraint 5's copy rule: the unique incident port edge's Π-inputs
   are the Σ_list entries of port [i] *)
let port_inputs_copied (l : _ sigma_list) i nv =
  let ok = ref true in
  for k = 0 to Ne_lcl.degree nv - 1 do
    let e : _ pe_in = Ne_lcl.e_in nv k in
    if e.etype = PortEdge then begin
      if l.ie.(i - 1) <> e.pi_e then ok := false;
      if l.ib.(i - 1) <> (Ne_lcl.b_in nv k : _ pb_in).pi_b then ok := false
    end
  done;
  !ok

(* Every constraint is evaluated, in this order, before the verdict is
   combined: a sub-check that raises on malformed labels raises no matter
   how the others come out. *)
let check_node ~(family : Family.t) ~slots spec nv =
  let sc = slot_scratch slots spec in
  let delta = family.Family.delta in
  (* the window's raw fields (Ne_lcl's raw window access): this kernel
     runs at every padded node of every check *)
  let vin : _ pv_in = nv.Ne_lcl.vi.(nv.Ne_lcl.node) in
  let vout : _ pv_out = nv.Ne_lcl.vo.(nv.Ne_lcl.node) in
  let ei : _ pe_in array = nv.Ne_lcl.ei and bi : _ pb_in array = nv.Ne_lcl.bi in
  let bo : pb_out array = nv.Ne_lcl.bo and ports = nv.Ne_lcl.ports in
  let lo = nv.Ne_lcl.lo and shift = nv.Ne_lcl.edge_shift in
  let d = nv.Ne_lcl.degree in
  (* One pass reads each port's labels once: constraint 1 (ε exactly on
     port-edge halves), the port-edge count of constraint 3, and the
     gadget halves of constraint 2's Ψ_G sub-view, copied into it *)
  let sub = psi_sub_view sc d in
  let eps_ok = ref true and port_edges = ref 0 in
  let gad_some = ref true and k = ref 0 in
  for i = 0 to d - 1 do
    let h = ports.(lo + i) in
    let gad = ei.(h lsr shift).etype = GadEdge in
    if not gad then incr port_edges;
    match bo.(h) with
    | None ->
      if gad then begin
        eps_ok := false;
        gad_some := false
      end
    | Some ho ->
      if gad then begin
        store sub.Ne_lcl.bi !k bi.(h).gad_b;
        store sub.Ne_lcl.bo !k ho;
        incr k
      end
      else eps_ok := false
  done;
  (* constraint 3: PortErr2 placement *)
  let perr2_ok =
    match vin.gad_v.GL.port with
    | Some _ -> (vout.perr = PortErr2) = (!port_edges <> 1)
    | None -> vout.perr <> PortErr2
  in
  (* constraint 2: Ψ_G's node constraint over gadget edges only *)
  let psi_ok =
    !gad_some
    &&
    (store sub.Ne_lcl.vi 0 vin.gad_v;
     store sub.Ne_lcl.vo 0 vout.psi_v;
     sub.Ne_lcl.degree <- !k;
     family.Family.ne_problem.Ne_lcl.check_node sub)
  in
  (* constraint 5, gated on the gadget claiming GadOk *)
  let list_ok =
    (not (is_nok vout.psi_v))
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
       | Some i when l.s.(i - 1) -> port_inputs_copied l i nv
       | Some _ | None -> true)
    && hypothetical_node_ok spec sc l
  in
  !eps_ok && perr2_ok && psi_ok && list_ok

(* constraint 4 at one side [x] of a port edge facing [y] *)
let c4_side (xin : _ pv_in) (xout : _ pv_out) (yin : _ pv_in)
    (yout : _ pv_out) =
  match xin.gad_v.GL.port with
  | None -> true
  | Some _ ->
    let both_ports_ok =
      yin.gad_v.GL.port <> None && is_nok xout.psi_v && is_nok yout.psi_v
    in
    let facing_bad =
      yin.gad_v.GL.port = None
      || (not (is_nok xout.psi_v))
      || not (is_nok yout.psi_v)
    in
    ((not both_ports_ok) || xout.perr <> PortErr1)
    && ((not facing_bad) || xout.perr <> NoPortErr)

(* constraint 6's virtual edge between port [i] of [lu] and port [j] of
   [lw]: a window on the two Σ_lists' arrays *)
let virtual_edge_ok spec sc (lu : _ sigma_list) i (lw : _ sigma_list) j =
  let view = sc.pi_ev in
  store view.Ne_lcl.uvi 0 lu.iv;
  store view.Ne_lcl.uvo 0 lu.ov;
  store view.Ne_lcl.wvi 0 lw.iv;
  store view.Ne_lcl.wvo 0 lw.ov;
  if view.Ne_lcl.eei != lu.ie then view.Ne_lcl.eei <- lu.ie;
  if view.Ne_lcl.eeo != lu.oe then view.Ne_lcl.eeo <- lu.oe;
  if view.Ne_lcl.ubi != lu.ib then view.Ne_lcl.ubi <- lu.ib;
  if view.Ne_lcl.ubo != lu.ob then view.Ne_lcl.ubo <- lu.ob;
  if view.Ne_lcl.wbi != lw.ib then view.Ne_lcl.wbi <- lw.ib;
  if view.Ne_lcl.wbo != lw.ob then view.Ne_lcl.wbo <- lw.ob;
  view.Ne_lcl.edge <- i - 1;
  view.Ne_lcl.hu <- i - 1;
  view.Ne_lcl.hw <- j - 1;
  spec.Spec.problem.Ne_lcl.check_edge view

let check_edge ~(family : Family.t) ~slots spec ev =
  (* raw window fields, as in [check_node] *)
  let ein : _ pe_in = ev.Ne_lcl.eei.(ev.Ne_lcl.edge) in
  let uin : _ pv_in = ev.Ne_lcl.uvi.(ev.Ne_lcl.u) in
  let win : _ pv_in = ev.Ne_lcl.wvi.(ev.Ne_lcl.w) in
  let uout : _ pv_out = ev.Ne_lcl.uvo.(ev.Ne_lcl.u) in
  let wout : _ pv_out = ev.Ne_lcl.wvo.(ev.Ne_lcl.w) in
  let bu_out : pb_out = ev.Ne_lcl.ubo.(ev.Ne_lcl.hu) in
  let bw_out : pb_out = ev.Ne_lcl.wbo.(ev.Ne_lcl.hw) in
  let u_ok = is_nok uout.psi_v in
  let w_ok = is_nok wout.psi_v in
  match ein.etype with
  | GadEdge -> (
    (* constraint 2: Ψ_G's edge constraint *)
    match (bu_out, bw_out) with
    | Some bu, Some bw ->
      let bu_in : _ pb_in = ev.Ne_lcl.ubi.(ev.Ne_lcl.hu) in
      let bw_in : _ pb_in = ev.Ne_lcl.wbi.(ev.Ne_lcl.hw) in
      family.Family.edge_ok uin.gad_v win.gad_v uout.psi_v wout.psi_v
        bu_in.gad_b bw_in.gad_b bu bw
      (* constraint 6, gadget edges: the Σ_list agrees across the gadget
         (the solver gives a whole component one shared Σ_list) *)
      && ((not (u_ok && w_ok))
         || uout.list_part == wout.list_part
         || uout.list_part = wout.list_part)
    | None, _ | _, None -> false (* constraint 1, edge side *))
  | PortEdge -> (
    (match (bu_out, bw_out) with
    | None, None -> true
    | Some _, _ | _, Some _ -> false)
    (* constraint 4 *)
    && c4_side uin uout win wout
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
        && virtual_edge_ok spec (slot_scratch slots spec) lu i lw j
      else true
    | (Some _ | None), _ -> true)

let problem ~family (spec : _ Spec.t) : _ Ne_lcl.t =
  let slots = Atomic.make [||] in
  {
    Ne_lcl.name = spec.Spec.name ^ "-padded";
    check_node = check_node ~family ~slots spec;
    check_edge = check_edge ~family ~slots spec;
  }

(* ------------------------------------------------------------------ *)
(* The Lemma-4 solver                                                  *)
(* ------------------------------------------------------------------ *)

type comp_data = {
  members : int array;          (* padded ids, local order *)
  labels : GL.t;                (* physically shared by equal local forms *)
  rep : int;                    (* first component with this local form *)
  mutable valid : bool;
  mutable vnode : int;          (* virtual node id, or -1 *)
}

(* Interning. On hard instances every base node carries a copy of one
   gadget, so most components have the same local form: the same sizes,
   local edge list and labels. Each component is compared in full
   against the representative the previous component matched, reading
   its labels in place from the input labeling. Only on a miss is it
   hashed and compared against the earlier representatives with that
   hash. A match shares the representative's [GL.t], so its arrays and
   CSR are never built and the solver proves it once. Only a new
   representative's arrays are filled. Each form has one
   representative, so trying the last one first picks the
   representative the hash would have found. The table lives for one
   call. Equal forms get equal Ψ_G proofs, since the prover reads only
   the labeled gadget and the call's promise [n]. *)

(* A component read in place: its [nc] members (padded ids in local
   order) and its [gm] gadget edges [ebuf.(e0)] .. [ebuf.(e0 + gm - 1)],
   in global edge order. Local half [lh] is padded half
   [padded_half c lh], at local node [local_node c lh]. *)
type 'a comp_view = {
  input : 'a;
  local : int array;
  hn : int array;
  ebuf : int array;
  mem : int array;
  e0 : int;
  nc : int;
  gm : int;
}

let padded_half c lh = (2 * c.ebuf.(c.e0 + (lh lsr 1))) + (lh land 1)

let local_node c lh = c.local.(c.hn.(padded_half c lh))

let node_in (c : (_ pv_in, _, _) Labeling.t comp_view) l =
  c.input.Labeling.v.(c.mem.(l)).gad_v

let half_in (c : (_, _, _ pb_in) Labeling.t comp_view) lh =
  c.input.Labeling.b.(padded_half c lh).gad_b

let mix h x = ((h * 31) + x) land max_int

(* The hash reads the whole structure (sizes and local edge list) but
   the labels of only the first and last node and half. Label variants of
   one structure, such as a copy with one corrupted label, may share a
   bucket: the complete compare tells them apart. The sampled ends still
   separate the isolated nodes of a garbage input by their labels. *)
let form_hash c =
  let h = ref (mix c.nc c.gm) in
  for lh = 0 to (2 * c.gm) - 1 do
    h := mix !h (local_node c lh)
  done;
  let h =
    mix
      (mix !h (Hashtbl.hash (node_in c 0)))
      (Hashtbl.hash (node_in c (c.nc - 1)))
  in
  if c.gm = 0 then h
  else
    mix
      (mix h (Hashtbl.hash (half_in c 0)))
      (Hashtbl.hash (half_in c ((2 * c.gm) - 1)))

(* the component in view has the local form of [r]: every node and half
   is compared, records [==] first and structurally only when that
   fails. On copies of one gadget the labels are the gadget's own
   records, so [==] decides. *)
let same_form (r : GL.t) c =
  G.n r.GL.graph = c.nc
  && G.m r.GL.graph = c.gm
  &&
  let rhn = G.half_node_flat r.GL.graph in
  let halves = r.GL.halves and flags = r.GL.half_flags in
  let color2 = r.GL.half_color2 and nodes = r.GL.nodes in
  let ib = c.input.Labeling.b and iv = c.input.Labeling.v in
  let ebuf = c.ebuf and local = c.local and hn = c.hn and mem = c.mem in
  let ok = ref true and lh = ref 0 in
  while !ok && !lh < 2 * c.gm do
    let h = (2 * ebuf.(c.e0 + (!lh lsr 1))) + (!lh land 1) in
    let b = ib.(h).gad_b in
    let bl = halves.(!lh) and fl = flags.(!lh) in
    ok :=
      rhn.(!lh) = local.(hn.(h))
      && color2.(!lh) = b.NP.bcolor
      && (bl == b.NP.bl || bl = b.NP.bl)
      && (fl == b.NP.bflags || fl = b.NP.bflags);
    incr lh
  done;
  let l = ref 0 in
  while !ok && !l < c.nc do
    let a = nodes.(!l) and b = iv.(mem.(!l)).gad_v in
    ok := a == b || a = b;
    incr l
  done;
  !ok

(* the component in view as a gadget candidate of its own *)
let form_labels c =
  let hm = 2 * c.gm in
  {
    GL.graph =
      G.of_half_node ~n:c.nc ~m:c.gm
        (Array.init hm (local_node c));
    nodes = Array.init c.nc (node_in c);
    halves = Array.init hm (fun lh -> (half_in c lh).NP.bl);
    half_color2 = Array.init hm (fun lh -> (half_in c lh).NP.bcolor);
    half_flags = Array.init hm (fun lh -> (half_in c lh).NP.bflags);
  }

(* Split an arbitrary Π'-instance into its gadget components (connected
   components of the GadEdge subgraph) and re-assemble each as a labeled
   gadget candidate for Ψ_G, interning equal local forms. Returns the
   component of every node, the local edge of every padded edge (-1 on
   port edges) and the components. *)
let gadget_components g (input : _ Labeling.t) =
  let n = G.n g and m = G.m g in
  let ie : _ pe_in array = input.Labeling.e in
  let comp = Array.make n (-1) in
  let ncomp = ref 0 in
  (* flat-array FIFO over the raw CSR arrays: same traversal (and so the
     same component and local numbering) as a Queue-based BFS, without
     per-node queue cells or closures *)
  let q = Array.make n 0 in
  let off = G.ports_off g and prt = G.ports_flat g in
  let hn = G.half_node_flat g in
  for s = 0 to n - 1 do
    if comp.(s) < 0 then begin
      let head = ref 0 and tail = ref 0 in
      comp.(s) <- !ncomp;
      q.(!tail) <- s;
      incr tail;
      while !head < !tail do
        let v = q.(!head) in
        incr head;
        for i = off.(v) to off.(v + 1) - 1 do
          let h = prt.(i) in
          let w = hn.(h lxor 1) in
          if comp.(w) < 0 && ie.(h lsr 1).etype = GadEdge then begin
            comp.(w) <- !ncomp;
            q.(!tail) <- w;
            incr tail
          end
        done
      done;
      incr ncomp
    end
  done;
  let ncomp = !ncomp in
  (* the queue is spent: its array takes the local numbers *)
  let local = q in
  let sizes = Array.make ncomp 0 in
  for v = 0 to n - 1 do
    local.(v) <- sizes.(comp.(v));
    sizes.(comp.(v)) <- sizes.(comp.(v)) + 1
  done;
  let members = Array.init ncomp (fun c -> Array.make sizes.(c) 0) in
  for v = 0 to n - 1 do
    members.(comp.(v)).(local.(v)) <- v
  done;
  (* per-component edges in global edge order, bucketed CSR-style; a
     gadget edge's place in its bucket is its local edge [ledge.(e)],
     which is -1 on port edges *)
  let ecount = Array.make ncomp 0 in
  for e = 0 to m - 1 do
    if ie.(e).etype = GadEdge then begin
      let c = comp.(hn.(2 * e)) in
      ecount.(c) <- ecount.(c) + 1
    end
  done;
  let eoff = Array.make (ncomp + 1) 0 in
  for c = 0 to ncomp - 1 do
    eoff.(c + 1) <- eoff.(c) + ecount.(c)
  done;
  let ebuf = Array.make eoff.(ncomp) 0 in
  let ecur = Array.copy eoff in
  let ledge = Array.make m (-1) in
  for e = 0 to m - 1 do
    if ie.(e).etype = GadEdge then begin
      let c = comp.(hn.(2 * e)) in
      let k = ecur.(c) in
      ebuf.(k) <- e;
      ecur.(c) <- k + 1;
      ledge.(e) <- k - eoff.(c)
    end
  done;
  (* local-form hash -> (representative, its labels) *)
  let reps = Hashtbl.create 16 in
  let last = ref None in
  let comps =
    Array.init ncomp (fun c ->
        let mem = members.(c) in
        let view =
          {
            input;
            local;
            hn;
            ebuf;
            mem;
            e0 = eoff.(c);
            nc = sizes.(c);
            gm = ecount.(c);
          }
        in
        let rep, labels =
          match !last with
          | Some ((_, labels) as found) when same_form labels view -> found
          | Some _ | None ->
            let key = form_hash view in
            let found =
              match
                List.find_opt
                  (fun (_, labels) -> same_form labels view)
                  (Hashtbl.find_all reps key)
              with
              | Some found -> found
              | None ->
                let found = (c, form_labels view) in
                Hashtbl.add reps key found;
                found
            in
            last := Some found;
            found
        in
        { members = mem; labels; rep; valid = false; vnode = -1 })
  in
  (comp, ledge, comps)

(* distinct identifiers not used by [used], starting from 1 *)
let fresh_ids used k =
  let taken = Hashtbl.create (2 * List.length used) in
  List.iter (fun x -> Hashtbl.replace taken x ()) used;
  let out = ref [] in
  let next = ref 1 in
  for _ = 1 to k do
    while Hashtbl.mem taken !next do
      incr next
    done;
    Hashtbl.replace taken !next ();
    out := !next :: !out
  done;
  List.rev !out

let double_sweep_diameter g =
  if G.n g = 0 then 0
  else begin
    let d0 = T.bfs g 0 in
    let a = ref 0 in
    Array.iteri (fun v d -> if d > d0.(!a) then a := v) d0;
    let da = T.bfs g !a in
    Array.fold_left max 0 da
  end

(* a Σ_list with no valid port: every entry the spec's default *)
let fresh_sigma ~delta (spec : _ Spec.t) =
  {
    s = Array.make delta false;
    iv = spec.Spec.dvi;
    ie = Array.make delta spec.Spec.dei;
    ib = Array.make delta spec.Spec.dbi;
    ov = spec.Spec.dvo;
    oe = Array.make delta spec.Spec.deo;
    ob = Array.make delta spec.Spec.dbo;
  }

(* Lemma 4. Steps 1–4 do not depend on [~which]: they prove Ψ_G, fill
   every output field but the Σ_lists' virtual outputs, and build the
   virtual instance. Step 5 runs Π's solver and step 6 writes its
   outputs into the Σ_lists and charges Lemma 4's overhead. *)
let solve ~(family : Family.t) (spec : _ Spec.t) ~which inst (input : _ Labeling.t) =
  let delta = family.Family.delta in
  let g = inst.Instance.graph in
  let n = G.n g and m = G.m g in
  let off = G.ports_off g and prt = G.ports_flat g in
  let hn = G.half_node_flat g in
  let iv : _ pv_in array = input.Labeling.v in
  let ie : _ pe_in array = input.Labeling.e in
  let ib : _ pb_in array = input.Labeling.b in
  let ids = inst.Instance.ids in
  let comp, ledge, comps = gadget_components g input in
  let ncomp = Array.length comps in
  (* 1. prove Ψ_G once per local form, in component order: a component
     interned to an earlier one takes its representative's proof and
     verdict, its Ψ_G outputs and the radii of its proof's meter. The
     valid components are virtual nodes 0, 1, ..., in component order,
     and the largest valid gadget diameter scales Lemma 4's overhead *)
  let proofs = Array.make ncomp None in
  let nvalid = ref 0 and dmax = ref 0 in
  Array.iteri
    (fun c cd ->
      if cd.rep = c then begin
        let sol, pm =
          family.Family.prove ~n:inst.Instance.n_promise cd.labels
        in
        proofs.(c) <-
          Some (sol, Array.init (Array.length cd.members) (Meter.radius pm));
        cd.valid <- Array.for_all is_nok sol.Labeling.v;
        if cd.valid then
          dmax := max !dmax (double_sweep_diameter cd.labels.GL.graph)
      end
      else cd.valid <- comps.(cd.rep).valid;
      if cd.valid then begin
        cd.vnode <- !nvalid;
        incr nvalid
      end)
    comps;
  let nvalid = !nvalid and dmax = !dmax in
  (* 2. one pass over each component's members: the Ψ_G pull-back and
     charge, the port classification (counting port-edge halves), the
     Σ_list's Π-inputs, the virtual node's id (the least member id) and
     the node's output record. [rad] holds the meter's charges *)
  let rad = Array.make n 0 in
  let sigma = Array.map (fun _ -> fresh_sigma ~delta spec) comps in
  let psi_half = Array.make (2 * m) None in
  (* the last [Some] written: consecutive halves whose Ψ_G outputs are
     physically equal (the prover shares one clean half per node, and one
     across all nodes with nothing to prove) share it too *)
  let last = ref None in
  let out_v =
    if n = 0 then [||]
    else
      Array.make n
        {
          list_part = sigma.(comp.(0));
          perr = NoPortErr;
          psi_v = default_psi_v;
        }
  in
  let comp_of_vnode = Array.make nvalid 0 and vmin = Array.make nvalid 0 in
  let port_halves = ref 0 in
  for c = 0 to ncomp - 1 do
    let cd = comps.(c) in
    let sol, prad = Option.get proofs.(cd.rep) in
    let sv = sol.Labeling.v and sb = sol.Labeling.b in
    let l = sigma.(c) and mem = cd.members in
    let mn = ref max_int in
    for lv = 0 to Array.length mem - 1 do
      let v = mem.(lv) in
      (* the Ψ_G charge, and at least the port classification's 2 *)
      rad.(v) <- (if prad.(lv) > 2 then prad.(lv) else 2);
      if ids.(v) < !mn then mn := ids.(v);
      (* each gadget half takes its local half's Ψ_G output; the
         port-edge halves are counted, and the last one kept *)
      let pe = ref 0 and ph = ref (-1) in
      for i = off.(v) to off.(v + 1) - 1 do
        let h = prt.(i) in
        let le = ledge.(h lsr 1) in
        if le >= 0 then begin
          let ho = sb.((2 * le) + (h land 1)) in
          match !last with
          | Some prev as s when prev == ho -> psi_half.(h) <- s
          | Some _ | None ->
            let s = Some ho in
            last := s;
            psi_half.(h) <- s
        end
        else begin
          incr pe;
          ph := h
        end
      done;
      port_halves := !port_halves + !pe;
      let vin = iv.(v) in
      let perr =
        match vin.gad_v.GL.port with
        | None -> NoPortErr
        | Some _ when !pe <> 1 -> PortErr2
        | Some i ->
          let w = hn.(!ph lxor 1) in
          if
            iv.(w).gad_v.GL.port = None
            || (not cd.valid)
            || not comps.(comp.(w)).valid
          then PortErr1
          else begin
            (* a valid port lists its port edge's Π-inputs *)
            l.s.(i - 1) <- true;
            l.ie.(i - 1) <- ie.(!ph lsr 1).pi_e;
            l.ib.(i - 1) <- ib.(!ph).pi_b;
            NoPortErr
          end
      in
      (match vin.gad_v.GL.port with
      | Some 1 when cd.valid -> l.iv <- vin.pi_v
      | Some _ | None -> ());
      out_v.(v) <- { list_part = l; perr; psi_v = sv.(lv) }
    done;
    if cd.valid then begin
      comp_of_vnode.(cd.vnode) <- c;
      vmin.(cd.vnode) <- !mn
    end
  done;
  (* 3. the virtual multigraph, one edge per port edge with a valid port
     at either end, in padded edge order; a valid port facing an invalid
     one gets a phantom neighbour, numbered after the valid components.
     Virtual half [vh] stands for padded half [vh_padded.(vh)] *)
  let vhn = Array.make !port_halves 0 in
  let vh_padded = Array.make !port_halves 0 in
  let nvirt = ref nvalid and vm = ref 0 in
  let add a b ha hb =
    let j = 2 * !vm in
    vhn.(j) <- a;
    vhn.(j + 1) <- b;
    vh_padded.(j) <- ha;
    vh_padded.(j + 1) <- hb;
    incr vm
  in
  let phantom () =
    let ph = !nvirt in
    incr nvirt;
    ph
  in
  let vnode_of v =
    match (out_v.(v).perr, iv.(v).gad_v.GL.port) with
    | NoPortErr, Some _ -> comps.(comp.(v)).vnode
    | (NoPortErr | PortErr1 | PortErr2), _ -> -1
  in
  for e = 0 to m - 1 do
    if ledge.(e) < 0 then begin
      let vu = vnode_of hn.(2 * e) and vw = vnode_of hn.((2 * e) + 1) in
      if vu >= 0 && vw >= 0 then add vu vw (2 * e) ((2 * e) + 1)
      else if vu >= 0 then add vu (phantom ()) (2 * e) ((2 * e) + 1)
      else if vw >= 0 then add (phantom ()) vw ((2 * e) + 1) (2 * e)
    end
  done;
  let vm = !vm and nvirt = !nvirt in
  let vhn =
    if 2 * vm = Array.length vhn then vhn else Array.sub vhn 0 (2 * vm)
  in
  let vgraph = G.of_half_node ~n:nvirt ~m:vm vhn in
  let vids = Array.make nvirt 0 in
  Array.blit vmin 0 vids 0 nvalid;
  if nvirt > nvalid then
    List.iteri
      (fun i id -> vids.(nvalid + i) <- id)
      (fresh_ids
         (List.filter (fun x -> x > 0) (Array.to_list vmin))
         (nvirt - nvalid));
  (* 4. the virtual instance: a valid component's node input is its
     Σ_list's (its port-1 node's Π-input), a phantom's the default *)
  let vinput =
    Labeling.init vgraph
      ~v:(fun vn ->
        if vn < nvalid then sigma.(comp_of_vnode.(vn)).iv else spec.Spec.dvi)
      ~e:(fun ve -> ie.(vh_padded.(2 * ve) lsr 1).pi_e)
      ~b:(fun vh -> ib.(vh_padded.(vh)).pi_b)
  in
  let vinst =
    Instance.create
      ~seed:((inst.Instance.seed * 31) + 17)
      ~ids:vids ~n_promise:inst.Instance.n_promise vgraph
  in
  (* 5. run Π's solver on the virtual instance *)
  let solver =
    match which with
    | `Det -> spec.Spec.solve_det
    | `Rand -> spec.Spec.solve_rand
  in
  let vout, vmeter = solver vinst vinput in
  (* 6. write the virtual outputs into the Σ_lists, at the port each
     virtual half's padded half sits on *)
  for vn = 0 to nvalid - 1 do
    sigma.(comp_of_vnode.(vn)).ov <- vout.Labeling.v.(vn)
  done;
  for vh = 0 to (2 * vm) - 1 do
    let vn = vhn.(vh) in
    if vn < nvalid then
      match iv.(hn.(vh_padded.(vh))).gad_v.GL.port with
      | Some i ->
        let l = sigma.(comp_of_vnode.(vn)) in
        l.oe.(i - 1) <- vout.Labeling.e.(vh lsr 1);
        l.ob.(i - 1) <- vout.Labeling.b.(vh)
      | None -> ()
  done;
  (* the meter: Lemma 4's communication overhead on every valid member *)
  for vn = 0 to nvalid - 1 do
    let r = (Meter.radius vmeter vn + 1) * (dmax + 2) in
    let mem = comps.(comp_of_vnode.(vn)).members in
    for i = 0 to Array.length mem - 1 do
      if r > rad.(mem.(i)) then rad.(mem.(i)) <- r
    done
  done;
  ( { Labeling.v = out_v; e = Array.make m (); b = psi_half },
    Meter.of_radii rad )

(* ------------------------------------------------------------------ *)
(* pad: Theorem 1's Π ↦ Π'                                             *)
(* ------------------------------------------------------------------ *)

let problem_of = problem

let isqrt x =
  let r = int_of_float (sqrt (float_of_int x)) in
  let r = if (r + 1) * (r + 1) <= x then r + 1 else r in
  max 1 r

let hard_instance_parts_with (family : Family.t) (spec : _ Spec.t) rng
    ~base_target ~gadget_target =
  let base_g, base_in = spec.Spec.hard_instance rng ~target:base_target in
  let gadget = family.Family.make ~target:gadget_target in
  let pg =
    Padded_graph.build base_g ~delta:family.Family.delta
      ~gadget_for:(fun _ -> gadget)
  in
  let inp =
    Padded_graph.input_labeling pg ~base_input:base_in ~dei:spec.Spec.dei
      ~dbi:spec.Spec.dbi
  in
  (pg, inp)

let hard_instance_parts (spec : _ Spec.t) rng ~base_target ~gadget_target =
  hard_instance_parts_with
    (Family.log_family ~delta:(delta_of spec))
    spec rng ~base_target ~gadget_target

let pad_with (family : Family.t) (spec : _ Spec.t) : _ Spec.t =
  if family.Family.delta < spec.Spec.hard_max_degree then
    invalid_arg "Pi_prime.pad_with: family delta below hard-instance degree";
  let delta = family.Family.delta in
  {
    Spec.name = spec.Spec.name ^ "'";
    problem = problem_of ~family spec;
    dvi =
      {
        pi_v = spec.Spec.dvi;
        gad_v = default_gad_v;
      };
    dei = { pi_e = spec.Spec.dei; etype = GadEdge };
    dbi =
      {
        pi_b = spec.Spec.dbi;
        gad_b = default_gad_b;
      };
    dvo =
      {
        list_part = fresh_sigma ~delta spec;
        perr = NoPortErr;
        psi_v = default_psi_v;
      };
    deo = ();
    dbo = None;
    solve_det = solve ~family spec ~which:`Det;
    solve_rand = solve ~family spec ~which:`Rand;
    hard_instance =
      (fun rng ~target ->
        let base_target = max 4 (isqrt target) in
        let gadget_target = max 10 (target / base_target) in
        let pg, inp =
          hard_instance_parts_with family spec rng ~base_target ~gadget_target
        in
        (pg.Padded_graph.padded, inp));
    hard_max_degree = max 5 delta;
  }

let pad (spec : _ Spec.t) : _ Spec.t =
  pad_with (Family.log_family ~delta:(delta_of spec)) spec

let pad_packed (Spec.Packed spec) = Spec.Packed (pad spec)

let pad_packed_with family (Spec.Packed spec) = Spec.Packed (pad_with family spec)
