module T = Repro_graph.Traversal

type t = {
  name : string;
  delta : int;
  d_name : string;
  make : target:int -> Labels.t;
  is_valid : Labels.t -> bool;
  ne_problem : Ne_psi.problem_t;
  edge_ok : Ne_psi.edge_constraint;
  prove : n:int -> Labels.t -> Ne_psi.solution * Repro_local.Meter.t;
  depth : Labels.t -> int;
}

let log_family ~delta =
  {
    name = Printf.sprintf "log-gadgets(delta=%d)" delta;
    delta;
    d_name = "Θ(log n)";
    make =
      (fun ~target ->
        Build.gadget ~delta ~height:(Build.height_for ~delta ~target));
    is_valid = (fun t -> Check.is_valid ~delta t);
    ne_problem = Ne_psi.problem ~delta;
    edge_ok = Ne_psi.edge_ok;
    prove = (fun ~n t -> Ne_psi.prove ~delta ~n t);
    depth = (fun t -> T.diameter t.Labels.graph);
  }

let linear_family ~delta =
  {
    name = Printf.sprintf "linear-gadgets(delta=%d)" delta;
    delta;
    d_name = "Θ(n)";
    make =
      (fun ~target ->
        Linear_gadget.build ~delta ~leg:(Linear_gadget.leg_for ~delta ~target));
    is_valid = (fun t -> Linear_gadget.is_valid ~delta t);
    ne_problem = Linear_gadget.problem ~delta;
    edge_ok = Linear_gadget.edge_ok;
    prove = (fun ~n t -> Linear_gadget.prove ~delta ~n t);
    depth = (fun t -> T.diameter t.Labels.graph);
  }
