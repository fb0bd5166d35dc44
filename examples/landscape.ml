(* A miniature of the paper's Figure 1: the landscape of LCL round
   complexities, measured. One row per problem, one column per input size;
   entries are measured LOCAL rounds on that problem's natural inputs.
   The rows and the classes they are declared in come from the problem
   registry (Core.Problem), ordered bottom up as in Figure 1:

   O(1)        : the trivial LCL
   Θ(log* n)   : (Δ+1)-coloring, MIS and maximal matching (flat, tiny)
   Θ(log log n): randomized sinkless orientation (the exponential gap)
   Θ(log n)    : deterministic sinkless orientation
   Θ(log n · log log n), Θ(log² n): randomized/deterministic Π² — the
   black dots this paper adds to the landscape
   Θ(n)        : 2-coloring, the global row.

   Run with: dune exec examples/landscape.exe *)

let sizes = [ 300; 3000; 30000 ]

let () =
  Printf.printf "== the complexity landscape, measured (rounds) ==\n\n";
  Printf.printf "%-12s" "problem";
  List.iter (fun n -> Printf.printf "%10s" ("n=" ^ string_of_int n)) sizes;
  Printf.printf "   %s\n" "paper says";
  List.iter
    (fun (r : Core.Problem.row) ->
      Printf.printf "%-12s" r.name;
      List.iter (Printf.printf "%10d") r.cells;
      Printf.printf "   Θ(%s)\n" (Core.Stats.Fit.model_name r.declared))
    (Core.Problem.landscape sizes);
  Printf.printf
    "\nReading the rows: flat = O(1)/log*; slowly growing = log log / log;\n";
  Printf.printf
    "the Π² rows grow strictly faster than their level-1 counterparts —\n";
  Printf.printf "the padded problems sit strictly higher in the landscape.\n"
