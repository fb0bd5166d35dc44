(* Command-line interface to the reproduction.

     repro landscape                 measured Figure-1 rows
     repro hierarchy -i 2 -t 10000   run Π^i on a hard instance
     repro gadget -H 6 [-c kind]     build/check/prove a gadget
     repro solve-so -n 10000         sinkless orientation, both solvers
     repro audit all -n 1000         locality certificates for every solver
     repro trace-report t.jsonl      recheck a recorded trace offline
     repro fuzz all -n 200 -s 42     property-based differential fuzzing
*)

module G = Core.Graph.Multigraph
module Meter = Core.Local.Meter
module SO = Core.Problems.Sinkless_orientation
module GB = Core.Gadget.Build
module GC = Core.Gadget.Check
module GL = Core.Gadget.Labels
module V = Core.Gadget.Verifier
module NP = Core.Gadget.Ne_psi
module Corrupt = Core.Gadget.Corrupt
module Psi = Core.Gadget.Psi
module Spec = Core.Padding.Spec

module Obs = Core.Obs
module DC = Core.Lcl.Distributed_check
module Problem = Core.Problem

open Cmdliner

(* ------------------------------------------------------------------ *)

let seed_arg =
  Arg.(value & opt int 1 & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"Random seed.")

(* telemetry flags, shared by every subcommand: --trace FILE records a
   JSONL trace of the run (schema: DESIGN.md §9), --stats prints the
   counter/histogram summary afterwards *)
let obs_args =
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Write a JSONL telemetry trace of the run to $(docv).")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ] ~doc:"Print the telemetry summary after the run.")
  in
  Term.(const (fun t s -> (t, s)) $ trace $ stats)

let with_obs ~label (trace, stats) f =
  if stats || trace <> None then Obs.Registry.enable ();
  let result =
    match trace with
    | None -> f ()
    | Some file ->
      (* the run executes under a cli.<label> root span; the engines'
         round spans and the pool's chunk spans nest underneath *)
      let result, events =
        Obs.Trace.record ~label (fun () -> Obs.Span.with_span ("cli." ^ label) f)
      in
      Obs.Trace.write_jsonl file events;
      Printf.printf "wrote %s (%d events)\n" file (List.length events);
      result
  in
  if stats then Format.printf "%a@." Obs.Summary.pp ();
  result

let landscape_cmd =
  let run sizes obs =
    with_obs ~label:"landscape" obs @@ fun () ->
    Format.printf "%a@." Repro_experiments.Table.pp
      (Repro_experiments.Runs.landscape sizes)
  in
  let sizes =
    Arg.(
      value
      & opt (list int) [ 1000; 10000; 100000 ]
      & info [ "sizes" ] ~docv:"N,N,..." ~doc:"Instance sizes.")
  in
  Cmd.v
    (Cmd.info "landscape" ~doc:"Measured Figure-1 landscape rows.")
    Term.(const run $ sizes $ obs_args)

let hierarchy_cmd =
  let run level target seed obs =
    with_obs ~label:"hierarchy" obs @@ fun () ->
    let stats = Spec.run_hard (Core.pi level) ~seed ~target in
    Printf.printf "problem:        %s\n" (Spec.packed_name (Core.pi level));
    Printf.printf "instance size:  %d\n" stats.Spec.n;
    Printf.printf "deterministic:  %d rounds (valid=%b)\n" stats.Spec.det_rounds
      stats.Spec.det_valid;
    Printf.printf "randomized:     %d rounds (valid=%b)\n" stats.Spec.rand_rounds
      stats.Spec.rand_valid;
    Printf.printf "D/R ratio:      %.2f\n"
      (float_of_int stats.Spec.det_rounds
      /. float_of_int (max 1 stats.Spec.rand_rounds))
  in
  let level =
    Arg.(value & opt int 2 & info [ "i"; "level" ] ~docv:"I" ~doc:"Hierarchy level.")
  in
  let target =
    Arg.(value & opt int 10000 & info [ "t"; "target" ] ~docv:"N" ~doc:"Target size.")
  in
  Cmd.v
    (Cmd.info "hierarchy" ~doc:"Run Π^i on a hard instance (Theorem 11).")
    Term.(const run $ level $ target $ seed_arg $ obs_args)

let corrupt_conv =
  let parse s =
    let all =
      List.map (fun k -> (Format.asprintf "%a" Corrupt.pp_kind k, k)) Corrupt.all_kinds
    in
    match List.assoc_opt s all with
    | Some k -> Ok k
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown corruption %S (try: %s)" s
             (String.concat ", " (List.map fst all))))
  in
  let print fmt k = Corrupt.pp_kind fmt k in
  Arg.conv (parse, print)

let gadget_cmd =
  let run height delta corrupt dot seed obs =
    with_obs ~label:"gadget" obs @@ fun () ->
    let t = GB.gadget ~delta ~height in
    let t =
      match corrupt with
      | None -> t
      | Some kind ->
        let rng = Random.State.make [| seed |] in
        Corrupt.apply rng kind t
    in
    let n = G.n t.GL.graph in
    Printf.printf "gadget: delta=%d height=%d nodes=%d edges=%d\n" delta height
      n (G.m t.GL.graph);
    let violations = GC.violations ~delta t in
    Printf.printf "structure: %s (%d violations)\n"
      (if violations = [] then "VALID" else "INVALID")
      (List.length violations);
    List.iteri
      (fun i v -> if i < 8 then Format.printf "  %a\n" GC.pp_violation v)
      violations;
    let out, m = V.run ~delta ~n t in
    Printf.printf "prover V: %s, max radius %d, proof accepted by Psi: %b\n"
      (if V.is_all_ok out then "all GadOk" else "error proof")
      (Meter.max_radius m) (Psi.is_valid ~delta t out);
    let sol, _ = NP.prove ~delta ~n t in
    Printf.printf "node-edge proof accepted: %b\n" (NP.is_valid ~delta t sol);
    match dot with
    | Some path ->
      Core.Graph.Dot.write_file ~path
        ~node_label:(fun v ->
          Format.asprintf "%a%s" GL.pp_node_kind t.GL.nodes.(v).GL.kind
            (match t.GL.nodes.(v).GL.port with
            | Some i -> Printf.sprintf "/P%d" i
            | None -> ""))
        ~edge_label:(fun e ->
          Format.asprintf "%a" GL.pp_half_label t.GL.halves.(2 * e))
        t.GL.graph;
      Printf.printf "wrote %s\n" path
    | None -> ()
  in
  let height =
    Arg.(value & opt int 5 & info [ "H"; "height" ] ~docv:"H" ~doc:"Sub-gadget height.")
  in
  let delta =
    Arg.(value & opt int 3 & info [ "d"; "delta" ] ~docv:"D" ~doc:"Number of ports.")
  in
  let corrupt =
    Arg.(
      value
      & opt (some corrupt_conv) None
      & info [ "c"; "corrupt" ] ~docv:"KIND" ~doc:"Apply a corruption.")
  in
  let dot =
    Arg.(
      value & opt (some string) None & info [ "dot" ] ~docv:"FILE" ~doc:"Write DOT.")
  in
  Cmd.v
    (Cmd.info "gadget" ~doc:"Build, check and prove a (log,Δ)-gadget.")
    Term.(const run $ height $ delta $ corrupt $ dot $ seed_arg $ obs_args)

let solve_so_cmd =
  let run n seed obs =
    with_obs ~label:"solve-so" obs @@ fun () ->
    let graph, _ = Option.get (Problem.sinkless "so-det") in
    let g = graph ~seed ~n in
    Printf.printf "n=%d (3-regular)\n" (G.n g);
    List.iter
      (fun (label, name) ->
        let _, run = Option.get (Problem.sinkless name) in
        let inst, (out, m) = run ~seed g in
        (* validity via the distributed one-round checker — the LOCAL-model
           reading of "the output is locally checkable" *)
        let verdict =
          DC.run SO.problem inst ~input:(SO.trivial_input g) ~output:out
        in
        Printf.printf "%-14s valid=%b rounds=%d\n" label verdict.DC.all_accept
          (Meter.max_radius m))
      [ ("deterministic:", "so-det"); ("randomized:", "so-rand") ]
  in
  let n = Arg.(value & opt int 10000 & info [ "n" ] ~docv:"N" ~doc:"Nodes.") in
  Cmd.v
    (Cmd.info "solve-so" ~doc:"Sinkless orientation, both solvers.")
    Term.(const run $ n $ seed_arg $ obs_args)

let solve_cmd =
  let run problem n seed out_file obs =
    match Problem.dump problem with
    | None -> `Error (false, Problem.unknown problem Problem.dump_names)
    | Some dump ->
      with_obs ~label:"solve" obs @@ fun () ->
      let solved = dump ~seed ~n in
      Printf.printf "problem=%s n=%d seed=%d rounds=%d valid=%b\n" problem n
        seed solved.Problem.rounds solved.Problem.valid;
      (match out_file with
      | None -> ()
      | Some file ->
        let oc = open_out_bin file in
        output_string oc solved.Problem.output;
        close_out oc;
        Printf.printf "wrote %s (%d bytes)\n" file
          (String.length solved.Problem.output));
      if not solved.Problem.valid then exit 1;
      `Ok ()
  in
  let problem =
    Arg.(
      value & opt string "mis"
      & info [ "p"; "problem" ] ~docv:"PROBLEM"
          ~doc:
            (Printf.sprintf "Problem to solve: %s."
               (String.concat ", " Problem.dump_names)))
  in
  let n = Arg.(value & opt int 1000 & info [ "n" ] ~docv:"N" ~doc:"Nodes.") in
  let out_file =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Write the canonical solve bytes to $(docv).")
  in
  Cmd.v
    (Cmd.info "solve"
       ~doc:
         "Solve a registry problem and dump the canonical output bytes \
          (identical at every pool size; `dune runtest` compares them \
          byte for byte).")
    Term.(ret (const run $ problem $ n $ seed_arg $ out_file $ obs_args))

let experiment_cmd =
  let module Runs = Repro_experiments.Runs in
  let run id quick csv_dir =
    (* one run per experiment: the outcome is printed by
       Runs.run_and_print and its tables reused for the CSV files *)
    let run_one (e : Runs.experiment) =
      let outcome = e.Runs.run ~quick in
      Runs.run_and_print { e with Runs.run = (fun ~quick:_ -> outcome) };
      match csv_dir with
      | Some dir ->
        List.iteri
          (fun i t ->
            let path =
              Filename.concat dir
                (Printf.sprintf "%s-%d.csv" (String.lowercase_ascii e.Runs.id) i)
            in
            Repro_experiments.Table.write_csv ~path t;
            Printf.printf "wrote %s\n" path)
          outcome.Runs.tables
      | None -> ()
    in
    match id with
    | None ->
      Printf.printf "available experiments (or all):\n";
      List.iter
        (fun (e : Runs.experiment) ->
          Printf.printf "  %-5s %s\n" e.Runs.id e.Runs.doc)
        Runs.all;
      `Ok ()
    | Some "all" ->
      List.iter
        (fun (e : Runs.experiment) ->
          Printf.printf "\n==================== %s (%s) ====================\n"
            e.Runs.id e.Runs.doc;
          run_one e)
        Runs.all;
      `Ok ()
    | Some id -> (
      match Runs.find id with
      | None ->
        `Error
          (false, Printf.sprintf "unknown experiment %S (try: all, %s)" id
                    (String.concat ", " Runs.ids))
      | Some e ->
        run_one e;
        `Ok ())
  in
  let id =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"ID" ~doc:"Experiment id, or $(b,all) (omit to list).")
  in
  let quick =
    Arg.(value & flag & info [ "q"; "quick" ] ~doc:"Smaller instance sizes.")
  in
  let csv_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"DIR" ~doc:"Also write each table as CSV into DIR.")
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:"Run one experiment from the paper's index, or all of them.")
    Term.(ret (const run $ id $ quick $ csv_dir))

(* ------------------------------------------------------------------ *)

module Prov = Core.Obs.Provenance

let audit_cmd =
  let run problem n seed cert_file obs =
    let names = if problem = "all" then Problem.audit_names else [ problem ] in
    match List.filter_map Problem.audit names with
    | [] ->
      `Error (false, Problem.unknown problem ("all" :: Problem.audit_names))
    | audits ->
      with_obs ~label:"audit" obs @@ fun () ->
      let certs =
        List.map
          (fun audit ->
            let cert = audit ~seed ~n in
            Format.printf "%a@." Obs.Summary.pp_certificate cert;
            cert)
          audits
      in
      (match cert_file with
      | Some file ->
        let events =
          List.concat_map
            (fun (c : Prov.certificate) ->
              Obs.Trace.Meta { label = "audit:" ^ c.Prov.c_label; n = c.Prov.c_n }
              :: Prov.to_events c)
            certs
        in
        Obs.Trace.write_jsonl file events;
        Printf.printf "wrote %s (%d events)\n" file (List.length events)
      | None -> ());
      let failed = List.filter (fun c -> not c.Prov.c_ok) certs in
      if failed = [] then `Ok ()
      else
        `Error
          ( false,
            Printf.sprintf "%d of %d certificate(s) FAILED"
              (List.length failed) (List.length certs) )
  in
  let problem =
    Arg.(
      value
      & pos 0 string "all"
      & info [] ~docv:"PROBLEM"
          ~doc:"Solver to audit (or $(b,all)). Try an unknown name to list.")
  in
  let n =
    Arg.(value & opt int 1000 & info [ "n" ] ~docv:"N" ~doc:"Instance size.")
  in
  let cert_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "cert" ] ~docv:"FILE"
          ~doc:"Write the certificates as JSONL audit/cert events to $(docv).")
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "Run solvers under the locality provenance auditor and certify \
          that every node's influence stayed within its declared ball.")
    Term.(ret (const run $ problem $ n $ seed_arg $ cert_file $ obs_args))

let trace_report_cmd =
  let run file against spans =
    match Obs.Trace.read_jsonl file with
    | Error msg -> `Error (false, Printf.sprintf "%s: %s" file msg)
    | Ok events -> (
      Format.printf "%a@." Obs.Summary.pp_trace events;
      (if spans then
         match Obs.Trace.spans events with
         | [] -> Printf.printf "no span events in %s\n" file
         | ss -> Format.printf "%a@." Obs.Summary.pp_span_report ss);
      let counters =
        List.filter_map
          (function
            | Obs.Trace.Counter { name; value } -> Some (name, value)
            | _ -> None)
          events
      in
      if counters <> [] then begin
        Printf.printf "trace counters:\n";
        List.iter (fun (name, v) -> Printf.printf "  %-40s %d\n" name v) counters
      end;
      let failures = Obs.Trace.check_invariants events in
      let failures =
        failures
        @
        match against with
        | None -> []
        | Some file2 -> (
          match Obs.Trace.read_jsonl file2 with
          | Error msg -> [ Printf.sprintf "%s: %s" file2 msg ]
          | Ok events2 ->
            if Obs.Trace.deterministic_equal events events2 then begin
              Printf.printf "deterministic projection matches %s\n" file2;
              []
            end
            else [ Printf.sprintf "deterministic projection differs from %s" file2 ])
      in
      match failures with
      | [] ->
        Printf.printf "invariants: PASS (%d events)\n" (List.length events);
        `Ok ()
      | fs ->
        List.iter (fun f -> Printf.printf "FAIL: %s\n" f) fs;
        `Error (false, Printf.sprintf "%d invariant failure(s)" (List.length fs))
    )
  in
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"JSONL trace to analyze.")
  in
  let against =
    Arg.(
      value
      & opt (some string) None
      & info [ "against" ] ~docv:"FILE2"
          ~doc:
            "Also check that the deterministic projection matches $(docv) \
             (e.g. the same run at a different REPRO_DOMAINS).")
  in
  let spans =
    Arg.(
      value & flag
      & info [ "spans" ]
          ~doc:
            "Print the span report: the reconstructed span tree of each \
             trace, its critical path, and per-label self-time attribution.")
  in
  Cmd.v
    (Cmd.info "trace-report"
       ~doc:
         "Recompute trace invariants offline from a recorded JSONL file: \
          round-span/counter consistency, audit balls, certificate \
          summaries, span nesting; $(b,--spans) adds the span-tree report.")
    Term.(ret (const run $ file $ against $ spans))

(* ------------------------------------------------------------------ *)

module Fuzz = Core.Fuzz

let fuzz_cmd =
  let run target count seed json out obs =
    let selected =
      if target = "all" then Ok Fuzz.Targets.all
      else
        match Fuzz.Targets.find target with
        | Some t -> Ok [ t ]
        | None ->
          Error
            (Printf.sprintf "unknown target %S (try: all, %s)" target
               (String.concat ", " Fuzz.Targets.names))
    in
    match selected with
    | Error msg -> `Error (false, msg)
    | Ok targets ->
      (match !Fuzz.Oracle.planted_bug with
      | Some b when not (List.mem b Fuzz.Oracle.known_bugs) ->
        Printf.eprintf "warning: REPRO_FUZZ_BREAK=%S is not a known bug (known: %s)\n"
          b
          (String.concat ", " Fuzz.Oracle.known_bugs)
      | _ -> ());
      with_obs ~label:"fuzz" obs @@ fun () ->
      let reports =
        List.map (fun t -> Fuzz.Targets.run t ~count ~seed) targets
      in
      if json then
        print_endline
          (Obs.Json.to_string (Fuzz.Targets.json_summary ~seed ~count reports))
      else
        List.iter
          (fun (r : Fuzz.Prop.report) ->
            Format.printf "%a@." Fuzz.Prop.pp_report r;
            match r.Fuzz.Prop.r_failure with
            | Some f ->
              Printf.printf "  rerun: repro fuzz %s -n 1 --seed %d\n"
                r.Fuzz.Prop.r_name f.Fuzz.Prop.f_replay_seed
            | None -> ())
          reports;
      let failures =
        List.filter_map (fun (r : Fuzz.Prop.report) -> r.Fuzz.Prop.r_failure)
          reports
      in
      (match out with
      | Some file ->
        let events =
          List.concat_map
            (fun (r : Fuzz.Prop.report) ->
              match r.Fuzz.Prop.r_failure with
              | None -> []
              | Some _ -> [ Fuzz.Targets.json_of_report r ])
            reports
        in
        let oc = open_out file in
        List.iter (fun j -> output_string oc (Obs.Json.to_string j ^ "\n")) events;
        close_out oc;
        if events <> [] then
          Printf.printf "wrote %s (%d shrunk counterexample(s))\n" file
            (List.length events)
      | None -> ());
      if failures = [] then `Ok ()
      else
        `Error
          ( false,
            Printf.sprintf "%d of %d fuzz target(s) FAILED" (List.length failures)
              (List.length targets) )
  in
  let target =
    Arg.(
      value
      & pos 0 string "all"
      & info [] ~docv:"TARGET"
          ~doc:"Fuzz target (or $(b,all)). Try an unknown name to list.")
  in
  let count =
    Arg.(value & opt int 200 & info [ "n"; "cases" ] ~docv:"CASES" ~doc:"Cases per target.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Print a deterministic repro-fuzz/1 JSON summary instead of text.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Write shrunk counterexamples as JSONL to $(docv) (for CI artifacts).")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Structure-aware property-based fuzzing: generate graph / gadget / \
          padded instances and fail on any disagreement between independent \
          implementations (solver vs constraint sweep vs node-centric \
          reference checker, sequential vs parallel engine, gadget Check vs \
          Verifier, locality certificates). Failures shrink to minimal \
          counterexamples and print a replay seed; runs are deterministic for a fixed seed.")
    Term.(ret (const run $ target $ count $ seed_arg $ json $ out $ obs_args))

(* ------------------------------------------------------------------ *)

module Serve = Repro_serve

let addr_args =
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Unix domain socket path.")
  in
  let tcp =
    Arg.(
      value
      & opt (some string) None
      & info [ "tcp" ] ~docv:"HOST:PORT" ~doc:"TCP address (e.g. 127.0.0.1:7464).")
  in
  let combine socket tcp =
    match (socket, tcp) with
    | Some _, Some _ -> Error "--socket and --tcp are mutually exclusive"
    | Some path, None -> Ok (Serve.Server.Unix_path path)
    | None, Some hp -> (
      match String.rindex_opt hp ':' with
      | Some i -> (
        let host = String.sub hp 0 i in
        match int_of_string_opt (String.sub hp (i + 1) (String.length hp - i - 1)) with
        | Some port -> Ok (Serve.Server.Tcp (host, port))
        | None -> Error (Printf.sprintf "bad --tcp port in %S" hp))
      | None -> Error (Printf.sprintf "bad --tcp address %S (want HOST:PORT)" hp))
    | None, None -> Ok (Serve.Server.Unix_path "repro.sock")
  in
  Term.(const combine $ socket $ tcp)

let serve_cmd =
  let run addr queue cache log =
    match addr with
    | Error msg -> `Error (false, msg)
    | Ok addr ->
      let config =
        {
          (Serve.Server.default_config addr) with
          Serve.Server.queue_capacity = queue;
          reply_cache_capacity = cache;
          log_path = log;
        }
      in
      (match addr with
      | Serve.Server.Unix_path p -> Printf.printf "repro serve: listening on %s\n%!" p
      | Serve.Server.Tcp (h, p) ->
        Printf.printf "repro serve: listening on %s:%d\n%!" h p);
      Serve.Server.run config;
      print_endline "repro serve: shut down cleanly";
      `Ok ()
  in
  let queue =
    Arg.(
      value & opt int 64
      & info [ "queue" ] ~docv:"N"
          ~doc:"Admission queue bound; further requests get a busy reply.")
  in
  let cache =
    Arg.(
      value & opt int 256
      & info [ "reply-cache" ] ~docv:"N" ~doc:"Reply cache capacity (entries).")
  in
  let log =
    Arg.(
      value
      & opt (some string) None
      & info [ "log" ] ~docv:"FILE" ~doc:"Append a JSONL request log to $(docv).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the long-lived service: length-prefixed JSON requests (solve, \
          check, audit, fuzz, bench, stats, metrics) over one domain pool, \
          with content-addressed reply/artifact caches, per-request \
          telemetry and span traces, and Prometheus-format metrics. SIGTERM \
          or SIGINT shuts down cleanly (exit 0).")
    Term.(ret (const run $ addr_args $ queue $ cache $ log))

let call_cmd =
  let run addr request spans_out =
    match addr with
    | Error msg -> `Error (false, msg)
    | Ok addr -> (
      match Obs.Json.of_string request with
      | Error e -> `Error (false, Printf.sprintf "request is not JSON: %s" e)
      | Ok req -> (
        (* --spans-out implies asking the server to trace the request *)
        let req =
          match (spans_out, req) with
          | Some _, Obs.Json.Obj fields when not (List.mem_assoc "spans" fields)
            ->
            Obs.Json.Obj (fields @ [ ("spans", Obs.Json.Bool true) ])
          | _ -> req
        in
        let reply =
          Serve.Client.with_connection addr (fun c -> Serve.Client.call c req)
        in
        print_endline (Obs.Json.to_string reply);
        (match spans_out with
        | None -> ()
        | Some file -> (
          match Obs.Json.member "spans" reply with
          | Some (Obs.Json.List items) ->
            let events =
              List.filter_map
                (fun j -> Result.to_option (Obs.Trace.event_of_json j))
                items
            in
            Obs.Trace.write_jsonl file events;
            Printf.eprintf "wrote %s (%d spans)\n%!" file (List.length events)
          | _ -> Printf.eprintf "reply carried no spans\n%!"));
        match Obs.Json.member "ok" reply with
        | Some (Obs.Json.Bool true) -> `Ok ()
        | _ -> `Error (false, "server replied with an error")))
  in
  let request =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"REQUEST" ~doc:"The request as a JSON object, e.g. \
          '{\"op\": \"solve\", \"problem\": \"so-det\", \"n\": 1000}'.")
  in
  let spans_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "spans-out" ] ~docv:"FILE"
          ~doc:
            "Ask the server to trace the request (sets \"spans\": true) and \
             write the returned span tree as JSONL to $(docv), ready for \
             $(b,repro trace-report --spans).")
  in
  Cmd.v
    (Cmd.info "call"
       ~doc:
         "Send one framed JSON request to a running repro serve daemon and \
          print the reply. Exits non-zero if the reply is an error.")
    Term.(ret (const run $ addr_args $ request $ spans_out))

let () =
  let doc = "Reproduction of 'How much does randomness help with locally checkable problems?' (PODC 2020)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "repro" ~doc)
          [
            landscape_cmd; hierarchy_cmd; gadget_cmd; solve_so_cmd; solve_cmd;
            experiment_cmd; audit_cmd; trace_report_cmd; fuzz_cmd; serve_cmd;
            call_cmd;
          ]))
