(* The round engine, driven by the live (un-halted) node set.

   The live set is an explicit {!Frontier_set}: round 0 starts with the
   full frontier (covering every mailbox slot), each receive phase
   counts the newly halted, and the post-round filter drops them from
   the set in insertion order. A round then costs O(frontier nodes +
   frontier edges), not O(n + m).

   Both phases are embarrassingly parallel over the live set, and each
   writes only index-owned locations:

   - send: node [v] writes the mailbox slots [mate h] for its own halves
     [h]; every half belongs to exactly one node, so the written slots
     partition the mailbox. It reads only [states.(v)], which receive
     wrote in the *previous* phase (a pool barrier apart).
   - receive: node [v] reads the mailbox (frozen during this phase) and
     writes [states/outputs/halted/rounds] at its own index only.

   Hence any pool size, and either iteration order (sparse member order
   or dense bitmap order), is bit-identical to the sequential loop. The
   fuzz target [engine-vs-boxed] and test/test_frontier.ml assert
   equality against the boxed reference engine in lib/fuzz at 1/2/4
   domains and in both representations.

   Arena discipline: [mail.(h)] is valid iff [mail_epoch.(h) >= 0], and
   then holds the message most recently sent into half [h]. The
   placeholder-seeded arrays ([Obj.magic 0]) are safe only because they
   never escape this polymorphic engine: a uniform array seeded with an
   immediate is read and written through the generic accessors here,
   whatever ['msg]/['out] turn out to be. Everything handed to user code
   ([msgs] buffers) or returned ([outputs]) is (re)built from real
   values so it gets the element type's native representation — flat
   for floats.

   Representation switch (Ligra-style): while the frontier is dense
   (cardinality >= threshold) both phases iterate bitmap words and pull
   the members out of each word; when it goes sparse they iterate the
   member array directly. Both phases of one round use the same mode,
   chosen before the send phase — the switch never lands between send
   and receive.

   Hot-path discipline: both phase loops are prebuilt {!Pool.fused}
   tasks (zero per-round allocation in the engine itself), the send
   task returns the scanned half-edge count (the round span's [edges]
   kv for free) and the receive task returns the newly-halted count. *)

module G = Repro_graph.Multigraph
module Obs = Repro_obs
module MP = Message_passing
module FS = Frontier_set

(* the rng counter is shared-by-name with Randomness, so a round span
   can report its delta *)
let counter = Obs.Registry.counter Obs.Registry.default
let m_runs = counter "local.frontier.runs"
let m_rounds = counter "local.frontier.rounds"
let m_messages = counter "local.frontier.messages"
let m_bytes = counter "local.frontier.payload_bytes"
let m_rng = counter "local.rng.draws"

type 'out result = {
  outputs : 'out array;
  rounds : int array;
  max_rounds : int;
}

let run ?limit ?dense_threshold inst (alg : _ MP.algorithm) =
  let g = inst.Instance.graph in
  let n = G.n g in
  let m2 = 2 * G.m g in
  let off = G.ports_off g and prt = G.ports_flat g in
  let limit = match limit with Some l -> l | None -> (4 * n) + 16 in
  let states = Array.init n (fun v -> alg.MP.init inst v) in
  let out_buf : 'out array = Array.make n (Obj.magic 0 : 'out) in
  let rounds = Array.make n 0 in
  let halted = Array.make n false in
  let remaining = ref n in
  let mail : 'msg array = Array.make m2 (Obj.magic 0 : 'msg) in
  let mail_epoch = Array.make m2 (-1) in
  (* per-domain receive scratch: scratch.(w).(d) is domain w's reusable
     message buffer of length d, created on first use from a real
     message value (so the buffer gets the right representation) and
     owned exclusively by domain w for the duration of one receive
     call *)
  let slots = Pool.worker_slots () in
  let maxdeg = G.max_degree g in
  let scratch : 'msg array array array =
    Array.init slots (fun _ -> Array.make (maxdeg + 1) [||])
  in
  (* provenance audit (disarmed: one boolean load per run, no
     allocation). Influence sets mirror the mailbox ownership exactly:
     the send phase copies the sender's set into its mates' slots, the
     receive phase unions a node's slots into its own set — so each set
     is written by one loop index per phase and the audit is
     bit-identical for every pool size, like the messages themselves. *)
  let audit = Obs.Provenance.active () in
  let inf_state =
    if audit then
      Array.init n (fun v ->
          let b = Obs.Provenance.Bitset.create n in
          Obs.Provenance.Bitset.add b v;
          b)
    else [||]
  in
  let inf_mail =
    if audit then Array.init m2 (fun _ -> Obs.Provenance.Bitset.create n)
    else [||]
  in
  Obs.Counter.incr m_runs;
  let live = FS.create ?dense_threshold n in
  FS.fill_all live;
  let round = ref 0 in
  (* the per-node phase bodies, hoisted once; the current round is read
     through [round] so the prebuilt fused tasks never change *)
  let send_one v =
    let st = states.(v) in
    let r = !round in
    let lo = off.(v) in
    let hi = off.(v + 1) in
    for i = lo to hi - 1 do
      let dst = G.mate prt.(i) in
      mail.(dst) <- alg.MP.send st ~round:r ~port:(i - lo);
      mail_epoch.(dst) <- r
    done;
    if audit then
      G.iter_halves g v ~f:(fun h ->
          Obs.Provenance.Bitset.blit ~src:inf_state.(v)
            ~dst:inf_mail.(G.mate h));
    hi - lo
  in
  let recv_one v =
    if audit then
      G.iter_halves g v ~f:(fun h ->
          Obs.Provenance.Bitset.union_into ~into:inf_state.(v) inf_mail.(h));
    let r = !round in
    let lo = off.(v) in
    let d = off.(v + 1) - lo in
    let msgs =
      if d = 0 then [||]
      else begin
        let per_deg = scratch.(Pool.worker_index ()) in
        let buf = per_deg.(d) in
        let buf =
          if Array.length buf = d then buf
          else begin
            let b = Array.make d mail.(prt.(lo)) in
            per_deg.(d) <- b;
            b
          end
        in
        for i = 0 to d - 1 do
          let h = prt.(lo + i) in
          assert (mail_epoch.(h) >= 0);
          buf.(i) <- mail.(h)
        done;
        buf
      end
    in
    match alg.MP.receive states.(v) ~round:r msgs with
    | Either.Left st ->
      states.(v) <- st;
      0
    | Either.Right out ->
      out_buf.(v) <- out;
      halted.(v) <- true;
      rounds.(v) <- r + 1;
      1
  in
  let send_fold acc v = acc + send_one v in
  let recv_fold acc v = acc + recv_one v in
  (* grain hints: sparse indices are one node's phase work, dense
     indices are one 64-node bitset word (mostly-set in the dense
     regime) *)
  let send_sparse = Pool.fused ~grain:200 (fun k -> send_one (FS.member live k)) in
  let send_dense = Pool.fused ~grain:6_000 (fun w -> FS.fold_word live w 0 send_fold) in
  let recv_sparse = Pool.fused ~grain:300 (fun k -> recv_one (FS.member live k)) in
  let recv_dense = Pool.fused ~grain:9_000 (fun w -> FS.fold_word live w 0 recv_fold) in
  let run_sp = Obs.Span.enter "frontier.run" in
  while !remaining > 0 && !round < limit do
    let r = !round in
    let rsp = Obs.Span.enter "frontier.round" in
    let dense = FS.is_dense live in
    let active = FS.cardinal live in
    let rng0 = if Obs.Span.live rsp then Obs.Counter.value m_rng else 0 in
    let edges =
      if dense then Pool.run_fused send_dense ~n:(FS.word_count live)
      else Pool.run_fused send_sparse ~n:active
    in
    (* round accounting over the live set, taken between the two phases:
       each live node sends one message per port and reads one message
       per port, so the messages sent this round equal the mailbox sizes
       summed over live receivers *)
    let msgs = ref 0 and mbox_max = ref 0 and bytes = ref 0 in
    if Obs.Registry.enabled () then begin
      FS.iter live (fun v ->
          let d = off.(v + 1) - off.(v) in
          msgs := !msgs + d;
          if d > !mbox_max then mbox_max := d;
          for i = off.(v) to off.(v + 1) - 1 do
            let h = G.mate prt.(i) in
            if mail_epoch.(h) >= 0 then
              bytes := !bytes + MP.payload_bytes mail.(h)
          done);
      Obs.Counter.incr m_rounds;
      Obs.Counter.add m_messages !msgs;
      Obs.Counter.add m_bytes !bytes
    end;
    let newly_halted =
      if dense then Pool.run_fused recv_dense ~n:(FS.word_count live)
      else Pool.run_fused recv_sparse ~n:active
    in
    remaining := !remaining - newly_halted;
    FS.remove_if live (fun v -> halted.(v));
    if Obs.Span.live rsp then
      Obs.Span.exit rsp
        ~kvs:
          [
            ("round", r);
            ("active", active);
            ("edges", edges);
            ("dense", Bool.to_int dense);
            ("messages", !msgs);
            ("payload_bytes", !bytes);
            ("mailbox_max", !mbox_max);
            ("rng_draws", Obs.Counter.value m_rng - rng0);
          ];
    incr round
  done;
  if !remaining > 0 then
    failwith
      (Printf.sprintf "Frontier.run: %d nodes still running after %d rounds"
         !remaining limit);
  if Obs.Span.live run_sp then
    Obs.Span.exit ~kvs:[ ("rounds", !round); ("n", n) ] run_sp;
  let outputs = Array.map Fun.id out_buf in
  if audit then
    Obs.Provenance.submit
      {
        Obs.Provenance.engine = "frontier";
        n;
        influence = inf_state;
        rounds_active = Array.copy rounds;
      };
  { outputs; rounds; max_rounds = Array.fold_left max 0 rounds }
