(* The round engine, driven by the live (un-halted) node set.

   The live set is an explicit {!Frontier_set}: round 0 starts with the
   full frontier (covering every mailbox slot), each receive phase
   counts the newly halted, and the post-round filter drops them from
   the set in insertion order. A round then costs O(frontier nodes +
   frontier edges), not O(n + m).

   The mailbox is indexed by CSR position, not by half id: slot [i]
   holds the message that arrived on the half [prt.(i)], so node [v]'s
   inbox is the contiguous slice [mail.(off v) .. mail.(off (v+1) - 1)]
   in port order. [dst.(i)], built once per run, is the slot of the
   mate of the half at position [i]: the inbox slot a message sent out
   of position [i] lands in. Send scatters through [dst]; receive reads
   its own slice in order.

   Both phases are embarrassingly parallel over the live set, and each
   writes only index-owned locations:

   - send: node [v] writes the slots [dst.(i)] for its own positions
     [i]; [dst] is a permutation (an involution pairing the two sides
     of each edge), so the written slots partition the mailbox. It
     reads only [states.(v)], which receive wrote in the *previous*
     phase (a pool barrier apart).
   - receive: node [v] reads its inbox slice (frozen during this phase)
     and writes [states/outputs/halted/rounds] at its own index only.

   Hence any pool size is bit-identical to the sequential loop. Both
   phases walk the live set's member array, which is in ascending node
   id: [fill_all] adds the nodes in order and [remove_if] keeps the
   survivors in order. The fuzz target [engine-vs-boxed] and
   test/test_frontier.ml assert equality against the boxed reference
   engine in lib/fuzz at 1/2/4 domains.

   Arena discipline: every slot holds a real message from round 0 on.
   Round 0's frontier is full, so its send phase writes every slot
   before any receive reads one; the engine checks this once, as round
   0's scanned half-edge count equalling 2m. Halted senders stop
   writing and their last messages stay in place. The
   placeholder-seeded arrays ([Obj.magic 0]) are safe only because they
   never escape this polymorphic engine: a uniform array seeded with an
   immediate is read and written through the generic accessors here,
   whatever ['msg]/['out] turn out to be. Everything handed to user code
   ([msgs] buffers) or returned ([outputs]) is (re)built from real
   values so it gets the element type's native representation — flat
   for floats.

   Hot-path discipline: both phases are {!Pool.parallel_sum} loops over
   the member array, with range bodies built once per run (a receive
   range looks up its domain's scratch once); the send phase sums the
   scanned half-edge count (the round span's [edges] kv for free) and
   the receive phase the newly-halted count. *)

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

let run ?limit inst (alg : _ MP.algorithm) =
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
  (* [dst.(i)]: the inbox slot of the mate of the half at position [i].
     It is built through the position of each half, kept in [mail]'s
     slots: [mail] is a uniform array of immediates until round 0
     overwrites every slot, so it can hold ints meanwhile, and the run
     allocates no third array of 2m words. Both passes touch memory at
     random, and neither gains from the pool *)
  let dst =
    let pos : int array = Obj.magic mail in
    for i = 0 to m2 - 1 do
      pos.(prt.(i)) <- i
    done;
    let dst = Array.make m2 0 in
    for i = 0 to m2 - 1 do
      dst.(i) <- pos.(G.mate prt.(i))
    done;
    dst
  in
  (* per-domain receive scratch: scratch.(w).(d) is domain w's reusable
     message buffer of length d, created on first use from a real
     message value (so the buffer gets the right representation) and
     owned exclusively by domain w for the duration of one receive
     range *)
  let slots = Pool.worker_slots () in
  let maxdeg = G.max_degree g in
  let scratch : 'msg array array array =
    Array.init slots (fun _ -> Array.make (maxdeg + 1) [||])
  in
  (* provenance audit (disarmed: one boolean load per run, no
     allocation). Influence sets mirror the mailbox slots exactly: the
     send phase copies the sender's set into the slots it writes, the
     receive phase unions a node's inbox slots into its own set — so
     each set is written by one loop index per phase and the audit is
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
  let live = FS.create n in
  FS.fill_all live;
  let round = ref 0 in
  (* the per-node phase bodies, hoisted once; the current round is read
     through [round] so the range bodies below are built once per run *)
  let send_one v =
    let st = states.(v) in
    let r = !round in
    let lo = off.(v) in
    let hi = off.(v + 1) in
    for i = lo to hi - 1 do
      mail.(dst.(i)) <- alg.MP.send st ~round:r ~port:(i - lo)
    done;
    if audit then
      for i = lo to hi - 1 do
        Obs.Provenance.Bitset.blit ~src:inf_state.(v) ~dst:inf_mail.(dst.(i))
      done;
    hi - lo
  in
  (* [per_deg] is the calling domain's scratch, looked up once per range *)
  let recv_one per_deg v =
    let lo = off.(v) in
    let d = off.(v + 1) - lo in
    if audit then
      for i = lo to lo + d - 1 do
        Obs.Provenance.Bitset.union_into ~into:inf_state.(v) inf_mail.(i)
      done;
    let r = !round in
    let msgs =
      if d = 0 then [||]
      else begin
        let buf = per_deg.(d) in
        let buf =
          if Array.length buf = d then buf
          else begin
            let b = Array.make d mail.(lo) in
            per_deg.(d) <- b;
            b
          end
        in
        for k = 0 to d - 1 do
          buf.(k) <- mail.(lo + k)
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
  (* the range bodies sum their phase body in plain loops; one index
     is one live node's phase work (grain hints at the calls in the
     round loop) *)
  let send_range lo hi =
    let s = ref 0 in
    for k = lo to hi - 1 do
      s := !s + send_one (FS.member live k)
    done;
    !s
  in
  let recv_range lo hi =
    let per_deg = scratch.(Pool.worker_index ()) in
    let s = ref 0 in
    for k = lo to hi - 1 do
      s := !s + recv_one per_deg (FS.member live k)
    done;
    !s
  in
  let run_sp = Obs.Span.enter "frontier.run" in
  while !remaining > 0 && !round < limit do
    let r = !round in
    let rsp = Obs.Span.enter "frontier.round" in
    let active = FS.cardinal live in
    let rng0 = if Obs.Span.live rsp then Obs.Counter.value m_rng else 0 in
    let edges = Pool.parallel_sum ~grain:200 ~n:active send_range in
    (* the arena invariant: round 0 wrote every mailbox slot *)
    assert (r > 0 || edges = m2);
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
            bytes := !bytes + MP.payload_bytes mail.(dst.(i))
          done);
      Obs.Counter.incr m_rounds;
      Obs.Counter.add m_messages !msgs;
      Obs.Counter.add m_bytes !bytes
    end;
    let newly_halted = Pool.parallel_sum ~grain:300 ~n:active recv_range in
    remaining := !remaining - newly_halted;
    FS.remove_if live (fun v -> halted.(v));
    if Obs.Span.live rsp then
      Obs.Span.exit rsp
        ~kvs:
          [
            ("round", r);
            ("active", active);
            ("edges", edges);
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
