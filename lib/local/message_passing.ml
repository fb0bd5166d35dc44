module G = Repro_graph.Multigraph
module Obs = Repro_obs

(* flood telemetry; every update below is a no-op while the process
   registry is disabled, and round span kvs additionally need spans
   armed. The rng counter is shared-by-name with Randomness, so the
   flood can report per-round deltas of a counter it does not own. *)
let counter = Obs.Registry.counter Obs.Registry.default
let m_flood_runs = counter "local.flood.runs"
let m_flood_rounds = counter "local.flood.rounds"
let m_flood_messages = counter "local.flood.messages"
let m_flood_bytes = counter "local.flood.payload_bytes"
let m_rng = counter "local.rng.draws"

let payload_bytes (v : 'a) =
  Obj.reachable_words (Obj.repr v) * (Sys.word_size / 8)

type ('state, 'msg, 'out) algorithm = {
  init : Instance.t -> int -> 'state;
  send : 'state -> round:int -> port:int -> 'msg;
  receive : 'state -> round:int -> 'msg array -> ('state, 'out) Either.t;
}

(* ------------------------------------------------------------------ *)
(* flooding                                                           *)
(* ------------------------------------------------------------------ *)

(* Receiver-centric flooding over flat knowledge sets. Distinct payload
   values are interned once into integer {e classes} (numbered in order
   of each value's first carrier node, so ids are instance-determined);
   a node's knowledge is then a sorted array of class ids. Node [w]
   pulls the frozen round-start snapshots of its neighbours and updates
   only its own set, so per-node work is independent and
   schedule-oblivious.

   Byte telemetry: per node per round, [degree * payload_bytes] of the
   node's round-start knowledge as a payload list (one representative
   payload per known class, in descending class order). The list is
   built only while the registry is enabled, so the hot path never
   conses. *)

(* per-round accounting; [known_list v] is the payload list node [v]
   sends this round (its round-start snapshot) *)
let flood_account g n known_list =
  let msgs = ref 0 and mbox_max = ref 0 and bytes = ref 0 in
  for v = 0 to n - 1 do
    let d = G.degree g v in
    msgs := !msgs + d;
    if d > !mbox_max then mbox_max := d;
    (* isolated nodes skipped: no list rebuild, no size computation *)
    if d > 0 then bytes := !bytes + (d * payload_bytes (known_list v))
  done;
  (!msgs, !mbox_max, !bytes)

let flood_gather inst ~radius payload =
  let g = inst.Instance.graph in
  let n = G.n g in
  Obs.Counter.incr m_flood_runs;
  let by_round = Array.init n (fun _ -> Array.make (max radius 0) []) in
  let payloads = Pool.tabulate ~grain:300 n payload in
  if n = 0 || radius <= 0 then by_round
  else begin
    let run_sp = Obs.Span.enter "flood.run" in
    (* intern payloads into classes (main domain: the table is shared) *)
    let class_of = Array.make n 0 in
    let class_payload = Array.make n payloads.(0) in
    let class_tbl = Hashtbl.create (2 * n) in
    let class_count = ref 0 in
    for v = 0 to n - 1 do
      match Hashtbl.find_opt class_tbl payloads.(v) with
      | Some c -> class_of.(v) <- c
      | None ->
        let c = !class_count in
        incr class_count;
        Hashtbl.replace class_tbl payloads.(v) c;
        class_payload.(c) <- payloads.(v);
        class_of.(v) <- c
    done;
    let nc = !class_count in
    (* Sorted class-id arrays, merge-union through two per-domain
       ping-pong scratch buffers, looked up once per range of the pull
       loop. A node's published array is immutable once written, so the
       snapshot phase is a pointer copy and readers never see a partial
       merge. The pull phase walks the raw CSR arrays: no per-node
       closure, and the loop state stays in (compiler-unboxed) local
       refs.

       Only nodes whose set grew last round ([changed]) publish fresh
       snapshots, and only their neighbours ([cand], first-discovery
       order) re-merge, pulling only changed neighbours — so a round
       costs O(changed + its edges), not O(n + m). Skipping an
       unchanged neighbour v loses nothing: its snapshot was absorbed a
       round earlier (B_{r-1}(w) ⊇ B_{r-2}(v)). The telemetry accounting
       stays a full O(n) scan while the registry is enabled; [snap] is
       current for every node, since a snapshot only goes stale the
       round after its node grew, and then the node is in [changed] and
       re-publishes. *)
    let off = G.ports_off g and prt = G.ports_flat g in
    let slots = Pool.worker_slots () in
    let bufa = Array.init slots (fun _ -> Array.make nc 0) in
    let bufb = Array.init slots (fun _ -> Array.make nc 0) in
    let known = Array.init n (fun v -> [| class_of.(v) |]) in
    let snap = Array.make n [||] in
    let changed = Frontier_set.create n in
    let cand = Frontier_set.create n in
    let fscratch = Frontier_set.scratch () in
    Frontier_set.fill_all changed;
    let merge_node ba bb r w =
      let own = snap.(w) in
      let cur = ref own and len = ref (Array.length own) in
      for hh = off.(w) to off.(w + 1) - 1 do
        let v = G.half_node g (G.mate prt.(hh)) in
        if Frontier_set.mem changed v then begin
          let b = snap.(v) in
          let bl = Array.length b in
          if bl > 0 then begin
            let dst = if !cur == ba then bb else ba in
            let a = !cur and al = !len in
            let i = ref 0 and j = ref 0 and k = ref 0 in
            while !i < al && !j < bl do
              let x = a.(!i) and y = b.(!j) in
              if x < y then begin
                dst.(!k) <- x;
                incr i
              end
              else if y < x then begin
                dst.(!k) <- y;
                incr j
              end
              else begin
                dst.(!k) <- x;
                incr i;
                incr j
              end;
              incr k
            done;
            while !i < al do
              dst.(!k) <- a.(!i);
              incr i;
              incr k
            done;
            while !j < bl do
              dst.(!k) <- b.(!j);
              incr j;
              incr k
            done;
            cur := dst;
            len := !k
          end
        end
      done;
      if !len > Array.length own then begin
        let merged = !cur in
        (* fresh classes, collected ascending (both arrays are sorted
           and [own] is a subset of [merged]) *)
        let acc = ref [] in
        let i = ref (!len - 1) and j = ref (Array.length own - 1) in
        while !i >= 0 do
          if !j >= 0 && own.(!j) = merged.(!i) then begin
            decr i;
            decr j
          end
          else begin
            acc := class_payload.(merged.(!i)) :: !acc;
            decr i
          end
        done;
        by_round.(w).(r) <- !acc;
        known.(w) <- Array.sub merged 0 !len
      end
    in
    for r = 0 to radius - 1 do
      let rsp = Obs.Span.enter "flood.round" in
      (* the rng counter at round start, read only while the span is live *)
      let rng0 = if Obs.Span.live rsp then Obs.Counter.value m_rng else 0 in
      Pool.parallel_for ~grain:30 ~n:(Frontier_set.cardinal changed) (fun k ->
          let v = Frontier_set.member changed k in
          snap.(v) <- known.(v));
      let msgs, mbox_max, bytes =
        if Obs.Registry.enabled () then
          flood_account g n (fun v ->
              let s = snap.(v) in
              let acc = ref [] in
              for i = 0 to Array.length s - 1 do
                acc := class_payload.(s.(i)) :: !acc
              done;
              !acc)
        else (0, 0, 0)
      in
      ignore (Frontier_set.expand ~g ~src:changed ~dst:cand fscratch);
      Pool.parallel_range ~grain:500 ~n:(Frontier_set.cardinal cand)
        (fun lo hi ->
          let wi = Pool.worker_index () in
          let ba = bufa.(wi) and bb = bufb.(wi) in
          for k = lo to hi - 1 do
            merge_node ba bb r (Frontier_set.member cand k)
          done);
      (* next frontier: the candidates that grew (fresh [known] pointer),
         in candidate order — deterministic *)
      Frontier_set.clear changed;
      Frontier_set.iter cand (fun w ->
          if known.(w) != snap.(w) then Frontier_set.add changed w);
      if Obs.Registry.enabled () then begin
        Obs.Counter.incr m_flood_rounds;
        Obs.Counter.add m_flood_messages msgs;
        Obs.Counter.add m_flood_bytes bytes
      end;
      if Obs.Span.live rsp then
        Obs.Span.exit rsp
          ~kvs:
            [
              ("round", r);
              ("active", n);
              ("messages", msgs);
              ("payload_bytes", bytes);
              ("mailbox_max", mbox_max);
              ("rng_draws", Obs.Counter.value m_rng - rng0);
            ]
    done;
    if Obs.Span.live run_sp then
      Obs.Span.exit ~kvs:[ ("radius", radius); ("n", n) ] run_sp;
    by_round
  end
