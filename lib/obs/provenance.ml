(* Influence tracking and radius certificates — see the .mli for the
   model. The recorder mirrors Trace: a main-domain flag armed around
   one engine run; the engine owns all bitset mutation (per-slot, one
   writer per parallel phase), this module only analyses the result. *)

module Bitset = struct
  (* 8 bits per byte, backing store padded to a whole number of 64-bit
     words so that blit/union can run word-at-a-time *)
  type t = { bits : Bytes.t; len : int }

  let words len = (len + 63) / 64

  let create len =
    if len < 0 then invalid_arg "Provenance.Bitset.create";
    { bits = Bytes.make (8 * words len) '\000'; len }

  let length t = t.len

  let check t i =
    if i < 0 || i >= t.len then invalid_arg "Provenance.Bitset: index out of range"

  let add t i =
    check t i;
    let j = i lsr 3 in
    Bytes.unsafe_set t.bits j
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get t.bits j) lor (1 lsl (i land 7))))

  let mem t i =
    check t i;
    Char.code (Bytes.unsafe_get t.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

  let same_capacity a b =
    if a.len <> b.len then invalid_arg "Provenance.Bitset: capacity mismatch"

  let blit ~src ~dst =
    same_capacity src dst;
    Bytes.blit src.bits 0 dst.bits 0 (Bytes.length src.bits)

  let union_into ~into src =
    same_capacity into src;
    for w = 0 to words into.len - 1 do
      let j = 8 * w in
      Bytes.set_int64_le into.bits j
        (Int64.logor (Bytes.get_int64_le into.bits j) (Bytes.get_int64_le src.bits j))
    done

  (* byte-wise popcount table; cardinal is analysis-time only *)
  let popcount =
    let tbl = Array.make 256 0 in
    for b = 1 to 255 do
      tbl.(b) <- tbl.(b lsr 1) + (b land 1)
    done;
    tbl

  let cardinal t =
    let c = ref 0 in
    Bytes.iter (fun ch -> c := !c + popcount.(Char.code ch)) t.bits;
    !c

  let iter f t =
    for i = 0 to t.len - 1 do
      if Char.code (Bytes.unsafe_get t.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0
      then f i
    done

  let equal a b = a.len = b.len && Bytes.equal a.bits b.bits
end

type audit = {
  engine : string;
  n : int;
  influence : Bitset.t array;
  rounds_active : int array;
}

(* ------------------------------------------------------------------ *)
(* recorder                                                           *)
(* ------------------------------------------------------------------ *)

let armed = ref false
let current : audit option ref = ref None

let start () =
  armed := true;
  current := None

let active () = !armed
let submit a = if !armed then current := Some a

let take () =
  let a = !current in
  armed := false;
  current := None;
  a

let abort () =
  armed := false;
  current := None

(* ------------------------------------------------------------------ *)
(* certification                                                      *)
(* ------------------------------------------------------------------ *)

type node_record = {
  node : int;
  rounds_active : int;
  influence_radius : int;
  ball_radius : int;
  influence_size : int;
}

type violation = {
  v_node : int;
  v_source : int;
  v_distance : int;
  v_bound : int;
  v_round : int;
}

type certificate = {
  c_label : string;
  c_engine : string;
  c_n : int;
  c_declared : int;
  c_max_influence_radius : int;
  c_records : node_record array;
  c_histogram : (int * int) list;
  c_violations : violation list;
  c_ok : bool;
}

let certify ~label ~declared ~dist_from (a : audit) =
  let n = a.n in
  let violations = ref [] in
  let records =
    Array.init n (fun v ->
        let bound = declared v in
        let dist = dist_from v in
        let radius = ref 0 in
        let size = ref 0 in
        Bitset.iter
          (fun src ->
            incr size;
            let d = if dist.(src) < 0 then max_int else dist.(src) in
            if d > !radius then radius := d;
            if d > bound then
              violations :=
                {
                  v_node = v;
                  v_source = src;
                  v_distance = d;
                  v_bound = bound;
                  (* information travels one hop per round, so the source
                     cannot have arrived before round [d] *)
                  v_round = d;
                }
                :: !violations)
          a.influence.(v);
        {
          node = v;
          rounds_active = a.rounds_active.(v);
          influence_radius = !radius;
          ball_radius = bound;
          influence_size = !size;
        })
  in
  let max_radius =
    Array.fold_left (fun m r -> max m r.influence_radius) 0 records
  in
  let histogram =
    if n = 0 then []
    else begin
      let counts = Array.make (max_radius + 1) 0 in
      Array.iter
        (fun r -> counts.(r.influence_radius) <- counts.(r.influence_radius) + 1)
        records;
      let acc = ref [] in
      for r = max_radius downto 0 do
        if counts.(r) > 0 then acc := (r, counts.(r)) :: !acc
      done;
      !acc
    end
  in
  let violations = List.rev !violations in
  {
    c_label = label;
    c_engine = a.engine;
    c_n = n;
    c_declared = Array.fold_left (fun m r -> max m r.ball_radius) 0 records;
    c_max_influence_radius = max_radius;
    c_records = records;
    c_histogram = histogram;
    c_violations = violations;
    c_ok = violations = [];
  }

let to_events c =
  let audits =
    Array.to_list
      (Array.map
         (fun r ->
           Trace.Audit
             {
               node = r.node;
               rounds_active = r.rounds_active;
               influence_radius = r.influence_radius;
               ball_radius = r.ball_radius;
               influence_size = r.influence_size;
             })
         c.c_records)
  in
  audits
  @ [
      Trace.Cert
        {
          label = c.c_label;
          engine = c.c_engine;
          nodes = c.c_n;
          declared = c.c_declared;
          max_influence_radius = c.c_max_influence_radius;
          violations = List.length c.c_violations;
          ok = c.c_ok;
        };
    ]

let pp_violation fmt v =
  Format.fprintf fmt
    "node %d: source %d leaked from distance %s > declared radius %d (arrived no earlier than round %s)"
    v.v_node v.v_source
    (if v.v_distance = max_int then "∞" else string_of_int v.v_distance)
    v.v_bound
    (if v.v_round = max_int then "∞" else string_of_int v.v_round)
