type metric = C of Counter.t | H of Histogram.t

type t = {
  gate : bool ref;
  mutex : Mutex.t;
  metrics : (string, metric) Hashtbl.t;
}

let create () =
  {
    gate = ref false;
    mutex = Mutex.create ();
    metrics = Hashtbl.create 64;
  }

let default = create ()

let enable ?(reg = default) () = reg.gate := true
let disable ?(reg = default) () = reg.gate := false
let enabled ?(reg = default) () = !(reg.gate)

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let counter t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.metrics name with
      | Some (C c) -> c
      | Some (H _) ->
        invalid_arg (Printf.sprintf "Registry.counter: %S is a histogram" name)
      | None ->
        let c = Counter.make ~gate:t.gate name in
        Hashtbl.replace t.metrics name (C c);
        c)

let histogram t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.metrics name with
      | Some (H h) -> h
      | Some (C _) ->
        invalid_arg (Printf.sprintf "Registry.histogram: %S is a counter" name)
      | None ->
        let h = Histogram.make ~gate:t.gate name in
        Hashtbl.replace t.metrics name (H h);
        h)

let sorted_fold t f =
  let items =
    locked t (fun () -> Hashtbl.fold (fun _ m acc -> m :: acc) t.metrics [])
  in
  List.sort compare (List.filter_map f items)

let counters ?(reg = default) () =
  sorted_fold reg (function
    | C c -> Some (Counter.name c, Counter.value c)
    | H _ -> None)

let histograms ?(reg = default) () =
  sorted_fold reg (function
    | H h -> Some (Histogram.name h, Histogram.snapshot h)
    | C _ -> None)

let reset ?(reg = default) () =
  locked reg (fun () ->
      Hashtbl.iter
        (fun _ -> function C c -> Counter.reset c | H h -> Histogram.reset h)
        reg.metrics)

let deltas base =
  List.filter_map
    (fun (name, v) ->
      let d = v - Option.value ~default:0 (List.assoc_opt name base) in
      if d <> 0 then Some (name, d) else None)
    (counters ())
