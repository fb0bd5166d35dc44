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

(* The ambient registry: a dynamically scoped "current registry" that
   instrumented layers resolve their metrics against at run entry. A
   plain ref, not a DLS slot, on purpose: pool worker domains must see
   the registry of the run they are executing chunks for, which is the
   one the dispatching domain installed. The single-mutator contract
   (see the .mli) is what makes the unsynchronized read sound — scopes
   only switch between runs, never while a pool job is in flight. *)
let current = ref default

let ambient () = !current

let scoped reg f =
  let prev = !current in
  current := reg;
  Fun.protect ~finally:(fun () -> current := prev) f

let resolve = function Some reg -> reg | None -> !current

let enable ?reg () = (resolve reg).gate := true
let disable ?reg () = (resolve reg).gate := false
let enabled ?reg () = !((resolve reg).gate)
let live t = !(t.gate)

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

let counters ?reg () =
  sorted_fold (resolve reg) (function
    | C c -> Some (Counter.name c, Counter.value c)
    | H _ -> None)

let histograms ?reg () =
  sorted_fold (resolve reg) (function
    | H h -> Some (Histogram.name h, Histogram.snapshot h)
    | C _ -> None)

let reset ?reg () =
  let t = resolve reg in
  locked t (fun () ->
      Hashtbl.iter
        (fun _ -> function C c -> Counter.reset c | H h -> Histogram.reset h)
        t.metrics)
