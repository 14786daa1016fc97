type proc_state = {
  online : Tomo.Online.t;
  mutable fed : int;
  mutable samples_rev : float list;
}

type t = {
  node : Sim.node;
  collector : Profilekit.Probes.Collector.t;
  procs : (string * proc_state) list;
  mutable delivered : int;
}

let create ~node ~program ~resolution ~sigma ~decay ~procs =
  {
    node;
    collector = Profilekit.Probes.Collector.create ~program ~resolution ();
    procs =
      List.map
        (fun (proc, paths) ->
          (proc, { online = Tomo.Online.create ~decay ~sigma paths; fed = 0; samples_rev = [] }))
        procs;
    delivered = 0;
  }

let node t = t.node

let ingest t batch =
  let records = Profilekit.Wire.decode_exn batch in
  t.delivered <- t.delivered + List.length records;
  List.iter (Profilekit.Probes.Collector.feed t.collector) records;
  List.iter
    (fun (proc, closed) ->
      match List.assoc_opt proc t.procs with
      | None -> ()
      | Some st ->
          Array.iter
            (fun v ->
              Tomo.Online.observe st.online v;
              st.samples_rev <- v :: st.samples_rev)
            closed;
          st.fed <- st.fed + Array.length closed)
    (Profilekit.Probes.Collector.drain t.collector)

let state t proc =
  match List.assoc_opt proc t.procs with
  | Some st -> st
  | None -> invalid_arg (Printf.sprintf "Fleet.Ingest: unknown procedure %S" proc)

let delivered t = t.delivered
let discarded t = Profilekit.Probes.Collector.discarded t.collector
let open_frames t = Profilekit.Probes.Collector.open_frames t.collector
let fed t proc = (state t proc).fed
let total_fed t = List.fold_left (fun acc (_, st) -> acc + st.fed) 0 t.procs
let theta t proc = Tomo.Online.theta (state t proc).online
let weight t proc = Tomo.Online.effective_weight (state t proc).online

let samples t proc = Array.of_list (List.rev (state t proc).samples_rev)

let fusion_input t ~min_samples proc =
  let st = state t proc in
  {
    Fusion.theta = Tomo.Online.theta st.online;
    weight = Tomo.Online.effective_weight st.online;
    health =
      Tomo.Health.judge ~min_samples ~converged:true ~sample_count:st.fed ();
  }
