(* Spans and counters recorded by the benchmark around its calls into the
   library's layers.  Spans nest; a layer's self time is its span's
   duration minus the time its child spans cover, and likewise for
   allocation.  With tracing off, [span] is a plain call. *)

let now_ns () = Monotonic_clock.now ()
let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9

(* Words allocated by this domain so far: minor allocations plus direct
   major ones (promoted words would otherwise count twice). *)
let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

type layer = { mutable self_ns : int64; mutable calls : int; mutable self_words : float }

type frame = {
  start_ns : int64;
  start_words : float;
  mutable child_ns : int64;
  mutable child_words : float;
}

let enabled = ref false
let layers : (string, layer) Hashtbl.t = Hashtbl.create 16
let counters : (string, float) Hashtbl.t = Hashtbl.create 16
let stack : frame list ref = ref []

(* Forget the spans recorded so far (set-up's, say), keeping the
   counters. *)
let reset_spans () =
  Hashtbl.reset layers;
  stack := []

let layer name =
  match Hashtbl.find_opt layers name with
  | Some l -> l
  | None ->
      let l = { self_ns = 0L; calls = 0; self_words = 0.0 } in
      Hashtbl.add layers name l;
      l

let close name frame =
  let dur = Int64.sub (now_ns ()) frame.start_ns in
  let words = allocated_words () -. frame.start_words in
  stack := List.tl !stack;
  let l = layer name in
  l.self_ns <- Int64.add l.self_ns (Int64.sub dur frame.child_ns);
  l.self_words <- l.self_words +. (words -. frame.child_words);
  l.calls <- l.calls + 1;
  match !stack with
  | parent :: _ ->
      parent.child_ns <- Int64.add parent.child_ns dur;
      parent.child_words <- parent.child_words +. words
  | [] -> ()

let span name f =
  if not !enabled then f ()
  else begin
    let frame =
      { start_ns = now_ns (); start_words = allocated_words (); child_ns = 0L; child_words = 0.0 }
    in
    stack := frame :: !stack;
    Fun.protect ~finally:(fun () -> close name frame) f
  end

(* Counters are deterministic facts about the work (calls, iterations,
   records), kept apart from wall-clock so reruns can be diffed. *)
let count name v =
  if !enabled then
    Hashtbl.replace counters name
      (v +. Option.value ~default:0.0 (Hashtbl.find_opt counters name))

let counter name = Option.value ~default:0.0 (Hashtbl.find_opt counters name)

let self_s name =
  match Hashtbl.find_opt layers name with
  | Some l -> Int64.to_float l.self_ns *. 1e-9
  | None -> 0.0

let calls name = match Hashtbl.find_opt layers name with Some l -> l.calls | None -> 0

let alloc_mb name =
  match Hashtbl.find_opt layers name with
  | Some l -> l.self_words *. float_of_int (Sys.word_size / 8) /. 1048576.0
  | None -> 0.0

let total_self_s () =
  Hashtbl.fold (fun _ l acc -> acc +. (Int64.to_float l.self_ns *. 1e-9)) layers 0.0
