(* Fault-injecting probe transport.

   Each fault stage owns its own Stats.Rng.stream keyed by a fixed stage
   index, so (a) the whole perturbation is a pure function of
   (seed, config, log) — byte-identical at any domain count — and (b)
   raising one stage's rate never shifts another stage's random pattern
   (a stage's *input* can still change, of course: stages apply in the
   physical order node → channel → link).  A stage whose rate is zero
   returns its input unchanged. *)

module Devices = Mote_machine.Devices

type config = {
  reboot : float;
  burst_enter : float;
  drop : float;
  corrupt : float;
  duplicate : float;
  reorder : float;
}

let default =
  { reboot = 0.0; burst_enter = 0.0; drop = 0.0; corrupt = 0.0; duplicate = 0.0; reorder = 0.0 }

(* Records lost at each reboot (the node's unflushed buffer). *)
let reboot_flush = 8

(* Gilbert–Elliott bad state: P(bad → good) per record, and the loss
   probability while bad. *)
let burst_exit = 0.25
let burst_drop = 0.8

(* Bits flipped (uniformly among the 16) per corruption. *)
let corrupt_bits = 2

(* Maximum forward displacement, in records, of a reordered word. *)
let reorder_span = 4

let field ?(drop = 0.05) ?(corrupt = 0.01) () = { default with drop; corrupt }

let validate c =
  List.iter
    (fun (name, p) ->
      if not (p >= 0.0 && p <= 1.0) then
        invalid_arg (Printf.sprintf "Transport: %s probability %g outside [0,1]" name p))
    [
      ("reboot", c.reboot);
      ("burst_enter", c.burst_enter);
      ("drop", c.drop);
      ("corrupt", c.corrupt);
      ("duplicate", c.duplicate);
      ("reorder", c.reorder);
    ]

let is_identity c =
  c.reboot = 0.0 && c.burst_enter = 0.0 && c.drop = 0.0 && c.corrupt = 0.0
  && c.duplicate = 0.0 && c.reorder = 0.0

type stats = {
  sent : int;
  delivered : int;
  dropped_drop : int;
  dropped_burst : int;
  dropped_reboot : int;
  reboots : int;
  corrupted : int;
  duplicated : int;
  reordered : int;
}

let wrap16 v = v land 0xFFFF

(* Fixed stage indices for Stats.Rng.stream — append-only, so saved fault
   campaigns stay replayable when new stages are added.  Index 0 is
   unused. *)
let reboot_stream = 1
let burst_stream = 2
let drop_stream = 3
let corrupt_stream = 4
let duplicate_stream = 5
let reorder_stream = 6

let reboot_stage rng c ~lost ~reboots records =
  if c.reboot = 0.0 then records
  else begin
    let flush = ref 0 in
    List.filter
      (fun (_ : Devices.probe_record) ->
        if !flush > 0 then begin
          decr flush;
          incr lost;
          false
        end
        else if Stats.Rng.bernoulli rng c.reboot then begin
          incr reboots;
          flush := reboot_flush - 1;
          incr lost;
          false
        end
        else true)
      records
  end

let burst_stage rng c ~lost records =
  if c.burst_enter = 0.0 then records
  else begin
    let bad = ref false in
    List.filter
      (fun (_ : Devices.probe_record) ->
        (if !bad then begin
           if Stats.Rng.bernoulli rng burst_exit then bad := false
         end
         else if Stats.Rng.bernoulli rng c.burst_enter then bad := true);
        if !bad && Stats.Rng.bernoulli rng burst_drop then begin
          incr lost;
          false
        end
        else true)
      records
  end

let drop_stage rng c ~lost records =
  if c.drop = 0.0 then records
  else
    List.filter
      (fun (_ : Devices.probe_record) ->
        if Stats.Rng.bernoulli rng c.drop then begin
          incr lost;
          false
        end
        else true)
      records

let corrupt_stage rng c ~corrupted records =
  if c.corrupt = 0.0 then records
  else
    List.map
      (fun (r : Devices.probe_record) ->
        if Stats.Rng.bernoulli rng c.corrupt then begin
          incr corrupted;
          let mask = ref 0 in
          for _ = 1 to corrupt_bits do
            mask := !mask lor (1 lsl Stats.Rng.int rng 16)
          done;
          { r with Devices.value = wrap16 (r.Devices.value lxor !mask) }
        end
        else r)
      records

let duplicate_stage rng c ~duplicated records =
  if c.duplicate = 0.0 then records
  else
    List.concat_map
      (fun (r : Devices.probe_record) ->
        if Stats.Rng.bernoulli rng c.duplicate then begin
          incr duplicated;
          [ r; r ]
        end
        else [ r ])
      records

(* Bounded reordering: a displaced record sinks by 1..reorder_span
   positions; a stable sort on the displaced indices realizes every
   displacement while preserving the relative order of the rest. *)
let reorder_stage rng c ~reordered records =
  if c.reorder = 0.0 then records
  else begin
    let arr = Array.of_list records in
    let keyed =
      Array.mapi
        (fun i r ->
          let d =
            if Stats.Rng.bernoulli rng c.reorder then begin
              incr reordered;
              1 + Stats.Rng.int rng reorder_span
            end
            else 0
          in
          (i + d, r))
        arr
    in
    Array.stable_sort (fun (a, _) (b, _) -> compare a b) keyed;
    Array.to_list (Array.map snd keyed)
  end

let perturb ?(seed = 0) c records =
  validate c;
  let stream i = Stats.Rng.stream ~seed ~index:i in
  let dropped_drop = ref 0 in
  let dropped_burst = ref 0 in
  let dropped_reboot = ref 0 in
  let reboots = ref 0 in
  let corrupted = ref 0 in
  let duplicated = ref 0 in
  let reordered = ref 0 in
  let out =
    records
    |> reboot_stage (stream reboot_stream) c ~lost:dropped_reboot ~reboots
    |> burst_stage (stream burst_stream) c ~lost:dropped_burst
    |> drop_stage (stream drop_stream) c ~lost:dropped_drop
    |> corrupt_stage (stream corrupt_stream) c ~corrupted
    |> duplicate_stage (stream duplicate_stream) c ~duplicated
    |> reorder_stage (stream reorder_stream) c ~reordered
  in
  ( out,
    {
      sent = List.length records;
      delivered = List.length out;
      dropped_drop = !dropped_drop;
      dropped_burst = !dropped_burst;
      dropped_reboot = !dropped_reboot;
      reboots = !reboots;
      corrupted = !corrupted;
      duplicated = !duplicated;
      reordered = !reordered;
    } )

let pp_stats fmt s =
  Format.fprintf fmt
    "sent %d, delivered %d (lost: %d random, %d burst, %d reboot over %d reboots; \
     corrupted %d, duplicated %d, reordered %d)"
    s.sent s.delivered s.dropped_drop s.dropped_burst s.dropped_reboot s.reboots
    s.corrupted s.duplicated s.reordered
