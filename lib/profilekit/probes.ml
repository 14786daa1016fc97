open Mote_isa

let scratch_reg = 13

let probe_items =
  [ Asm.I (Isa.In (scratch_reg, Isa.P_timer)); Asm.I (Isa.Out (Isa.P_probe, scratch_reg)) ]

let in_cost = Isa.base_cost (Isa.In (scratch_reg, Isa.P_timer))
let out_cost = Isa.base_cost (Isa.Out (Isa.P_probe, scratch_reg))
let ret_cost = Isa.base_cost Isa.Ret + Isa.taken_penalty

let probe_cycles_per_invocation = 2 * (in_cost + out_cost)

(* Entry [in] before the window, exit [out] and the ret's base cost after
   it.  The ret's taken penalty is never part of any block's cost in the
   timing model, so it must not be subtracted here. *)
let window_correction = in_cost + out_cost + Isa.base_cost Isa.Ret

(* Caller-side: call taken penalty + callee entry [in] + callee exit [out]
   + callee ret. *)
let call_residual = Isa.taken_penalty + in_cost + out_cost + ret_cost

let instrument items =
  let rec go current_skipped = function
    | [] -> []
    | (Asm.Proc name as item) :: rest ->
        let skipped = String.equal name Mote_lang.Compile.init_proc_name in
        if skipped then item :: go skipped rest
        else (item :: probe_items) @ go skipped rest
    | (Asm.I Isa.Ret as item) :: rest when not current_skipped ->
        probe_items @ (item :: go current_skipped rest)
    | item :: rest -> item :: go current_skipped rest
  in
  go true items

type sample_set = (string * float array) list

exception Unbalanced of string

(* Timestamps travel through 16-bit registers, so tick counts wrap at
   2^16.  A difference is read as a signed 16-bit number, in
   [-32768, 32767] ticks: correct as long as a window spans fewer than
   32768 ticks (mote procedures are run-to-completion tasks, orders of
   magnitude shorter).  Under timer jitter an exit can read a tick or two
   before its entry; the estimator's noise model (cost plus symmetric
   Gaussian noise) expects such a window, as -1, not as 65535. *)
let wrap16 v = v land 0xFFFF

let diff16 later earlier =
  let d = (later - earlier) land 0xFFFF in
  if d >= 0x8000 then d - 0x10000 else d

let samples_for set proc = Option.value ~default:[||] (List.assoc_opt proc set)

type lossy_result = { samples : sample_set; discarded : int }

module Collector = struct
  type frame = {
    proc : string;
    samples : float list ref;  (** The [proc]'s samples closed since the last [drain]. *)
    t_entry : int;
    mutable child : int;
    mutable corrupted : bool;
  }

  (* Each record's procedure is looked up by pc in [proc_of_pc], built
     once per collector: an index into [names], [entries] and [cells], or
     -1 outside every procedure.  Procedures that share a name share a
     cell. *)
  type t = {
    resolution : int;
    max_window : int option;
    proc_of_pc : int array;
    names : string array;
    entries : int array;
    cells : float list ref array;  (** Newest sample first. *)
    mutable stack : frame list;
    mutable discarded : int;
  }

  let create ?max_window ~program ~resolution () =
    let procs = Array.of_list (Program.procs program) in
    let proc_of_pc = Array.make (Program.length program) (-1) in
    Array.iteri
      (fun i (p : Program.proc_info) ->
        for pc = p.Program.entry to p.Program.finish - 1 do
          if proc_of_pc.(pc) < 0 then proc_of_pc.(pc) <- i
        done)
      procs;
    let names = Array.map (fun (p : Program.proc_info) -> p.Program.name) procs in
    let cells = Array.map (fun _ -> ref []) names in
    Array.iteri
      (fun i name ->
        match Array.find_index (String.equal name) names with
        | Some j when j < i -> cells.(i) <- cells.(j)
        | _ -> ())
      names;
    {
      resolution;
      max_window;
      proc_of_pc;
      names;
      entries = Array.map (fun (p : Program.proc_info) -> p.Program.entry) procs;
      cells;
      stack = [];
      discarded = 0;
    }

  let discarded t = t.discarded
  let open_frames t = List.length t.stack

  let poison t = List.iter (fun f -> f.corrupted <- true) t.stack

  let discard_top t =
    match t.stack with
    | [] -> ()
    | _ :: rest ->
        t.discarded <- t.discarded + 1;
        t.stack <- rest;
        poison t

  let rec is_open name = function
    | [] -> false
    | f :: rest -> String.equal f.proc name || is_open name rest

  (* Close the top frame as [proc]'s exit if it matches; otherwise, if
     [proc] is open deeper, unwind (discarding) to it; otherwise the entry
     record was lost — skip the exit. *)
  let rec close t proc t_exit =
    match t.stack with
    | [] -> t.discarded <- t.discarded + 1
    | frame :: rest when frame.proc = proc ->
        let inclusive = diff16 t_exit frame.t_entry * t.resolution in
        let implausible =
          match t.max_window with Some m -> abs inclusive > m | None -> false
        in
        if implausible then begin
          (* A window longer than any plausible invocation, or as far
             below zero: this exit paired with a stale entry across lost
             records, or a timestamp was corrupted. *)
          t.discarded <- t.discarded + 1;
          t.stack <- rest;
          poison t
        end
        else begin
          if frame.corrupted then t.discarded <- t.discarded + 1
          else frame.samples := float_of_int (inclusive - frame.child) :: !(frame.samples);
          (* Signed: a child window read below zero gives its parent's
             exclusive sample that much back. *)
          (match rest with
          | parent :: _ -> parent.child <- parent.child + inclusive
          | [] -> ());
          t.stack <- rest
        end
    | _ ->
        if is_open proc t.stack then begin
          discard_top t;
          close t proc t_exit
        end
        else begin
          (* Exit with no matching entry: its entry record was lost, and we
             cannot know which open windows it contaminated. *)
          t.discarded <- t.discarded + 1;
          poison t
        end

  let feed t { Mote_machine.Devices.pc; value; _ } =
    let proc = if pc >= 0 && pc < Array.length t.proc_of_pc then t.proc_of_pc.(pc) else -1 in
    if proc < 0 then begin
      t.discarded <- t.discarded + 1;
      poison t
    end
    else begin
      let name = t.names.(proc) in
      if pc = t.entries.(proc) + 1 then begin
        (* Recursion is impossible in mote programs, so an entry for an
           already-open procedure proves its previous exit was lost:
           everything open is torn. *)
        if is_open name t.stack then begin
          t.discarded <- t.discarded + List.length t.stack;
          t.stack <- []
        end;
        let frame =
          { proc = name; samples = t.cells.(proc); t_entry = wrap16 value; child = 0; corrupted = false }
        in
        t.stack <- frame :: t.stack
      end
      else close t name (wrap16 value)
    end

  let drain t =
    let samples = ref [] in
    Array.iteri
      (fun i name ->
        let cell = t.cells.(i) in
        if !cell <> [] then begin
          samples := (name, Array.of_list (List.rev !cell)) :: !samples;
          cell := []
        end)
      t.names;
    List.sort compare !samples
end

let collect_lossy_records ?max_window ~program ~resolution records =
  let c = Collector.create ?max_window ~program ~resolution () in
  List.iter (Collector.feed c) records;
  (* Frames still open at the end of the log never completed. *)
  let samples = Collector.drain c in
  { samples; discarded = Collector.discarded c + Collector.open_frames c }

(* The strict collector is the lossy one that must not discard: every
   log that fails to nest (a stray probe, an exit with no or the wrong
   open entry) makes the Collector abandon a frame.  The one well-nested
   input it tears anyway — re-entering an open procedure — needs
   recursion, which no checked program has.  Frames still open at the
   end are dropped silently, as a run cut mid-task leaves them. *)
let collect ~program ~devices =
  let resolution = Mote_machine.Devices.timer_resolution devices in
  let c = Collector.create ~program ~resolution () in
  List.iter (Collector.feed c) (Mote_machine.Devices.probe_log devices);
  match Collector.discarded c with
  | 0 -> Collector.drain c
  | n -> raise (Unbalanced (Printf.sprintf "%d probe window(s) abandoned" n))
