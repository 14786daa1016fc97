module Cfg = Cfgir.Cfg
module Isa = Mote_isa.Isa

type path = { cost : float; taken : int array; nottaken : int array }

type flat = {
  sig_cost : float array;
  sig_weight : float array;
  taken_off : int array;
  taken_idx : int array;
  taken_cnt : float array;
  nottaken_off : int array;
  nottaken_idx : int array;
  nottaken_cnt : float array;
}

(* The M-step replay as independent accumulation chains.  Each
   accumulator (taken count j, either count j, the σ sum) receives its
   terms in raw enumeration order, but no accumulator's order depends on
   another's, so the chains can run side by side.  A chain is a list of
   slots in a per-call product buffer: signature-level taken products
   [r·count] at [0, n_taken), not-taken products after them, per-signature
   σ terms at [sq_base, sq_base + ns), and one slot that always holds
   +0.0 at [zero].  The chains are dealt to [lanes] lanes that run in
   lock step, each lane running its chains back to back; the steps are
   cut into groups wherever some lane starts its next chain.  Step i of
   group g reads slot position [group_start.(g) + lanes·i + l] for lane
   l, and adds it into accumulator [group_target.(lanes·g + l)] (taken
   j → j, either j → k + j, σ sum → 2k, a finished lane → the sink
   2k + 1, fed the [zero] slot).  Three slot indices share one int of
   [lane_words], which keeps the plan small enough not to move peak
   memory.  Adding +0.0 to a sum of non-negative terms changes no bit,
   so padding and products zeroed by the responsibility threshold are
   exact no-ops. *)
type plan = {
  sq_base : int;
  zero : int;
  lane_words : int array;
  group_start : int array;
  group_len : int array;
  group_target : int array;
  sweep_cost : int;
      (* One chain sweep in chain-slot units: its lane slots, the
         product buffer it fills, its groups' set-up. *)
}

type t = {
  model : Model.t;
  paths : path array;
  truncated : bool;
  signature_of_path : int array;
  flat : flat;
  raw_off : int array;
  raw_pos : int array;
      (* Signature [s]'s raw path indices, ascending, are [raw_pos.(raw_off.(s))]
         to [raw_pos.(raw_off.(s + 1) − 1)]. *)
  max_cnt : float array;  (* Per signature: its largest taken or not-taken count. *)
  cost_order : int array;  (* The signatures by ascending cost, ties by index. *)
  plan : plan option Atomic.t;
      (* Built by the first replay that has walked enough paths to pay
         for it ({!chain_plan}).  Domains racing to build it build equal
         plans, so any winner will do. *)
}

exception Too_complex of string

let penalty = float_of_int Isa.taken_penalty

(* Sparse view of a dense count vector: indices ascending, so estimator
   kernels that iterate it accumulate in exactly the order the dense loop
   would have. *)
let sparsify counts =
  let nnz = Array.fold_left (fun acc c -> if c > 0 then acc + 1 else acc) 0 counts in
  let idx = Array.make nnz 0 in
  let cnt = Array.make nnz 0.0 in
  let at = ref 0 in
  Array.iteri
    (fun j c ->
      if c > 0 then begin
        idx.(!at) <- j;
        cnt.(!at) <- float_of_int c;
        incr at
      end)
    counts;
  (idx, cnt)

(* Concatenate per-signature sparse rows into one CSR triple: signature
   [s] owns entries [off.(s)] to [off.(s + 1) − 1]. *)
let csr rows =
  let ns = Array.length rows in
  let off = Array.make (ns + 1) 0 in
  Array.iteri (fun s (idx, _) -> off.(s + 1) <- off.(s) + Array.length idx) rows;
  let idx = Array.make off.(ns) 0 and cnt = Array.make off.(ns) 0.0 in
  Array.iteri
    (fun s (i, c) ->
      Array.blit i 0 idx off.(s) (Array.length i);
      Array.blit c 0 cnt off.(s) (Array.length c))
    rows;
  (off, idx, cnt)

(* Merge raw paths with identical (cost, taken, nottaken) into weighted
   canonical entries, in first-occurrence order.  Posterior responsibilities
   of merged paths are proportional, so estimators may work per signature —
   the raw array (and [signature_of_path]) is kept so they can still fold
   per-path quantities in enumeration order when exact summation order
   matters. *)
let canonicalize paths =
  let np = Array.length paths in
  let tbl = Hashtbl.create (2 * np) in
  let sig_of = Array.make np 0 in
  let reps = ref [] in
  let next = ref 0 in
  Array.iteri
    (fun p path ->
      let key = (path.cost, path.taken, path.nottaken) in
      match Hashtbl.find_opt tbl key with
      | Some s -> sig_of.(p) <- s
      | None ->
          let s = !next in
          incr next;
          Hashtbl.add tbl key s;
          sig_of.(p) <- s;
          reps := p :: !reps)
    paths;
  let rep = Array.of_list (List.rev_map (fun p -> paths.(p)) !reps) in
  let weight = Array.make (Array.length rep) 0.0 in
  Array.iter (fun s -> weight.(s) <- weight.(s) +. 1.0) sig_of;
  let taken_off, taken_idx, taken_cnt = csr (Array.map (fun p -> sparsify p.taken) rep) in
  let nottaken_off, nottaken_idx, nottaken_cnt =
    csr (Array.map (fun p -> sparsify p.nottaken) rep)
  in
  ( {
      sig_cost = Array.map (fun p -> p.cost) rep;
      sig_weight = weight;
      taken_off;
      taken_idx;
      taken_cnt;
      nottaken_off;
      nottaken_idx;
      nottaken_cnt;
    },
    sig_of )

(* Lanes per chain sweep; [accumulate_by_chain] is written out for six
   (two plan words per step). *)
let lanes = 6

(* Three slots share one int in the plan, [slot_bits] each: the product
   buffer has one slot per sparse signature entry, far below 2^20. *)
let slot_bits = 20
let slot_mask = (1 lsl slot_bits) - 1

(* Costs in chain-slot units: a path-walk update (its sums go through
   memory, one store-forward after another, and its raw path is marked
   and found in the bitset), filling one product slot, starting a group
   of lanes, and a sweep's fixed set-up.  Rough measurements; they only
   decide which of two equal-bit strategies runs, and on small path sets
   the walk must win.  At 4, the walk ran where the sweep was faster:
   windowed EM on ctp_rx_task under field faults (flat posteriors, about
   1200 live raw paths a value) took 20–30% longer than at 6. *)
let chain_cost = 6
let product_cost = 2
let group_setup_cost = 40
let sweep_setup_cost = 64

let plan_of ~k flat sig_of =
  let ns = Array.length flat.sig_cost in
  let n_taken = flat.taken_off.(ns) in
  let sq_base = n_taken + flat.nottaken_off.(ns) in
  let zero = sq_base + ns in
  let sink = (2 * k) + 1 in
  (* Chains 0..k−1: taken j; k..2k−1: either j; 2k: the σ sum.  Each
     raw path adds one term per sparse entry of its signature. *)
  let len = Array.make sink 0 in
  for s = 0 to ns - 1 do
    let w = int_of_float flat.sig_weight.(s) in
    for e = flat.taken_off.(s) to flat.taken_off.(s + 1) - 1 do
      let j = flat.taken_idx.(e) in
      len.(j) <- len.(j) + w;
      len.(k + j) <- len.(k + j) + w
    done;
    for e = flat.nottaken_off.(s) to flat.nottaken_off.(s + 1) - 1 do
      let c = k + flat.nottaken_idx.(e) in
      len.(c) <- len.(c) + w
    done;
    len.(2 * k) <- len.(2 * k) + w
  done;
  (* Deal the chains, longest first, to the lane with the least work so
     far; a lane runs its chains back to back. *)
  let order = List.init sink Fun.id |> List.stable_sort (fun a b -> compare len.(b) len.(a)) in
  let lane_of = Array.make sink 0 and start_of = Array.make sink 0 in
  let lane_total = Array.make lanes 0 in
  List.iter
    (fun c ->
      let l = ref 0 in
      for l' = 1 to lanes - 1 do
        if lane_total.(l') < lane_total.(!l) then l := l'
      done;
      lane_of.(c) <- !l;
      start_of.(c) <- lane_total.(!l);
      lane_total.(!l) <- lane_total.(!l) + len.(c))
    order;
  let steps = Array.fold_left Stdlib.max 0 lane_total in
  let lane_words =
    Array.make (lanes / 3 * steps) (zero lor (zero lsl slot_bits) lor (zero lsl (2 * slot_bits)))
  in
  (* Lay each chain's slots down its lane, in raw enumeration order.
     Slot position p = lanes · step + lane is third p mod 3 of word p / 3;
     lanes being a multiple of 3, a chain keeps its third and moves two
     words per step. *)
  let word = Array.init sink (fun c -> (2 * start_of.(c)) + (lane_of.(c) / 3)) in
  let shift = Array.init sink (fun c -> slot_bits * (lane_of.(c) mod 3)) in
  let put c slot =
    let q = word.(c) and sh = shift.(c) in
    lane_words.(q) <- lane_words.(q) land lnot (slot_mask lsl sh) lor (slot lsl sh);
    word.(c) <- q + 2
  in
  Array.iter
    (fun s ->
      for e = flat.taken_off.(s) to flat.taken_off.(s + 1) - 1 do
        let j = flat.taken_idx.(e) in
        put j e;
        put (k + j) e
      done;
      for e = flat.nottaken_off.(s) to flat.nottaken_off.(s + 1) - 1 do
        put (k + flat.nottaken_idx.(e)) (n_taken + e)
      done;
      put (2 * k) (sq_base + s))
    sig_of;
  (* Cut the steps into groups wherever some lane starts its next chain
     (or runs out), so within a group each lane feeds one accumulator. *)
  let bounds =
    List.filter_map (fun c -> if len.(c) > 0 then Some start_of.(c) else None) order
    @ Array.to_list lane_total
    |> List.filter (fun b -> b < steps)
    |> List.cons steps |> List.sort_uniq compare |> Array.of_list
  in
  let ng = Array.length bounds - 1 in
  let group_start = Array.init ng (fun g -> lanes * bounds.(g)) in
  let group_len = Array.init ng (fun g -> bounds.(g + 1) - bounds.(g)) in
  let group_target = Array.make (ng * lanes) sink in
  for g = 0 to ng - 1 do
    for c = 0 to sink - 1 do
      if start_of.(c) <= bounds.(g) && bounds.(g) < start_of.(c) + len.(c) then
        group_target.((lanes * g) + lane_of.(c)) <- c
    done
  done;
  {
    sq_base;
    zero;
    lane_words;
    group_start;
    group_len;
    group_target;
    sweep_cost =
      (lanes * steps) + (product_cost * (zero + 1)) + (group_setup_cost * ng)
      + sweep_setup_cost;
  }

let enumerate ?(max_paths = 4096) ?(max_visits = 12) ?max_steps model =
  let cfg = Model.cfg model in
  let n = Cfg.num_blocks cfg in
  let k = Model.num_params model in
  let visits = Array.make n 0 in
  let taken = Array.make k 0 in
  let nottaken = Array.make k 0 in
  let acc = ref [] in
  let count = ref 0 in
  let truncated = ref false in
  let steps = ref 0 in
  let step_budget = Option.value max_steps ~default:max_int in
  (* DFS carrying the running cost.  Mutable count arrays are restored on
     the way out, so the whole walk allocates only completed paths.  The
     step budget bounds *work*, not output: on CFGs where almost every
     partial path dies against [max_visits], exponentially many dead ends
     can separate completed paths, and without the cap enumeration would
     effectively never return. *)
  let rec walk id cost =
    if !count >= max_paths || !steps >= step_budget then truncated := true
    else if visits.(id) >= max_visits then truncated := true
    else begin
      incr steps;
      visits.(id) <- visits.(id) + 1;
      let cost = cost +. Model.block_cost model id in
      (match (Cfg.block cfg id).Cfg.term with
      | Cfg.T_ret | Cfg.T_halt ->
          incr count;
          acc :=
            {
              cost = cost -. Model.window_correction model;
              taken = Array.copy taken;
              nottaken = Array.copy nottaken;
            }
            :: !acc
      | Cfg.T_jump dst -> walk dst (cost +. penalty)
      | Cfg.T_fall dst -> walk dst cost
      | Cfg.T_branch (_, tdst, fdst) ->
          let p = Option.get (Model.param_of_block model id) in
          taken.(p) <- taken.(p) + 1;
          walk tdst (cost +. penalty);
          taken.(p) <- taken.(p) - 1;
          nottaken.(p) <- nottaken.(p) + 1;
          walk fdst cost;
          nottaken.(p) <- nottaken.(p) - 1);
      visits.(id) <- visits.(id) - 1
    end
  in
  if n > 0 then walk 0 0.0;
  if !acc = [] then
    raise
      (Too_complex
         (Printf.sprintf "no complete path within %d paths / %d visits" max_paths
            max_visits));
  let paths = Array.of_list (List.rev !acc) in
  let flat, signature_of_path = canonicalize paths in
  let ns = Array.length flat.sig_cost in
  let raw_off = Array.make (ns + 1) 0 in
  Array.iter (fun s -> raw_off.(s + 1) <- raw_off.(s + 1) + 1) signature_of_path;
  for s = 0 to ns - 1 do
    raw_off.(s + 1) <- raw_off.(s + 1) + raw_off.(s)
  done;
  let raw_pos = Array.make (Array.length paths) 0 in
  let next = Array.sub raw_off 0 ns in
  Array.iteri
    (fun p s ->
      raw_pos.(next.(s)) <- p;
      next.(s) <- next.(s) + 1)
    signature_of_path;
  let row_max off cnt s m =
    let m = ref m in
    for e = off.(s) to off.(s + 1) - 1 do
      m := Float.max !m cnt.(e)
    done;
    !m
  in
  let max_cnt =
    Array.init ns (fun s ->
        row_max flat.nottaken_off flat.nottaken_cnt s
          (row_max flat.taken_off flat.taken_cnt s 0.0))
  in
  {
    model;
    paths;
    truncated = !truncated;
    signature_of_path;
    flat;
    raw_off;
    raw_pos;
    max_cnt;
    cost_order =
      List.init ns Fun.id
      |> List.stable_sort (fun a b -> Float.compare flat.sig_cost.(a) flat.sig_cost.(b))
      |> Array.of_list;
    plan = Atomic.make None;
  }

let model t = t.model
let paths t = t.paths
let truncated t = t.truncated
let signature_of_path t = t.signature_of_path
let num_signatures t = Array.length t.flat.sig_cost
let flat t = t.flat
let cost_order t = t.cost_order

let log_prior t ~theta =
  Model.check_theta t.model theta;
  let eps = 1e-12 in
  let log_t = Array.map (fun p -> log (Stdlib.max eps p)) theta in
  let log_f = Array.map (fun p -> log (Stdlib.max eps (1.0 -. p))) theta in
  Array.map
    (fun path ->
      let acc = ref 0.0 in
      Array.iteri (fun p c -> acc := !acc +. (float_of_int c *. log_t.(p))) path.taken;
      Array.iteri (fun p c -> acc := !acc +. (float_of_int c *. log_f.(p))) path.nottaken;
      !acc)
    t.paths

let signature_log_prior_at t ~log_t ~log_f out s =
  let f = t.flat in
  let acc = ref 0.0 in
  for i = f.taken_off.(s) to f.taken_off.(s + 1) - 1 do
    acc := !acc +. (f.taken_cnt.(i) *. log_t.(f.taken_idx.(i)))
  done;
  for i = f.nottaken_off.(s) to f.nottaken_off.(s + 1) - 1 do
    acc := !acc +. (f.nottaken_cnt.(i) *. log_f.(f.nottaken_idx.(i)))
  done;
  out.(s) <- !acc

let signature_log_prior t ~log_t ~log_f out =
  for s = 0 to num_signatures t - 1 do
    signature_log_prior_at t ~log_t ~log_f out s
  done

type sums = { mutable sq : float; mutable gap_floor : float; mutable sq_gap : float }

(* The live walk marks raw paths in a bitset of [mark_bits]-bit words;
   a word's lowest set bit 2^i is found as [bit_of.(2^i mod 67)], 2
   being a primitive root mod 67, so 2^0 … 2^61 leave distinct
   remainders. *)
let mark_bits = 62

let bit_of =
  let t = Array.make 67 0 in
  for i = 0 to mark_bits - 1 do
    t.((1 lsl i) mod 67) <- i
  done;
  t

type replay = {
  set : t;
  path_work : int array;
      (* Per signature: the raw updates a live signature costs the path
         walk (its raw paths × (1 + sparse entries)). *)
  build_cost : int;  (* Σ path_work: one path walk with every path live. *)
  prune : bool;  (* Whether {!find_live} looks for no-op terms at all. *)
  mutable walked : int;  (* Path-walk work done so far. *)
  mutable plan : plan option;
  mutable prod : float array;  (* Plan slots; the [zero] slot stays +0.0. *)
  acc : float array;  (* taken k | either k | σ sum | padding sink *)
  sums : sums;
  gap_taken : float array;
  gap_either : float array;
      (* Per parameter: {!half_gap} of the taken and either accumulators
         as they stood before the current value. *)
  live : int array;  (* The signatures the current value must replay… *)
  mutable n_live : int;  (* …in its first [n_live] entries, ascending. *)
  mark : int array;  (* The live walk's raw-path bitset; all clear between calls. *)
  mutable mark_lo : int;
  mutable mark_hi : int;  (* The first and last word {!mark_live} set. *)
}

(* Looking for no-op terms costs, per call, a half gap per accumulator
   (about [gap_cost] walk updates each) and a look at each signature and
   its sparse entries; it can save at most one full path walk.  Where
   signatures merge few raw paths (every bundled procedure but
   ctp_rx_task, whose 176 signatures stand for 4096 paths), that walk
   costs less than the look, so such path sets never prune. *)
let gap_cost = 4

let prune_cost ~k set =
  let f = set.flat in
  let ns = Array.length f.sig_cost in
  (gap_cost * ((2 * k) + 1)) + ns + f.taken_off.(ns) + f.nottaken_off.(ns)

let replay (set : t) =
  let f = set.flat in
  let ns = num_signatures set and k = Model.num_params set.model in
  let path_work =
    Array.init ns (fun s ->
        int_of_float f.sig_weight.(s)
        * (1 + f.taken_off.(s + 1) - f.taken_off.(s)
          + f.nottaken_off.(s + 1) - f.nottaken_off.(s)))
  in
  let build_cost = Array.fold_left ( + ) 0 path_work in
  {
    set;
    path_work;
    build_cost;
    prune = build_cost > prune_cost ~k set;
    walked = 0;
    plan = None;
    prod = [||];
    acc = Array.make ((2 * k) + 2) 0.0;
    sums = { sq = 0.0; gap_floor = 0.0; sq_gap = 0.0 };
    gap_taken = Array.make k 0.0;
    gap_either = Array.make k 0.0;
    live = Array.make ns 0;
    n_live = 0;
    mark = Array.make ((Array.length set.signature_of_path / mark_bits) + 1) 0;
    mark_lo = 0;
    mark_hi = -1;
  }

(* Laying out the plan costs about [plan_cost] path walks over all raw
   entries (measured on ctp_rx_task), so a replay walks paths until it
   has spent that much, then adopts the path set's plan, building it if
   no replay has: a short estimate never pays for it, a long one pays at
   most twice.  An already built plan is adopted at once. *)
let plan_cost = 4

(* Every slot index, up to the [zero] slot, must fit [slot_bits]; a path
   set too large for that (a million sparse entries) always walks. *)
let slots_fit set =
  let f = set.flat in
  let ns = Array.length f.sig_cost in
  f.taken_off.(ns) + f.nottaken_off.(ns) + ns <= slot_mask

let chain_plan rp =
  match rp.plan with
  | Some _ as adopted -> adopted
  | None ->
      let plan =
        match Atomic.get rp.set.plan with
        | Some _ as cached -> cached
        | None when rp.walked >= plan_cost * rp.build_cost && slots_fit rp.set ->
            let set = rp.set in
            let built =
              Some (plan_of ~k:(Model.num_params set.model) set.flat set.signature_of_path)
            in
            Atomic.set set.plan built;
            built
        | None -> None
      in
      (match plan with
      | Some pl ->
          rp.plan <- plan;
          rp.prod <- Array.make (pl.zero + 1) 0.0
      | None -> ());
      plan

let replay_sums rp = rp.sums

(* Every [sig_of] entry is below [ns], so each read stays in its row of
   [w], whose length [replay_normalizers] checked. *)
let sum_four_rows sig_of w ~ns norms r =
  let b0 = r * ns in
  let b1 = b0 + ns in
  let b2 = b1 + ns in
  let b3 = b2 + ns in
  let z0 = ref 0.0 and z1 = ref 0.0 and z2 = ref 0.0 and z3 = ref 0.0 in
  for p = 0 to Array.length sig_of - 1 do
    let s = Array.unsafe_get sig_of p in
    z0 := !z0 +. Array.unsafe_get w (b0 + s);
    z1 := !z1 +. Array.unsafe_get w (b1 + s);
    z2 := !z2 +. Array.unsafe_get w (b2 + s);
    z3 := !z3 +. Array.unsafe_get w (b3 + s)
  done;
  norms.(r) <- !z0;
  norms.(r + 1) <- !z1;
  norms.(r + 2) <- !z2;
  norms.(r + 3) <- !z3

let sum_row sig_of w ~ns norms r =
  let b = r * ns in
  let z = ref 0.0 in
  for p = 0 to Array.length sig_of - 1 do
    z := !z +. Array.unsafe_get w (b + Array.unsafe_get sig_of p)
  done;
  norms.(r) <- !z

let replay_normalizers rp w norms =
  let sig_of = rp.set.signature_of_path and ns = num_signatures rp.set in
  let rows = Array.length norms in
  if Array.length w < rows * ns then invalid_arg "Paths.replay_normalizers: short weight array";
  for q = 0 to (rows / 4) - 1 do
    sum_four_rows sig_of w ~ns norms (4 * q)
  done;
  for r = rows - (rows mod 4) to rows - 1 do
    sum_row sig_of w ~ns norms r
  done

(* Round to nearest rounds a +. x back to a when 0 ≤ x < half the gap
   from a up to the next float; a tie may round up, hence the strict
   [<].  The gap is read as 0 where nothing may be skipped that way:
   a = +0.0 (half the smallest subnormal rounds to 0), a = max_float
   (the gap above it is ∞, though a large x overflows), ∞ and NaN. *)
let[@inline] half_gap a =
  let g = Int64.float_of_bits (Int64.succ (Int64.bits_of_float a)) -. a in
  if g < infinity then 0.5 *. g else 0.0

let[@inline] no_op ~gap x = x < gap || x = 0.0

let skips a x = no_op ~gap:(half_gap a) x

let replay_gaps rp ~taken ~either =
  rp.prune
  && begin
       let gt = rp.gap_taken and ge = rp.gap_either in
       let floor = ref infinity in
       for j = 0 to Array.length taken - 1 do
         let a = half_gap taken.(j) and b = half_gap either.(j) in
         gt.(j) <- a;
         ge.(j) <- b;
         if a < !floor then floor := a;
         if b < !floor then floor := b
       done;
       rp.sums.gap_floor <- !floor;
       rp.sums.sq_gap <- half_gap rp.sums.sq;
       true
     end

(* List the signatures whose terms may change a bit of some
   accumulator, ascending, and return the path-walk work they cost; stop
   early once that work reaches [limit] (the chain sweep then runs and
   needs no list).  A dead signature adds terms x ≤ r × its largest count
   to taken and either accumulators, and r·d² to the σ sum.  Every term
   is non-negative, so during one value each accumulator only grows from
   the a it held before the value, and the gap above it never shrinks: x
   below half that first gap is a no-op wherever the raw order puts it.
   A zero term is a no-op on any non-negative sum. *)
let find_live rp ~limit ~threshold ~resp ~sq ~taken ~either =
  let set = rp.set in
  let f = set.flat in
  let toff = f.taken_off and tidx = f.taken_idx in
  let foff = f.nottaken_off and fidx = f.nottaken_idx in
  let gt = rp.gap_taken and ge = rp.gap_either in
  let max_cnt = set.max_cnt and path_work = rp.path_work and live = rp.live in
  let prune = replay_gaps rp ~taken ~either in
  (* A term below the smallest gap of all needs no per-entry lookup. *)
  let floor = rp.sums.gap_floor and sq_gap = rp.sums.sq_gap in
  let ns = Array.length f.sig_cost in
  let s = ref 0 and n = ref 0 and work = ref 0 in
  while !s < ns && !work < limit do
    let r = resp.(!s) in
    if r > threshold then begin
      let quiet = ref (prune && no_op ~gap:sq_gap sq.(!s)) in
      let x = r *. max_cnt.(!s) in
      if !quiet && not (no_op ~gap:floor x) then begin
        let i = ref toff.(!s) in
        while !quiet && !i < toff.(!s + 1) do
          let j = tidx.(!i) in
          quiet := x < gt.(j) && x < ge.(j);
          incr i
        done;
        let i = ref foff.(!s) in
        while !quiet && !i < foff.(!s + 1) do
          quiet := x < ge.(fidx.(!i));
          incr i
        done
      end;
      if not !quiet then begin
        live.(!n) <- !s;
        incr n;
        work := !work + path_work.(!s)
      end
    end;
    incr s
  done;
  rp.n_live <- !n;
  !work

(* Mark the raw paths of signatures [live.(0)] to [live.(n − 1)] in the
   bitset and record the first and last marked word. *)
let mark_live rp live n =
  let set = rp.set in
  let mark = rp.mark and raw_off = set.raw_off and raw_pos = set.raw_pos in
  let lo = ref (Array.length mark) and hi = ref (-1) in
  for i = 0 to n - 1 do
    let s = live.(i) in
    for e = raw_off.(s) to raw_off.(s + 1) - 1 do
      let p = raw_pos.(e) in
      let q = p / mark_bits in
      mark.(q) <- mark.(q) lor (1 lsl (p - (q * mark_bits)));
      if q < !lo then lo := q;
      if q > !hi then hi := q
    done
  done;
  rp.mark_lo <- !lo;
  rp.mark_hi <- !hi

(* Visit the marked raw paths in ascending order, clearing the bitset. *)
let replay_live_normalizer rp w ~live n =
  mark_live rp live n;
  let sig_of = rp.set.signature_of_path and mark = rp.mark in
  let z = ref 0.0 in
  for q = rp.mark_lo to rp.mark_hi do
    let word = ref mark.(q) in
    mark.(q) <- 0;
    while !word <> 0 do
      let low = !word land - !word in
      word := !word lxor low;
      z := !z +. w.(sig_of.((q * mark_bits) + bit_of.(low mod 67)))
    done
  done;
  !z

(* Few live signatures: mark their raw paths, then visit the marked
   paths in ascending raw order, updating the accumulators in place.
   Cost: the live paths plus one read per bitset word. *)
let accumulate_by_path rp ~resp ~sq ~taken ~either =
  let set = rp.set in
  let sig_of = set.signature_of_path and f = set.flat in
  let toff = f.taken_off and tidx = f.taken_idx and tcnt = f.taken_cnt in
  let foff = f.nottaken_off and fidx = f.nottaken_idx and fcnt = f.nottaken_cnt in
  let mark = rp.mark in
  mark_live rp rp.live rp.n_live;
  let sq_acc = ref rp.sums.sq in
  for q = rp.mark_lo to rp.mark_hi do
    let word = ref mark.(q) in
    mark.(q) <- 0;
    while !word <> 0 do
      let low = !word land - !word in
      word := !word lxor low;
      let s = sig_of.((q * mark_bits) + bit_of.(low mod 67)) in
      let r = resp.(s) in
      for i = toff.(s) to toff.(s + 1) - 1 do
        let j = tidx.(i) in
        let rf = r *. tcnt.(i) in
        taken.(j) <- taken.(j) +. rf;
        either.(j) <- either.(j) +. rf
      done;
      for i = foff.(s) to foff.(s + 1) - 1 do
        let j = fidx.(i) in
        either.(j) <- either.(j) +. (r *. fcnt.(i))
      done;
      sq_acc := !sq_acc +. sq.(s)
    done
  done;
  rp.sums.sq <- !sq_acc

(* Many live paths: fill the product buffer once per signature, then run
   the chains [lanes] at a time with register accumulators. *)
let accumulate_by_chain rp pl ~threshold ~resp ~sq ~taken ~either =
  let f = rp.set.flat and prod = rp.prod and acc = rp.acc in
  let k = Array.length taken in
  let n_taken = f.taken_off.(Array.length f.sig_cost) in
  for s = 0 to Array.length f.sig_cost - 1 do
    let r = resp.(s) in
    let live = r > threshold in
    let r = if live then r else 0.0 in
    for e = f.taken_off.(s) to f.taken_off.(s + 1) - 1 do
      prod.(e) <- r *. f.taken_cnt.(e)
    done;
    for e = f.nottaken_off.(s) to f.nottaken_off.(s + 1) - 1 do
      prod.(n_taken + e) <- r *. f.nottaken_cnt.(e)
    done;
    prod.(pl.sq_base + s) <- (if live then sq.(s) else 0.0)
  done;
  Array.blit taken 0 acc 0 k;
  Array.blit either 0 acc k k;
  acc.(2 * k) <- rp.sums.sq;
  let words = pl.lane_words and target = pl.group_target in
  for g = 0 to Array.length pl.group_len - 1 do
    let t = lanes * g in
    let t0 = target.(t) and t1 = target.(t + 1) and t2 = target.(t + 2) in
    let t3 = target.(t + 3) and t4 = target.(t + 4) and t5 = target.(t + 5) in
    let a0 = ref acc.(t0) and a1 = ref acc.(t1) and a2 = ref acc.(t2) in
    let a3 = ref acc.(t3) and a4 = ref acc.(t4) and a5 = ref acc.(t5) in
    let start = pl.group_start.(g) / 3 in
    (* [plan_of] packed only slots below [zero + 1] = [Array.length prod]. *)
    for i = 0 to pl.group_len.(g) - 1 do
      let b = start + (2 * i) in
      let w = Array.unsafe_get words b and w' = Array.unsafe_get words (b + 1) in
      a0 := !a0 +. Array.unsafe_get prod (w land slot_mask);
      a1 := !a1 +. Array.unsafe_get prod ((w lsr slot_bits) land slot_mask);
      a2 := !a2 +. Array.unsafe_get prod (w lsr (2 * slot_bits));
      a3 := !a3 +. Array.unsafe_get prod (w' land slot_mask);
      a4 := !a4 +. Array.unsafe_get prod ((w' lsr slot_bits) land slot_mask);
      a5 := !a5 +. Array.unsafe_get prod (w' lsr (2 * slot_bits))
    done;
    acc.(t0) <- !a0;
    acc.(t1) <- !a1;
    acc.(t2) <- !a2;
    acc.(t3) <- !a3;
    acc.(t4) <- !a4;
    acc.(t5) <- !a5
  done;
  Array.blit acc 0 taken 0 k;
  Array.blit acc k either 0 k;
  rp.sums.sq <- acc.(2 * k)

let replay_accumulate rp ~threshold ~resp ~sq ~taken ~either =
  let set = rp.set in
  let ns = num_signatures set and k = Model.num_params set.model in
  if Array.length resp < ns || Array.length sq < ns then
    invalid_arg "Paths.replay_accumulate: short per-signature array";
  if Array.length taken <> k || Array.length either <> k then
    invalid_arg "Paths.replay_accumulate: accumulators must have one slot per parameter";
  (* Both strategies change the accumulators exactly as the dense loop
     does; pick the cheaper one for the work left after pruning.  The
     chain sweep wins once [words + chain_cost × live work] reaches its
     cost, so pruning stops there. *)
  let words = Array.length rp.mark in
  let plan = chain_plan rp in
  let limit =
    match plan with
    | Some pl -> (pl.sweep_cost - words + chain_cost - 1) / chain_cost
    | None -> max_int
  in
  let live_work = find_live rp ~limit ~threshold ~resp ~sq ~taken ~either in
  match plan with
  | Some pl when live_work >= limit ->
      accumulate_by_chain rp pl ~threshold ~resp ~sq ~taken ~either
  | Some _ | None ->
      rp.walked <- rp.walked + words + live_work;
      accumulate_by_path rp ~resp ~sq ~taken ~either

let prior_mass t ~theta =
  log_prior t ~theta |> Array.fold_left (fun acc lp -> acc +. exp lp) 0.0

(* Every raw path's cost is its signature's. *)
let fold_cost f init t = Array.fold_left f init t.flat.sig_cost

let min_cost t = fold_cost Stdlib.min infinity t
let max_cost t = fold_cost Stdlib.max neg_infinity t

let sample_costs rng t ~theta ~n =
  let lp = log_prior t ~theta in
  let weights = Array.map exp lp in
  Array.init n (fun _ -> t.paths.(Stats.Rng.categorical rng weights).cost)
