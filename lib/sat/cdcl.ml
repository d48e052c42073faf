type options = {
  var_decay : float;
  restart_base : int;
  budget : Ec_util.Budget.t;
  phase_hint : Ec_cnf.Assignment.t option;
  seed : int;
}

let default_options =
  { var_decay = 0.95;
    restart_base = 100;
    budget = Ec_util.Budget.unlimited;
    phase_hint = None;
    seed = 91 }

(* Tunable surface for the unified config plane (Ec_util.Config).
   Budget and phase_hint stay outside the spec: they are per-solve
   runtime state, not algorithm shape. *)
let config =
  Ec_util.Config.make ~engine:"cdcl"
    ~doc:"clause-learning SAT solver (VSIDS, Luby restarts, phase saving)"
    ~defaults:default_options
    [ Ec_util.Config.float "var_decay" ~doc:"VSIDS activity decay per conflict"
        ~get:(fun o -> o.var_decay)
        ~set:(fun v o -> { o with var_decay = v });
      Ec_util.Config.int "restart_base" ~doc:"conflicts per Luby restart unit"
        ~get:(fun o -> o.restart_base)
        ~set:(fun v o -> { o with restart_base = v });
      Ec_util.Config.int "seed" ~doc:"initial variable-order randomization seed"
        ~get:(fun o -> o.seed)
        ~set:(fun v o -> { o with seed = v }) ]

type stats = {
  decisions : int;
  propagations : int;
  conflicts : int;
  restarts : int;
  learnt_clauses : int;
  deleted_clauses : int;
}

type response = {
  outcome : Outcome.t;
  reason : Ec_util.Budget.reason;
  stats : stats;
  counters : Ec_util.Budget.counters;
}

(* Internal encoding: variable v in [0,n); literal 2v positive, 2v+1
   negative.  Values: -1 undefined, 0 false, 1 true. *)

let lit_of_dimacs l = if l > 0 then 2 * (l - 1) else (2 * (-l - 1)) + 1

let var_of_dimacs x = x - 1

let dimacs_of_lit l = if l land 1 = 0 then (l lsr 1) + 1 else -((l lsr 1) + 1)

let neg l = l lxor 1

let var_of l = l lsr 1

let is_pos l = l land 1 = 0

(* Clauses live in one int arena.  Clause [c] is an offset: [c] holds
   the size, [c + 1] the flags ([learnt_bit], [deleted_bit]) and the
   LBD shifted by two, [c + 2] the activity, and the literals follow
   from [c + hdr].  A learnt clause's activity starts at 1 and only
   ever grows by 1, so an int holds it exactly.  Problem clauses of
   length one are enqueued, not stored; only clauses of length >= 2
   reach the arena.

   Watch lists are segments of one int buffer: literal [l]'s watchers
   are [wbuf.(start) .. wbuf.(start + wlen.(l) - 1)], in [cap] reserved
   slots, where [wseg.(l)] packs [start] above [cap].  A push onto a
   full segment moves it, in order, to the end of the buffer with
   doubled capacity; the old slots become garbage until the next
   compaction. *)

let hdr = 3

let learnt_bit = 1

let deleted_bit = 2

type solver = {
  nvars : int;
  (* assignment state *)
  assigns : int array;          (* per var: -1/0/1 *)
  level : int array;            (* per var *)
  reason : int array;           (* per var: clause offset, -1 for none *)
  trail : int array;            (* literals in assignment order *)
  mutable trail_len : int;
  mutable trail_lim : int array; (* trail length at each decision level *)
  mutable ndecisions : int;     (* = current decision level *)
  mutable qhead : int;
  (* clauses *)
  mutable arena : int array;
  mutable arena_top : int;
  mutable n_clauses : int;      (* problem clauses in the arena *)
  learnts : int Ec_util.Vec.t;  (* offsets, oldest first *)
  (* watches *)
  mutable wbuf : int array;
  mutable wbuf_top : int;
  wseg : int array;             (* per literal: start lsl cap_bits lor cap *)
  wlen : int array;
  (* branching *)
  heap : Ec_util.Idx_heap.t;
  phase : Bytes.t;              (* per var: '\001' for true *)
  mutable var_inc : float;
  var_decay : float;
  (* analyze scratch, made at the first conflict or failed assumption *)
  mutable seen : bool array;
  mutable found : int array;    (* lower-level literals, then the learnt clause *)
  mutable kept : int array;     (* the found literals minimization keeps *)
  mutable level_mark : int array;
  mutable mark : int;
  mutable learnt_len : int;
  mutable learnt_lbd : int;
  (* counters *)
  mutable stat_decisions : int;
  mutable stat_propagations : int;
  mutable stat_conflicts : int;
  mutable stat_restarts : int;
  mutable stat_learnt : int;
  mutable stat_deleted : int;
}

let value_var s v = s.assigns.(v)

let value_lit s l =
  let a = s.assigns.(var_of l) in
  if a < 0 then -1 else if is_pos l then a else 1 - a

(* Only variables that some loaded clause mentions enter the decision
   heap; the rest keep their saved phase, which is the value a decision
   would have given them. *)
let create_solver_raw (options : options) n =
  let s =
    { nvars = n;
      assigns = Array.make (max n 1) (-1);
      level = Array.make (max n 1) 0;
      reason = Array.make (max n 1) (-1);
      trail = Array.make (max n 1) 0;
      trail_len = 0;
      trail_lim = Array.make 16 0;
      ndecisions = 0;
      qhead = 0;
      arena = [||];
      arena_top = 0;
      n_clauses = 0;
      learnts = Ec_util.Vec.create ~dummy:0 ();
      wbuf = [||];
      wbuf_top = 0;
      wseg = Array.make (max (2 * n) 1) 0;
      wlen = Array.make (max (2 * n) 1) 0;
      heap = Ec_util.Idx_heap.create (max n 1);
      phase = Bytes.make (max n 1) '\000';
      var_inc = 1.0;
      var_decay = options.var_decay;
      seen = [||];
      found = [||];
      kept = [||];
      level_mark = [||];
      mark = 0;
      learnt_len = 0;
      learnt_lbd = 0;
      stat_decisions = 0;
      stat_propagations = 0;
      stat_conflicts = 0;
      stat_restarts = 0;
      stat_learnt = 0;
      stat_deleted = 0 }
  in
  (match options.phase_hint with
  | None -> ()
  | Some a ->
    let hint_n = min n (Ec_cnf.Assignment.num_vars a) in
    for v = 1 to hint_n do
      match Ec_cnf.Assignment.value a v with
      | Ec_cnf.Assignment.True -> Bytes.set s.phase (v - 1) '\001'
      | Ec_cnf.Assignment.False | Ec_cnf.Assignment.Dc -> ()
    done);
  (* Slightly randomized initial order so reruns with different seeds
     explore differently.  Every variable draws its priority, mentioned
     or not, so the order among mentioned variables does not depend on
     which they are. *)
  let rng = Ec_util.Rng.create options.seed in
  for v = 0 to n - 1 do
    Ec_util.Idx_heap.set_priority s.heap v (Ec_util.Rng.float rng *. 1e-6)
  done;
  s

let var_bump s v =
  let p = Ec_util.Idx_heap.priority s.heap v +. s.var_inc in
  Ec_util.Idx_heap.set_priority s.heap v p;
  if p > 1e100 then begin
    Ec_util.Idx_heap.rescale s.heap 1e-100;
    s.var_inc <- s.var_inc *. 1e-100
  end

let var_decay_tick s = s.var_inc <- s.var_inc /. s.var_decay

(* ---- the arena ---- *)

(* Room for [words] more words at the top of the arena. *)
let reserve_arena s words =
  let need = s.arena_top + words in
  if need > Array.length s.arena then begin
    let a = Array.make (max need (2 * Array.length s.arena)) 0 in
    Array.blit s.arena 0 a 0 s.arena_top;
    s.arena <- a
  end

(* ---- watch segments ---- *)

let cap_bits = 30

let seg_start s l = s.wseg.(l) lsr cap_bits

let seg_cap s l = s.wseg.(l) land ((1 lsl cap_bits) - 1)

let set_seg s l ~start ~cap = s.wseg.(l) <- (start lsl cap_bits) lor cap

(* The capacity a segment of [len] watchers is laid out with. *)
let with_slack len = if len = 0 then 0 else (3 * len / 2) + 1

(* Move literal [l]'s full segment to the end of the buffer with
   doubled capacity, growing the buffer if needed.  Every other segment
   keeps its offset, so a scan in [propagate] survives it as long as it
   re-reads [s.wbuf]. *)
let relocate s l =
  let cap = seg_cap s l in
  let ncap = if cap < 2 then 4 else 2 * cap in
  let top = s.wbuf_top in
  if top + ncap > Array.length s.wbuf then begin
    let b = Array.make (max (top + ncap) (2 * Array.length s.wbuf)) 0 in
    Array.blit s.wbuf 0 b 0 top;
    s.wbuf <- b
  end;
  Array.blit s.wbuf (seg_start s l) s.wbuf top s.wlen.(l);
  set_seg s l ~start:top ~cap:ncap;
  s.wbuf_top <- top + ncap

let watch s l c =
  let len = s.wlen.(l) in
  if len = seg_cap s l then relocate s l;
  s.wbuf.(seg_start s l + len) <- c;
  s.wlen.(l) <- len + 1

(* Lay every segment out afresh, back to back with [with_slack] room,
   keeping each watcher [w] for which [remap w] is not -1 as [remap w],
   in order.  Never called while [propagate] scans a segment. *)
let compact_watches s remap =
  let nlits = 2 * s.nvars in
  let total = ref 0 in
  for l = 0 to nlits - 1 do
    total := !total + with_slack s.wlen.(l)
  done;
  let b = Array.make (!total + (!total lsr 1) + 16) 0 in
  let top = ref 0 in
  for l = 0 to nlits - 1 do
    let base = seg_start s l in
    let j = ref 0 in
    for i = 0 to s.wlen.(l) - 1 do
      let w = remap s.wbuf.(base + i) in
      if w >= 0 then begin
        b.(!top + !j) <- w;
        incr j
      end
    done;
    s.wlen.(l) <- !j;
    set_seg s l ~start:!top ~cap:(with_slack !j);
    top := !top + with_slack !j
  done;
  s.wbuf <- b;
  s.wbuf_top <- !top

(* Garbage (slots of moved segments, unused slack) exceeds the live
   watchers, two per clause in the arena, and one slot per literal. *)
let watches_sparse s =
  let live = 2 * (s.n_clauses + Ec_util.Vec.length s.learnts) in
  s.wbuf_top > 2 * (live + s.nvars)

(* Drop the deleted learnts, [live] words staying: copy the live
   clauses, in order, into a fresh arena and move every offset
   (watchers, reasons, the learnt list) to its copy.  A copied clause
   leaves its new offset in its old activity word; a deleted one leaves
   -1. *)
let compact_arena s ~live =
  let old = s.arena in
  let a = Array.make (live + (live lsr 1) + 64) 0 in
  let top = ref 0 in
  let c = ref 0 in
  while !c < s.arena_top do
    let words = hdr + old.(!c) in
    if old.(!c + 1) land deleted_bit = 0 then begin
      Array.blit old !c a !top words;
      old.(!c + 2) <- !top;
      top := !top + words
    end
    else old.(!c + 2) <- -1;
    c := !c + words
  done;
  s.arena <- a;
  s.arena_top <- !top;
  let moved c = old.(c + 2) in
  for v = 0 to s.nvars - 1 do
    if s.reason.(v) >= 0 then s.reason.(v) <- moved s.reason.(v)
  done;
  for i = 0 to Ec_util.Vec.length s.learnts - 1 do
    Ec_util.Vec.set s.learnts i (moved (Ec_util.Vec.get s.learnts i))
  done;
  compact_watches s moved

(* Room and a header for a clause of [len >= 2] literals, which the
   caller writes from [c + hdr] before it [attach]es [c]. *)
let new_clause s len ~info ~activity =
  reserve_arena s (hdr + len);
  let c = s.arena_top in
  s.arena.(c) <- len;
  s.arena.(c + 1) <- info;
  s.arena.(c + 2) <- activity;
  s.arena_top <- c + hdr + len;
  c

let attach s c =
  watch s s.arena.(c + hdr) c;
  watch s s.arena.(c + hdr + 1) c

(* Enqueue a literal as true, with a reason clause or -1. *)
let enqueue s l reason =
  let v = var_of l in
  s.assigns.(v) <- (if is_pos l then 1 else 0);
  s.level.(v) <- s.ndecisions;
  s.reason.(v) <- reason;
  s.trail.(s.trail_len) <- l;
  s.trail_len <- s.trail_len + 1

(* Load one problem clause (DIMACS literals) at decision level 0.
   Returns false on an immediate contradiction. *)
let load_clause s dimacs_lits =
  assert (s.ndecisions = 0);
  for i = 0 to Array.length dimacs_lits - 1 do
    Ec_util.Idx_heap.insert s.heap (var_of (lit_of_dimacs dimacs_lits.(i)))
  done;
  match Array.length dimacs_lits with
  | 0 -> false
  | 1 -> (
    let l = lit_of_dimacs dimacs_lits.(0) in
    match value_lit s l with
    | 1 -> true
    | 0 -> false
    | _ ->
      enqueue s l (-1);
      true)
  | len ->
    (* If some literal is already true at level 0 the clause is
       permanently satisfied but attaching it is still sound; if all
       literals are false at level 0 the formula is contradictory,
       which propagation will discover since both watches are false —
       force a check by watching two arbitrary literals and letting the
       caller propagate. *)
    let c = new_clause s len ~info:0 ~activity:0 in
    for i = 0 to len - 1 do
      s.arena.(c + hdr + i) <- lit_of_dimacs dimacs_lits.(i)
    done;
    attach s c;
    s.n_clauses <- s.n_clauses + 1;
    true

(* Load the clauses [iter] yields into a solver that has none yet, in
   order, stopping at the first immediate contradiction (then false).
   A first pass counts the arena words and each literal's watchers (the
   first two literals of each clause of length >= 2, counted in
   [wlen]), so the segments are laid out back to back once and loading
   moves none of them. *)
let load s iter =
  let words = ref 0 in
  iter (fun lits ->
      let len = Array.length lits in
      if len >= 2 then begin
        words := !words + hdr + len;
        let l0 = lit_of_dimacs lits.(0) and l1 = lit_of_dimacs lits.(1) in
        s.wlen.(l0) <- s.wlen.(l0) + 1;
        s.wlen.(l1) <- s.wlen.(l1) + 1
      end);
  let top = ref 0 in
  for l = 0 to (2 * s.nvars) - 1 do
    let cap = with_slack s.wlen.(l) in
    set_seg s l ~start:!top ~cap;
    s.wlen.(l) <- 0;
    top := !top + cap
  done;
  s.wbuf <- Array.make (!top + (!top lsr 1) + 16) 0;
  s.wbuf_top <- !top;
  s.arena <- Array.make (!words + (!words lsr 1) + 64) 0;
  let ok = ref true in
  iter (fun lits -> if !ok && not (load_clause s lits) then ok := false);
  !ok

let new_decision_level s =
  if s.ndecisions = Array.length s.trail_lim then begin
    let t = Array.make (2 * s.ndecisions) 0 in
    Array.blit s.trail_lim 0 t 0 s.ndecisions;
    s.trail_lim <- t
  end;
  s.trail_lim.(s.ndecisions) <- s.trail_len;
  s.ndecisions <- s.ndecisions + 1

let backtrack s target_level =
  if s.ndecisions > target_level then begin
    let bound = s.trail_lim.(target_level) in
    for i = s.trail_len - 1 downto bound do
      let l = s.trail.(i) in
      let v = var_of l in
      s.assigns.(v) <- -1;
      s.reason.(v) <- -1;
      Bytes.set s.phase v (if is_pos l then '\001' else '\000');
      Ec_util.Idx_heap.insert s.heap v
    done;
    s.trail_len <- bound;
    s.qhead <- bound;
    s.ndecisions <- target_level
  end

(* Two-watched-literal propagation.  Returns the conflicting clause, or
   -1.  Moving a watch may relocate another literal's segment and grow
   the buffer, so the scan re-reads [s.wbuf] after it; the scanned
   segment itself keeps its offset. *)
let propagate s =
  let conflict = ref (-1) in
  while !conflict < 0 && s.qhead < s.trail_len do
    let p = s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    s.stat_propagations <- s.stat_propagations + 1;
    let false_lit = neg p in
    let base = seg_start s false_lit in
    let n = s.wlen.(false_lit) in
    let j = ref 0 in
    let i = ref 0 in
    while !i < n do
      let ws = s.wbuf in
      let c = ws.(base + !i) in
      incr i;
      let a = s.arena in
      let l0 = c + hdr in
      (* Put the false literal at position 1. *)
      if a.(l0) = false_lit then begin
        a.(l0) <- a.(l0 + 1);
        a.(l0 + 1) <- false_lit
      end;
      let first = a.(l0) in
      if value_lit s first = 1 then begin
        (* Clause already satisfied: keep the watch. *)
        ws.(base + !j) <- c;
        incr j
      end
      else begin
        (* Look for a replacement watch. *)
        let stop = l0 + a.(c) in
        let k = ref (l0 + 2) in
        while !k < stop && value_lit s a.(!k) = 0 do
          incr k
        done;
        if !k < stop then begin
          (* Move the watch. *)
          let w = a.(!k) in
          a.(l0 + 1) <- w;
          a.(!k) <- false_lit;
          watch s w c
        end
        else begin
          (* Unit or conflicting. *)
          ws.(base + !j) <- c;
          incr j;
          if value_lit s first = 0 then begin
            (* Conflict: keep remaining watches and stop. *)
            while !i < n do
              ws.(base + !j) <- ws.(base + !i);
              incr j;
              incr i
            done;
            s.qhead <- s.trail_len;
            conflict := c
          end
          else enqueue s first c
        end
      end
    done;
    s.wlen.(false_lit) <- !j
  done;
  !conflict

let make_scratch s =
  if Array.length s.seen = 0 then begin
    s.seen <- Array.make (max s.nvars 1) false;
    s.found <- Array.make (max s.nvars 1) 0;
    s.kept <- Array.make (max s.nvars 1) 0;
    s.level_mark <- Array.make (s.nvars + 1) 0
  end

(* First-UIP learning.  Leaves the learnt clause in [s.found.(0 ..
   s.learnt_len - 1)], the asserting literal first, its LBD in
   [s.learnt_lbd], and returns the backtrack level. *)
let analyze s confl =
  make_scratch s;
  let a = s.arena in
  let nfound = ref 0 in
  let counter = ref 0 in
  let p = ref (-1) in
  let confl = ref confl in
  let index = ref (s.trail_len - 1) in
  let continue = ref true in
  while !continue do
    let c = !confl in
    if a.(c + 1) land learnt_bit <> 0 then a.(c + 2) <- a.(c + 2) + 1;
    for k = c + hdr to c + hdr + a.(c) - 1 do
      let q = a.(k) in
      if q <> !p then begin
        let v = var_of q in
        if (not s.seen.(v)) && s.level.(v) > 0 then begin
          s.seen.(v) <- true;
          var_bump s v;
          if s.level.(v) >= s.ndecisions then incr counter
          else begin
            s.found.(!nfound) <- q;
            incr nfound
          end
        end
      end
    done;
    (* Select the next trail literal to expand. *)
    while not s.seen.(var_of s.trail.(!index)) do
      decr index
    done;
    let pl = s.trail.(!index) in
    p := pl;
    s.seen.(var_of pl) <- false;
    decr index;
    decr counter;
    if !counter = 0 then continue := false
    else confl := s.reason.(var_of pl)
  done;
  (* Minimize: drop literals whose reason is entirely covered by other
     seen literals (local minimization).  The survivors, latest found
     first, go to [s.kept]. *)
  let nkept = ref 0 in
  for i = !nfound - 1 downto 0 do
    let q = s.found.(i) in
    let rc = s.reason.(var_of q) in
    let redundant =
      rc >= 0
      &&
      let nq = neg q in
      let stop = rc + hdr + a.(rc) in
      let k = ref (rc + hdr) in
      while
        !k < stop
        &&
        let l = a.(!k) in
        l = nq || s.seen.(var_of l) || s.level.(var_of l) = 0
      do
        incr k
      done;
      !k >= stop
    in
    if not redundant then begin
      s.kept.(!nkept) <- q;
      incr nkept
    end
  done;
  for i = 0 to !nfound - 1 do
    s.seen.(var_of s.found.(i)) <- false
  done;
  (* Backtrack level: highest level among kept literals; LBD: 1 + the
     number of distinct levels among them. *)
  let bt_level = ref 0 in
  let lbd = ref 1 in
  s.mark <- s.mark + 1;
  for i = 0 to !nkept - 1 do
    let lv = s.level.(var_of s.kept.(i)) in
    if lv > !bt_level then bt_level := lv;
    if s.level_mark.(lv) <> s.mark then begin
      s.level_mark.(lv) <- s.mark;
      incr lbd
    end
  done;
  (* Order, into [s.found]: the asserting literal first, then the
     literals of bt_level (one of them becomes the other watch), then
     the rest, each in kept order. *)
  s.found.(0) <- neg !p;
  let n = ref 1 in
  for i = 0 to !nkept - 1 do
    let q = s.kept.(i) in
    if s.level.(var_of q) = !bt_level then begin
      s.found.(!n) <- q;
      incr n
    end
  done;
  for i = 0 to !nkept - 1 do
    let q = s.kept.(i) in
    if s.level.(var_of q) <> !bt_level then begin
      s.found.(!n) <- q;
      incr n
    end
  done;
  s.learnt_len <- !n;
  s.learnt_lbd <- !lbd;
  !bt_level

let learn s =
  let lits = s.found in
  if s.learnt_len = 1 then begin
    backtrack s 0;
    enqueue s lits.(0) (-1)
  end
  else begin
    let c = new_clause s s.learnt_len ~info:(learnt_bit lor (s.learnt_lbd lsl 2)) ~activity:1 in
    Array.blit lits 0 s.arena (c + hdr) s.learnt_len;
    attach s c;
    Ec_util.Vec.push s.learnts c;
    s.stat_learnt <- s.stat_learnt + 1;
    enqueue s lits.(0) c
  end

let locked s c =
  let l = s.arena.(c + hdr) in
  s.reason.(var_of l) = c && value_lit s l = 1

(* Delete the worst half of the learnt clauses (high LBD, low
   activity), keeping binary, low-LBD and reason clauses, then compact
   the arena and the watches.  The ranking is a stable sort of the
   learnts newest first; the survivors are kept in rank order, so the
   next reduction sees them, newest first, in reverse rank order. *)
let reduce_db s =
  let a = s.arena in
  let lbd c = a.(c + 1) lsr 2 in
  let cmp x y =
    let c = Int.compare (lbd x) (lbd y) in
    if c <> 0 then c else Int.compare a.(y + 2) a.(x + 2)
  in
  let total = Ec_util.Vec.length s.learnts in
  let sorted = Array.init total (fun i -> Ec_util.Vec.get s.learnts (total - 1 - i)) in
  Array.stable_sort cmp sorted;
  let keep_target = total / 2 in
  let live = ref s.arena_top in
  Ec_util.Vec.clear s.learnts;
  Array.iteri
    (fun rank c ->
      if rank < keep_target || lbd c <= 3 || a.(c) <= 2 || locked s c then
        Ec_util.Vec.push s.learnts c
      else begin
        a.(c + 1) <- a.(c + 1) lor deleted_bit;
        live := !live - hdr - a.(c);
        s.stat_deleted <- s.stat_deleted + 1
      end)
    sorted;
  compact_arena s ~live:!live

(* luby i (1-based): 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... *)
let rec luby i =
  let rec find k = if (1 lsl k) - 1 >= i then k else find (k + 1) in
  let k = find 1 in
  if (1 lsl k) - 1 = i then float_of_int (1 lsl (k - 1))
  else luby (i - (1 lsl (k - 1)) + 1)

(* Final-conflict analysis (MiniSat's analyzeFinal): which assumptions
   force the failed assumption [a] to be false under the current trail.
   Walks the trail top-down from the first decision, expanding reasons
   of marked variables; every decision met this way is an assumption
   responsible for the failure (branching has not started whenever an
   assumption fails, so all decisions in range are assumptions).  The
   returned core — [a] plus the responsible decision literals — is a
   subset of the assumptions whose conjunction the formula refutes. *)
let analyze_final s a =
  let core = ref [ a ] in
  if s.ndecisions > 0 then begin
    make_scratch s;
    let v0 = var_of a in
    s.seen.(v0) <- true;
    let bottom = s.trail_lim.(0) in
    for i = s.trail_len - 1 downto bottom do
      let l = s.trail.(i) in
      let x = var_of l in
      if s.seen.(x) then begin
        let c = s.reason.(x) in
        if c < 0 then core := l :: !core
        else
          for k = c + hdr to c + hdr + s.arena.(c) - 1 do
            let qv = var_of s.arena.(k) in
            if qv <> x && s.level.(qv) > 0 then s.seen.(qv) <- true
          done;
        s.seen.(x) <- false
      end
    done;
    s.seen.(v0) <- false
  end;
  !core

(* [R_unsat core]: unsatisfiable, with the responsible assumption
   literals (internal encoding).  An empty core means the formula is
   unsatisfiable regardless of assumptions. *)
type search_result = R_sat | R_unsat of int list | R_unknown of Ec_util.Budget.reason

(* [check] reports the first exhausted budget dimension relative to the
   start of this solve (sessions keep cumulative counters, so the caller
   supplies the baseline). *)
let search s (options : options) ~check assumptions =
  let spent () = check () in
  let restart_limit = ref (luby 1 *. float_of_int options.restart_base) in
  let conflicts_since_restart = ref 0 in
  let max_learnts = ref (max 4000 (s.n_clauses / 2)) in
  let assumptions = Array.of_list (List.map lit_of_dimacs assumptions) in
  let result = ref None in
  (* Every variable is assigned, or every one a clause mentions: the
     point is a model of the clauses, but assumptions not yet
     re-decided must be checked explicitly. *)
  let model_found () =
    match Array.to_seq assumptions |> Seq.find (fun a -> value_lit s a = 0) with
    | Some a -> R_unsat (analyze_final s a)
    | None -> R_sat
  in
  (* A budget exhausted (or cancelled) before the solve starts stops it
     even on trivially decidable formulas. *)
  (match spent () with Some r -> result := Some (R_unknown r) | None -> ());
  while !result = None do
    let confl = propagate s in
    if confl >= 0 then begin
      s.stat_conflicts <- s.stat_conflicts + 1;
      incr conflicts_since_restart;
      if s.ndecisions = 0 then result := Some (R_unsat [])
      else begin
        match spent () with
        | Some r -> result := Some (R_unknown r)
        | None ->
          let bt_level = analyze s confl in
          backtrack s bt_level;
          learn s;
          var_decay_tick s
      end
    end
    else begin
      if s.trail_len = s.nvars then result := Some (model_found ())
      else if float_of_int !conflicts_since_restart >= !restart_limit then begin
        (* Restart: back to level 0; assumptions are re-decided. *)
        s.stat_restarts <- s.stat_restarts + 1;
        conflicts_since_restart := 0;
        restart_limit :=
          luby (s.stat_restarts + 1) *. float_of_int options.restart_base;
        backtrack s 0
      end
      else if Ec_util.Vec.length s.learnts > !max_learnts then begin
        reduce_db s;
        max_learnts := !max_learnts + (!max_learnts / 10)
      end
      else if s.ndecisions < Array.length assumptions then begin
        (* Re-establish the next assumption as a decision. *)
        let a = assumptions.(s.ndecisions) in
        match value_lit s a with
        | 1 -> new_decision_level s (* already true: placeholder level *)
        | 0 ->
          (* Conflicts with the trail: unsat under assumptions. *)
          result := Some (R_unsat (analyze_final s a))
        | _ ->
          new_decision_level s;
          enqueue s a (-1)
      end
      else begin
        (* Branch. *)
        let rec pick () =
          if Ec_util.Idx_heap.is_empty s.heap then -1
          else
            let v = Ec_util.Idx_heap.pop_max s.heap in
            if value_var s v < 0 then v else pick ()
        in
        let v = pick () in
        if v = -1 then result := Some (model_found ())
        else begin
          match spent () with
          | Some r -> result := Some (R_unknown r)
          | None ->
            s.stat_decisions <- s.stat_decisions + 1;
            new_decision_level s;
            enqueue s ((2 * v) lor (if Bytes.get s.phase v = '\001' then 0 else 1)) (-1)
        end
      end
    end
  done;
  match !result with Some r -> r | None -> assert false

(* The model over DIMACS variables [1..nvars], [nvars <= s.nvars]. *)
let extract_assignment s nvars =
  Ec_cnf.Assignment.init nvars (fun x ->
      let v = var_of_dimacs x in
      match s.assigns.(v) with
      | 1 -> Ec_cnf.Assignment.True
      | 0 -> Ec_cnf.Assignment.False
      | _ ->
        if Bytes.get s.phase v = '\001' then Ec_cnf.Assignment.True
        else Ec_cnf.Assignment.False)

let stats_of s =
  { decisions = s.stat_decisions;
    propagations = s.stat_propagations;
    conflicts = s.stat_conflicts;
    restarts = s.stat_restarts;
    learnt_clauses = s.stat_learnt;
    deleted_clauses = s.stat_deleted }

let counters_of s ~wall_s : Ec_util.Budget.counters =
  { Ec_util.Budget.zero with
    spent_conflicts = s.stat_conflicts;
    spent_nodes = s.stat_decisions;
    spent_restarts = s.stat_restarts;
    spent_wall_s = wall_s }

let iter_formula f k = Ec_cnf.Formula.iteri (fun _ c -> k (Ec_cnf.Clause.lits c)) f

(* Literal 0, or a variable outside [1..nvars], names no literal of the
   solver. *)
let check_assumptions who nvars assumptions =
  List.iter
    (fun l ->
      if l = 0 || abs l > nvars then
        invalid_arg
          (Printf.sprintf "%s: assumption literal %d is outside variables 1..%d" who l nvars))
    assumptions

let solve_response ?(options = default_options) ?(assumptions = []) formula =
  check_assumptions "Cdcl.solve_response" (Ec_cnf.Formula.num_vars formula) assumptions;
  Ec_util.Fault.maybe_raise "cdcl.solve";
  let options = { options with budget = Ec_util.Fault.burn "cdcl.solve" options.budget } in
  let gauge = Ec_util.Budget.start options.budget in
  let s = create_solver_raw options (Ec_cnf.Formula.num_vars formula) in
  let loaded = load s (iter_formula formula) in
  let check () =
    Ec_util.Budget.check gauge ~conflicts:s.stat_conflicts ~nodes:s.stat_decisions
  in
  let outcome, reason =
    if not loaded then (Outcome.Unsat, Ec_util.Budget.Completed)
    else
      match search s options ~check assumptions with
      | R_sat -> (Outcome.Sat (extract_assignment s s.nvars), Ec_util.Budget.Completed)
      | R_unsat _ -> (Outcome.Unsat, Ec_util.Budget.Completed)
      | R_unknown r -> (Outcome.Unknown r, r)
  in
  let outcome =
    Ec_util.Fault.point "cdcl.answer" ~corrupt:Outcome.corrupt ~forge:Outcome.forge_unsat
      outcome
  in
  { outcome;
    reason;
    stats = stats_of s;
    counters = counters_of s ~wall_s:(Ec_util.Budget.elapsed_s gauge) }

(* ---- incremental sessions ---- *)

module Session = struct
  type session = {
    options : options;
    mutable s : solver;
    mutable logical_nvars : int;  (* variables the user has named *)
    base : Ec_cnf.Formula.t;
    mutable added : Ec_cnf.Clause.t list; (* clauses added since, newest first *)
    mutable dead : bool;          (* proved unsat without assumptions *)
    mutable solves : int;
  }

  type t = session

  (* Capacity headroom so that growing by a few EC variables does not
     force a rebuild. *)
  let capacity_for n = n + (n / 2) + 16

  (* A solver over the base formula, then the added clauses in the
     order they came. *)
  let fresh options nvars base added =
    let s = create_solver_raw options (capacity_for nvars) in
    let added = List.rev added in
    let loaded =
      load s (fun k ->
          iter_formula base k;
          List.iter (fun c -> k (Ec_cnf.Clause.lits c)) added)
    in
    (s, not loaded)

  let create ?(options = default_options) formula =
    let nvars = Ec_cnf.Formula.num_vars formula in
    let s, dead = fresh options nvars formula [] in
    { options; s; logical_nvars = nvars; base = formula; added = []; dead; solves = 0 }

  let num_vars t = t.logical_nvars

  let add_clause t clause =
    t.added <- clause :: t.added;
    let mv = Ec_cnf.Clause.max_var clause in
    if mv > t.logical_nvars then t.logical_nvars <- mv;
    if t.dead then ()
    else if t.logical_nvars > t.s.nvars then begin
      (* Out of headroom: rebuild (losing learnt clauses, keeping
         soundness).  Rare by construction of [capacity_for]. *)
      let s, dead = fresh t.options t.logical_nvars t.base t.added in
      t.s <- s;
      t.dead <- dead
    end
    else begin
      backtrack t.s 0;
      if not (load_clause t.s (Ec_cnf.Clause.lits clause)) then t.dead <- true
      else
        (* A clause whose watched literals are already false at level 0
           would never be revisited (watch lists fire on new enqueues
           only): rewind the propagation head so the next solve
           re-scans the root trail and catches the conflict. *)
        t.s.qhead <- 0
    end

  let add_clauses t clauses = List.iter (add_clause t) clauses

  type core_response = {
    outcome : Outcome.t;
    core : Ec_cnf.Lit.t list;
    counters : Ec_util.Budget.counters;
  }

  let solve_with_core ?(assumptions = []) ?budget t =
    check_assumptions "Cdcl.Session.solve" t.logical_nvars assumptions;
    t.solves <- t.solves + 1;
    if t.dead then
      { outcome = Outcome.Unsat; core = []; counters = Ec_util.Budget.zero }
    else begin
      backtrack t.s 0;
      if watches_sparse t.s then compact_watches t.s Fun.id;
      (* Per-solve gauge: the session's budget is an allowance for each
         [solve] call, not for the session's whole lifetime, so the
         cumulative session counters are rebased here.  A per-call
         [budget] (the serve daemon's per-request deadline) is
         intersected with the session's own; putting it first keeps
         its cancellation flag live, which is what the daemon's
         watchdog pulls. *)
      let limit =
        match budget with
        | None -> t.options.budget
        | Some b -> Ec_util.Budget.combine b t.options.budget
      in
      let gauge = Ec_util.Budget.start limit in
      let conflicts0 = t.s.stat_conflicts and nodes0 = t.s.stat_decisions in
      let check () =
        Ec_util.Budget.check gauge
          ~conflicts:(t.s.stat_conflicts - conflicts0)
          ~nodes:(t.s.stat_decisions - nodes0)
      in
      let result = search t.s t.options ~check assumptions in
      let counters =
        { Ec_util.Budget.zero with
          spent_conflicts = t.s.stat_conflicts - conflicts0;
          spent_nodes = t.s.stat_decisions - nodes0;
          spent_wall_s = Ec_util.Budget.elapsed_s gauge }
      in
      match result with
      | R_sat ->
        (* The model covers the named variables, not the capacity. *)
        { outcome = Outcome.Sat (extract_assignment t.s t.logical_nvars); core = []; counters }
      | R_unsat core ->
        (* An empty core is a conflict at level 0: the clauses are
           unsatisfiable whatever the assumptions, and the next solve
           would not meet that conflict again.  A live session is dead
           from here exactly then. *)
        t.dead <- core = [];
        { outcome = Outcome.Unsat; core = List.map dimacs_of_lit core; counters }
      | R_unknown r -> { outcome = Outcome.Unknown r; core = []; counters }
    end

  let solve ?assumptions ?budget t = (solve_with_core ?assumptions ?budget t).outcome

  let solve_count t = t.solves
end
