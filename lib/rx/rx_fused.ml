(* A tagged lazy DFA over a whole catalog of patterns at once.

   [Rx_dfa] answers "where does THE match of this one pattern end";
   this machine answers a different, weaker question for many patterns
   simultaneously: "which of these N patterns match ANYWHERE in the
   subject" — one forward pass over the input, whatever N is.  The
   scanner uses it as an exact existence filter in front of the
   per-rule sweeps: rules the fused pass did not flag are skipped
   entirely (their [find_all] would have returned []), and flagged
   rules run the unchanged per-rule machinery to resolve exact spans,
   so results stay byte-identical to the per-rule path by construction.

   Existence — not leftmost-first spans — is the strongest per-rule
   answer one fused pass can give: deriving each rule's leftmost-first
   segmentation would need per-rule phase switches (stop injecting
   starts, extend, resume) that conflict across rules sharing the one
   thread set.  Existence, by contrast, determinizes cleanly:

   - Every pattern's Pike program is rebased into one instruction
     array, preceded by a split fan-out at pc 0 whose closure yields
     every pattern's entry point.  [owner.(pc)] tags each instruction
     with its pattern's slot, so a thread always knows which pattern it
     is running for.
   - DFA states are thread sets exactly as in [Rx_dfa]; the injected
     fresh-start thread is pc 0, which re-arms every pattern at every
     boundary (the machine is permanently unanchored).
   - Reaching a slot's [I_match] during a closure records that slot on
     the transition being materialized, and prunes ALL of that slot's
     threads from the successor: for an existence query a matched
     slot's surviving threads can only rediscover what is already
     known.  The pruning is a pure function of the thread set, so
     states stay run-independent and cacheable; the slot's fresh
     attempts keep being injected via pc 0, which costs a few
     redundant threads but keeps one transition table serving every
     run.
   - The runner accumulates flagged slots into a per-run mask and
     stops early once every slot has matched.

   Exactness of the flag (both directions) is what makes the scanner
   integration sound: a flag is raised only by a genuine NFA thread of
   that slot (no false positives), and no thread of an unmatched slot
   is ever dropped (no false negatives) — the differential suites
   check this against [Rx.matches] pattern by pattern.

   Cache discipline is [Rx_dfa]'s: bounded interned-state store,
   clear-and-restart on overflow ([Restart]), [Bail] after too many
   flushes in one search — the caller then falls back to the plain
   per-rule path, so correctness never depends on cache capacity.
   There are no skip lanes: with a whole catalog fused, the union of
   FIRST sets covers nearly every byte, so the pass is a straight
   table walk — one load per input byte. *)

exception Bail
(* The cache thrashed ([max_search_flushes] flushes in one search); the
   caller must fall back to the per-rule scan path. *)

exception Restart
(* Internal: the state table was flushed mid-search; the runner
   re-interns its current state and retries the transition. *)

(* Left/right context facts, [Rx_dfa]'s encoding verbatim (that
   module keeps them private): 0 subject boundary, 1 other byte,
   2 word byte, 3 newline. *)
let fact_boundary = 0
let fact_word = 2
let fact_newline = 3

let fact_of_char c =
  if c = '\n' then fact_newline
  else if Rx_ast.is_word_char c then fact_word
  else 1

(* Immutable, per-catalog, shared across domains. *)
type static = {
  prog : Rx_pike.inst array; (* fan-out preamble + rebased programs *)
  owner : int array; (* pc -> slot; -1 for the preamble *)
  nslots : int;
  classes : string; (* byte -> input-class id *)
  nclasses : int; (* real classes; the EOI sentinel is id [nclasses] *)
  class_fact : int array; (* class id (sentinel included) -> fact *)
  class_repr : string; (* class id -> representative byte *)
}

let nslots st = st.nslots
let program_size st = Array.length st.prog

(* Pcs pack into 16 bits per entry in state keys (as in [Rx_dfa]);
   the composer in [Rx.Fused] caps total size well below this. *)
let max_program = 65535

(* Byte-class derivation over the fused program.  Identical bytes-share-
   a-column logic to [Rx_dfa.build], with one extra move: consuming
   instructions are deduplicated structurally first.  A catalog fuses
   thousands of consuming instructions but only ~a hundred distinct
   predicates (the same [\s], [\w], quote classes recur in every rule),
   and signature length — hence build cost, 256 x nsig predicate
   evaluations — scales with the distinct count. *)
let derive_classes prog =
  let seen : (Rx_pike.inst, unit) Hashtbl.t = Hashtbl.create 64 in
  let consuming =
    Array.fold_left
      (fun acc inst ->
        match inst with
        | Rx_pike.I_char _ | Rx_pike.I_any | Rx_pike.I_class _ ->
          if Hashtbl.mem seen inst then acc
          else begin
            Hashtbl.add seen inst ();
            inst :: acc
          end
        | _ -> acc)
      [] prog
  in
  let nsig = List.length consuming in
  let sig_tbl : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let classes = Bytes.create 256 in
  let reprs = Buffer.create 64 in
  let facts_rev = ref [] in
  let next = ref 0 in
  for b = 0 to 255 do
    let c = Char.chr b in
    let sg = Bytes.create (nsig + 1) in
    List.iteri
      (fun i inst ->
        let m =
          match inst with
          | Rx_pike.I_char c' -> c = c'
          | Rx_pike.I_any -> c <> '\n'
          | Rx_pike.I_class cls -> Rx_ast.class_matches cls c
          | _ -> false
        in
        Bytes.set sg i (if m then '1' else '0'))
      consuming;
    Bytes.set sg nsig (Char.chr (fact_of_char c));
    let key = Bytes.to_string sg in
    let id =
      match Hashtbl.find_opt sig_tbl key with
      | Some id -> id
      | None ->
        let id = !next in
        incr next;
        Hashtbl.add sig_tbl key id;
        Buffer.add_char reprs c;
        facts_rev := fact_of_char c :: !facts_rev;
        id
    in
    Bytes.set classes b (Char.chr id)
  done;
  let nclasses = !next in
  let class_fact = Array.make (nclasses + 1) fact_boundary in
  List.iteri (fun i f -> class_fact.(nclasses - 1 - i) <- f) !facts_rev;
  (Bytes.to_string classes, nclasses, class_fact, Buffer.contents reprs)

(* Compose one tagged program from per-slot Pike programs: a chain of
   [nslots - 1] splits at the front fans pc 0 out to every slot's entry
   (in slot order — priority order is irrelevant to existence queries
   but keeping it deterministic keeps states canonical), each program
   is copied with its jump targets rebased, and [owner] tags every pc. *)
let build progs =
  let k = Array.length progs in
  if k = 0 then invalid_arg "Rx_fused.build: no programs";
  let preamble = k - 1 in
  let entries = Array.make k 0 in
  let total = ref preamble in
  Array.iteri
    (fun i p ->
      entries.(i) <- !total;
      total := !total + Array.length p)
    progs;
  if !total > max_program then invalid_arg "Rx_fused.build: program too large";
  let prog = Array.make !total Rx_pike.I_match in
  let owner = Array.make !total (-1) in
  for i = 0 to preamble - 1 do
    let cont = if i < preamble - 1 then i + 1 else entries.(k - 1) in
    prog.(i) <- Rx_pike.I_split (entries.(i), cont)
  done;
  Array.iteri
    (fun s p ->
      let base = entries.(s) in
      Array.iteri
        (fun j inst ->
          owner.(base + j) <- s;
          prog.(base + j) <-
            (match inst with
            | Rx_pike.I_jmp t -> Rx_pike.I_jmp (t + base)
            | Rx_pike.I_split (a, b) -> Rx_pike.I_split (a + base, b + base)
            | other -> other))
        p)
    progs;
  let classes, nclasses, class_fact, class_repr = derive_classes prog in
  { prog; owner; nslots = k; classes; nclasses; class_fact; class_repr }

(* A DFA state, exactly [Rx_dfa]'s shape: left-context fact plus the
   pending thread set, stepped into this boundary and not yet closed. *)
type state = { st_ctx : int; st_raw : int array }

let dummy_state = { st_ctx = 0; st_raw = [||] }
let no_row : int array = [||]

(* The mutable, per-domain half.  One direction only (the machine is
   forward-only and permanently unanchored), so one row array:
   [rows.(sid).(c)] is [-1] unmaterialized, else
   [(sid' lsl 1) lor flag] where [flag] marks that the transition's
   closure reached at least one slot's [I_match]; the flagged slots
   themselves live in [mrows] keyed by [(sid * ncols) + c] — a side
   table rather than a third row array because flagged transitions are
   a small minority and the hot loop only consults it behind the flag
   bit. *)
type cache = {
  st : static;
  ncols : int;
  max_states : int;
  mutable nstates : int;
  states : state array;
  rows : int array array;
  mrows : (int, int array) Hashtbl.t;
  itbl : (string, int) Hashtbl.t;
  mutable fgen : int; (* flush generation; start-state memos key on it *)
  (* interned start-state ids by left-context fact, valid while
     [start_gen = fgen]: start states depend only on the program, so
     the memo survives across searches until a flush drops the
     interned states *)
  start_sids : int array;
  mutable start_gen : int;
  stamp : int array; (* per-pc visit stamps for closure dedup *)
  mutable gen : int;
  buf : int array; (* closure output: consuming pcs, in order *)
  pruned : int array; (* per-slot stamps: slot matched in this closure *)
  mbuf : int array; (* slots matched in this closure *)
  mutable c_misses : int;
  mutable c_flushes : int;
}

(* A fused state holds threads of every rule at once, so it is an order
   of magnitude larger than a single pattern's; the default store is
   sized up accordingly (rows are only allocated for states actually
   interned, so an idle cache costs little).  The ceiling must also
   hold the catalog's whole steady-state working set: the 609-sample
   corpus demands 2552 distinct states, and a ceiling under that
   flushes mid-traffic, rebuilding tables forever. *)
let default_max_states = 4096
let max_search_flushes = 4

let make_cache ?(max_states = default_max_states) st =
  if max_states < 2 then invalid_arg "Rx_fused.make_cache: max_states < 2";
  let n = Array.length st.prog in
  {
    st;
    ncols = st.nclasses + 1;
    max_states;
    nstates = 0;
    states = Array.make max_states dummy_state;
    rows = Array.make max_states no_row;
    mrows = Hashtbl.create 64;
    itbl = Hashtbl.create 256;
    fgen = 0;
    start_sids = Array.make 4 (-1);
    start_gen = -1;
    stamp = Array.make n 0;
    gen = 0;
    buf = Array.make (n + 1) 0;
    pruned = Array.make st.nslots 0;
    mbuf = Array.make st.nslots 0;
    c_misses = 0;
    c_flushes = 0;
  }

let state_count cache = cache.nstates

let hits_counter = Telemetry.Counter.make "rx_fused_cache_hits_total"
let misses_counter = Telemetry.Counter.make "rx_fused_cache_misses_total"
let flushes_counter = Telemetry.Counter.make "rx_fused_cache_flushes_total"

let publish cache ~recorder ~ticks =
  (match
     (match recorder with Some _ as r -> r | None -> Telemetry.recorder ())
   with
  | None -> ()
  | Some r ->
    let hits = ticks - cache.c_misses in
    if hits > 0 then Telemetry.Counter.record r hits_counter hits;
    if cache.c_misses > 0 then
      Telemetry.Counter.record r misses_counter cache.c_misses;
    if cache.c_flushes > 0 then
      Telemetry.Counter.record r flushes_counter cache.c_flushes);
  cache.c_misses <- 0;
  cache.c_flushes <- 0

let key_of ctx raw =
  let n = Array.length raw in
  let b = Bytes.create (1 + (2 * n)) in
  Bytes.unsafe_set b 0 (Char.unsafe_chr ctx);
  for i = 0 to n - 1 do
    let pc = Array.unsafe_get raw i in
    Bytes.unsafe_set b (1 + (2 * i)) (Char.unsafe_chr (pc land 0xff));
    Bytes.unsafe_set b (2 + (2 * i)) (Char.unsafe_chr (pc lsr 8))
  done;
  Bytes.unsafe_to_string b

let flush cache =
  Telemetry.Trace.ambient_instant Telemetry.Trace.Dfa_flush;
  Hashtbl.reset cache.itbl;
  (* [mrows] keys embed state ids: stale entries must go with them *)
  Hashtbl.reset cache.mrows;
  Array.fill cache.states 0 cache.nstates dummy_state;
  Array.fill cache.rows 0 cache.nstates no_row;
  cache.nstates <- 0;
  cache.fgen <- cache.fgen + 1;
  cache.c_flushes <- cache.c_flushes + 1

let find_or_add cache ctx raw =
  let key = key_of ctx raw in
  match Hashtbl.find_opt cache.itbl key with
  | Some sid -> sid
  | None ->
    if cache.nstates >= cache.max_states then begin
      flush cache;
      raise Restart
    end;
    let sid = cache.nstates in
    cache.states.(sid) <- { st_ctx = ctx; st_raw = raw };
    cache.rows.(sid) <- Array.make cache.ncols (-1);
    Hashtbl.add cache.itbl key sid;
    cache.nstates <- sid + 1;
    sid

(* Epsilon closure of [raw] at a boundary with subject-left fact [lf]
   and subject-right fact [rf].  Consuming pcs land in [cache.buf] in
   priority order; slots whose [I_match] was reached land in
   [cache.mbuf] (deduplicated through [cache.pruned] stamps).  Unlike
   [Rx_dfa]'s closure nothing stops at a match — other slots' threads
   must keep collecting — and the per-slot pruning happens in the
   caller's step loop, where [pruned] stamps are still valid. *)
let closure cache raw ~lf ~rf =
  cache.gen <- cache.gen + 1;
  let gen = cache.gen in
  let stamp = cache.stamp
  and prog = cache.st.prog
  and owner = cache.st.owner
  and buf = cache.buf
  and pruned = cache.pruned
  and mbuf = cache.mbuf in
  let count = ref 0 in
  let nmatched = ref 0 in
  let rec add pc =
    if stamp.(pc) <> gen then begin
      stamp.(pc) <- gen;
      match prog.(pc) with
      | Rx_pike.I_jmp t -> add t
      | Rx_pike.I_split (a, b) ->
        add a;
        add b
      | Rx_pike.I_bol ->
        if lf = fact_boundary || lf = fact_newline then add (pc + 1)
      | Rx_pike.I_eol ->
        if rf = fact_boundary || rf = fact_newline then add (pc + 1)
      | Rx_pike.I_eos -> if rf = fact_boundary then add (pc + 1)
      | Rx_pike.I_wordb ->
        if (lf = fact_word) <> (rf = fact_word) then add (pc + 1)
      | Rx_pike.I_nwordb ->
        if (lf = fact_word) = (rf = fact_word) then add (pc + 1)
      | Rx_pike.I_match ->
        let s = owner.(pc) in
        if s >= 0 && pruned.(s) <> gen then begin
          pruned.(s) <- gen;
          mbuf.(!nmatched) <- s;
          incr nmatched
        end
      | Rx_pike.I_char _ | Rx_pike.I_any | Rx_pike.I_class _ ->
        buf.(!count) <- pc;
        incr count
    end
  in
  Array.iter add raw;
  (!count, !nmatched)

(* Materialize the transition out of [sid] on class [c]: close the
   state, step survivors on the class representative while dropping
   every thread of a slot that matched (the per-slot prune — a pure
   function of the thread set, so the cached transition is valid for
   every run), inject the fresh fan-out thread, intern the successor.
   @raise Restart when interning flushed the table. *)
let materialize cache sid c =
  cache.c_misses <- cache.c_misses + 1;
  let s = Array.unsafe_get cache.states sid in
  let stc = cache.st in
  let cf = stc.class_fact.(c) in
  let n, nmatched = closure cache s.st_raw ~lf:s.st_ctx ~rf:cf in
  let matched =
    if nmatched = 0 then no_row else Array.sub cache.mbuf 0 nmatched
  in
  let gen = cache.gen in
  let pruned = cache.pruned and owner = stc.owner in
  let tmp = Array.make (n + 1) 0 in
  let k = ref 0 in
  if c < stc.nclasses then begin
    let repr = stc.class_repr.[c] in
    for i = 0 to n - 1 do
      let pc = cache.buf.(i) in
      if pruned.(owner.(pc)) <> gen then begin
        let ok =
          match stc.prog.(pc) with
          | Rx_pike.I_char c' -> repr = c'
          | Rx_pike.I_any -> repr <> '\n'
          | Rx_pike.I_class cls -> Rx_ast.class_matches cls repr
          | _ -> false
        in
        if ok then begin
          tmp.(!k) <- pc + 1;
          incr k
        end
      end
    done
  end;
  (* always re-arm every pattern: the machine never leaves its
     unanchored phase *)
  tmp.(!k) <- 0;
  incr k;
  let raw' = Array.sub tmp 0 !k in
  let sid' = find_or_add cache cf raw' in
  let v = (sid' lsl 1) lor (if nmatched > 0 then 1 else 0) in
  (Array.unsafe_get cache.rows sid).(c) <- v;
  if nmatched > 0 then
    Hashtbl.replace cache.mrows ((sid * cache.ncols) + c) matched;
  v

let step_allowance_exceeded =
  Rx_match.Budget_exceeded "rx fused: step cap exceeded"

let start_raw = [| 0 |]

(* The one-pass existence search: walks every boundary 0..len (the
   end-of-input sentinel included, so [$]-anchored matches ending at
   EOF flag too), absorbing each flagged transition's slot list into
   [mask], and stops early once every slot has matched.  [mask] is in
   slot space, one byte per slot, and must arrive all-zero.  Step
   accounting is segment-based like [Rx_dfa]'s hot loop: one flush of
   [p - seg] into [steps] per segment, no per-byte tick.
   @raise Bail when the cache thrashes. *)
let search cache ?recorder ?(cap = max_int) ?steps_acc ~mask subject =
  let stc = cache.st in
  if Bytes.length mask <> stc.nslots then
    invalid_arg "Rx_fused.search: mask length does not match the slot count";
  let len = String.length subject in
  let classes = stc.classes in
  let sentinel = stc.nclasses in
  let steps = match steps_acc with Some r -> r | None -> ref 0 in
  let t0 = !steps in
  let run () =
    let flushes = ref 0 in
    let intern_sid ctx raw =
      try find_or_add cache ctx raw
      with Restart ->
        incr flushes;
        if !flushes > max_search_flushes then raise Bail;
        find_or_add cache ctx raw
    in
    (* start states differ only by left-context fact; the memo lives in
       the cache (keyed on [fgen]) so it persists across searches *)
    let get_start ctx =
      if cache.start_gen <> cache.fgen then begin
        Array.fill cache.start_sids 0 4 (-1);
        cache.start_gen <- cache.fgen
      end;
      let s = Array.unsafe_get cache.start_sids ctx in
      if s >= 0 then s
      else begin
        let s = intern_sid ctx start_raw in
        if cache.start_gen <> cache.fgen then begin
          Array.fill cache.start_sids 0 4 (-1);
          cache.start_gen <- cache.fgen
        end;
        cache.start_sids.(ctx) <- s;
        s
      end
    in
    let nmatched = ref 0 in
    let absorb sid c =
      match Hashtbl.find_opt cache.mrows ((sid * cache.ncols) + c) with
      | None -> () (* flushed since; rematerializing will restore it *)
      | Some slots ->
        Array.iter
          (fun s ->
            if Bytes.unsafe_get mask s = '\000' then begin
              Bytes.unsafe_set mask s '\001';
              incr nmatched
            end)
          slots
    in
    let sid = ref (get_start fact_boundary) in
    let p = ref 0 in
    let finished = ref false in
    while not !finished do
      (* [stop] fences this segment at the step allowance; the sentinel
         boundary counts as one more step past [len] *)
      let stop =
        if cap = max_int then len
        else begin
          let allowed = cap - !steps in
          if allowed <= 0 then raise step_allowance_exceeded
          else if allowed >= len - !p then len
          else !p + allowed
        end
      in
      let seg = ref !p in
      (match
         while (not !finished) && !p < stop do
           let row = Array.unsafe_get cache.rows !sid in
           let c =
             Char.code
               (String.unsafe_get classes
                  (Char.code (String.unsafe_get subject !p)))
           in
           let v = Array.unsafe_get row c in
           if v >= 0 then begin
             if v land 1 = 1 then begin
               absorb !sid c;
               if !nmatched = stc.nslots then finished := true
             end;
             sid := v lsr 1;
             incr p
           end
           else begin
             (* capture the state record first — it survives a flush
                even though its table slot does not *)
             let scur = Array.unsafe_get cache.states !sid in
             match materialize cache !sid c with
             | _ -> ()
             | exception Restart ->
               incr flushes;
               if !flushes > max_search_flushes then raise Bail;
               sid := intern_sid scur.st_ctx scur.st_raw
           end
         done
       with
      | () -> steps := !steps + (!p - !seg)
      | exception ex ->
        steps := !steps + (!p - !seg);
        raise ex);
      if not !finished then
        if !p < len then () (* allowance-fenced segment: loop re-checks *)
        else begin
          (* the end-of-input boundary: one sentinel transition *)
          incr steps;
          if !steps > cap then raise step_allowance_exceeded;
          let taken = ref false in
          while not !taken do
            let v = Array.unsafe_get (Array.unsafe_get cache.rows !sid) sentinel in
            if v >= 0 then begin
              if v land 1 = 1 then absorb !sid sentinel;
              taken := true
            end
            else begin
              let scur = Array.unsafe_get cache.states !sid in
              match materialize cache !sid sentinel with
              | _ -> ()
              | exception Restart ->
                incr flushes;
                if !flushes > max_search_flushes then raise Bail;
                sid := intern_sid scur.st_ctx scur.st_raw
            end
          done;
          finished := true
        end
    done
  in
  match run () with
  | () -> publish cache ~recorder ~ticks:(!steps - t0)
  | exception ex ->
    publish cache ~recorder ~ticks:(!steps - t0);
    raise ex

(* --- binary codec ----------------------------------------------------------

   The fused program serializes into rule packs so packed catalogs
   skip the compose-and-derive work on load.  [read_static] re-checks
   every index the runner dereferences (jump targets, owners, class
   ids, table lengths), so adversarial bytes fail with [Binio.Corrupt]
   instead of sending the machine out of bounds; flag *semantics* are
   protected by the pack checksum like every other section. *)

let w_inst buf inst =
  match inst with
  | Rx_pike.I_char c ->
    Binio.w_u8 buf 0;
    Binio.w_u8 buf (Char.code c)
  | Rx_pike.I_any -> Binio.w_u8 buf 1
  | Rx_pike.I_class cls ->
    Binio.w_u8 buf 2;
    Rx_ast.w_cls buf cls
  | Rx_pike.I_match -> Binio.w_u8 buf 3
  | Rx_pike.I_jmp t ->
    Binio.w_u8 buf 4;
    Binio.w_u32 buf t
  | Rx_pike.I_split (a, b) ->
    Binio.w_u8 buf 5;
    Binio.w_u32 buf a;
    Binio.w_u32 buf b
  | Rx_pike.I_bol -> Binio.w_u8 buf 6
  | Rx_pike.I_eol -> Binio.w_u8 buf 7
  | Rx_pike.I_eos -> Binio.w_u8 buf 8
  | Rx_pike.I_wordb -> Binio.w_u8 buf 9
  | Rx_pike.I_nwordb -> Binio.w_u8 buf 10

let r_inst r =
  match Binio.r_u8 r with
  | 0 -> Rx_pike.I_char (Char.chr (Binio.r_u8 r))
  | 1 -> Rx_pike.I_any
  | 2 -> Rx_pike.I_class (Rx_ast.r_cls r)
  | 3 -> Rx_pike.I_match
  | 4 -> Rx_pike.I_jmp (Binio.r_u32 r)
  | 5 ->
    let a = Binio.r_u32 r in
    let b = Binio.r_u32 r in
    Rx_pike.I_split (a, b)
  | 6 -> Rx_pike.I_bol
  | 7 -> Rx_pike.I_eol
  | 8 -> Rx_pike.I_eos
  | 9 -> Rx_pike.I_wordb
  | 10 -> Rx_pike.I_nwordb
  | v -> raise (Binio.Corrupt (Printf.sprintf "bad fused inst tag %d" v))

let write_static buf st =
  Binio.w_u16 buf st.nslots;
  Binio.w_array w_inst buf st.prog;
  (* owners shifted by one so the preamble's -1 stays unsigned *)
  Binio.w_array (fun buf o -> Binio.w_u16 buf (o + 1)) buf st.owner;
  Binio.w_str buf st.classes;
  Binio.w_u16 buf st.nclasses;
  Binio.w_array (fun buf f -> Binio.w_u8 buf f) buf st.class_fact;
  Binio.w_str buf st.class_repr

let read_static r =
  let nslots = Binio.r_u16 r in
  if nslots = 0 then raise (Binio.Corrupt "fused machine with no slots");
  let prog = Binio.r_array r_inst r in
  let n = Array.length prog in
  if n = 0 || n > max_program then
    raise (Binio.Corrupt "fused program size out of range");
  let check_pc t =
    if t < 0 || t >= n then
      raise (Binio.Corrupt (Printf.sprintf "fused jump target %d out of range" t))
  in
  Array.iter
    (function
      | Rx_pike.I_jmp t -> check_pc t
      | Rx_pike.I_split (a, b) ->
        check_pc a;
        check_pc b
      | _ -> ())
    prog;
  let owner =
    Binio.r_array
      (fun r ->
        let o = Binio.r_u16 r - 1 in
        if o < -1 || o >= nslots then
          raise (Binio.Corrupt "fused owner out of range");
        o)
      r
  in
  if Array.length owner <> n then
    raise (Binio.Corrupt "fused owner table does not match the program");
  let classes = Binio.r_str r in
  if String.length classes <> 256 then
    raise (Binio.Corrupt "fused class table is not 256 bytes");
  let nclasses = Binio.r_u16 r in
  if nclasses < 1 || nclasses > 256 then
    raise (Binio.Corrupt "fused class count out of range");
  String.iter
    (fun c ->
      if Char.code c >= nclasses then
        raise (Binio.Corrupt "fused class id out of range"))
    classes;
  let class_fact =
    Binio.r_array
      (fun r ->
        let f = Binio.r_u8 r in
        if f > 3 then raise (Binio.Corrupt "fused class fact out of range");
        f)
      r
  in
  if Array.length class_fact <> nclasses + 1 then
    raise (Binio.Corrupt "fused fact table does not match the class count");
  let class_repr = Binio.r_str r in
  if String.length class_repr <> nclasses then
    raise (Binio.Corrupt "fused class reprs do not match the class count");
  { prog; owner; nslots; classes; nclasses; class_fact; class_repr }
