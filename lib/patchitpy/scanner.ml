type finding = {
  rule : Rule.t;
  line : int;
  column : int;
  offset : int;
  stop : int;
  snippet : string;
  m : Rx.m;
}

type warning = Budget_exhausted of string

(* A rule slot.  Compile-built plans hold their rules directly;
   pack-loaded plans hold a decode thunk and materialize a rule the
   first time a scan needs it — the fused gate prunes most rules for
   any one source, so a short-lived process decodes only the rules it
   actually runs, and pack cold start stays free of the per-rule decode
   cost.  The slot is an [Atomic] rather than a [lazy] because one plan
   is shared across serve worker domains (concurrent forcing of a lazy
   is unsafe): concurrent first uses at worst decode twice, and
   whichever value wins the CAS is served from then on. *)
type cell = { filled : Rule.t option Atomic.t; decode : unit -> Rule.t }

let cell_of_rule rule =
  { filled = Atomic.make (Some rule); decode = (fun () -> rule) }

let cell_rule cell =
  match Atomic.get cell.filled with
  | Some rule -> rule
  | None ->
    let rule = cell.decode () in
    if Atomic.compare_and_set cell.filled None (Some rule) then rule
    else (
      match Atomic.get cell.filled with Some winner -> winner | None -> rule)

(* The fused-tier slot of a plan.  Like rule [cell]s it defers the
   expensive step — fusing the whole catalog into one tagged DFA — to
   first use, because plans are compiled (and packs loaded) in
   processes that may never scan; and like them it is an [Atomic]
   because serve workers share one plan across domains.  [F_off] pins
   the plan to the per-rule path and is never overwritten — it is how
   [PATCHITPY_SCAN_TIER=per-rule] and the differential tests' reference
   plans stay fused-free even when a pack tries to install a thunk. *)
type fused_tier =
  | F_off  (* per-rule path forced; never upgraded *)
  | F_pending of (unit -> Rx.fused option)  (* fuse on first scan *)
  | F_ready of Rx.fused
  | F_none  (* fusing ran and hosted nothing *)

type t = {
  rule_arr : cell array;  (* compilation order = reporting tie-break *)
  extent : (int * int) option array;  (* Rx.newline_budget per rule *)
  tele : Telemetry.Rules.def;  (* per-rule telemetry registration *)
  fused : fused_tier Atomic.t;
}

(* The scan-tier escape hatch, mirroring [PATCHITPY_RX_TIER]: checked
   when a plan is built, so it governs plans compiled or loaded
   afterwards.  [PATCHITPY_RX_TIER=backtrack] also lands here — with
   every pattern pinned to the backtracker nothing is hostable, so
   fusing could only waste a compile. *)
let scan_tier_forced () =
  (match Sys.getenv_opt "PATCHITPY_SCAN_TIER" with
  | Some "per-rule" -> true
  | Some _ | None -> false)
  ||
  match Sys.getenv_opt "PATCHITPY_RX_TIER" with
  | Some "backtrack" -> true
  | Some _ | None -> false

let fused_of_cells rule_arr =
  if scan_tier_forced () then Atomic.make F_off
  else
    Atomic.make
      (F_pending
         (fun () ->
           Rx.Fused.compile
             (Array.map (fun c -> (cell_rule c).Rule.pattern) rule_arr)))

(* Plan compilation is the expensive setup step callers are expected to
   amortize (one plan across a batch, or one per daemon).  The counter
   lets a test assert the amortization actually happens. *)
let compiles_counter = Telemetry.Counter.make "scanner_compiles_total"

let compile rule_list =
  Telemetry.Counter.incr compiles_counter;
  let rules_vec = Array.of_list rule_list in
  let rule_arr = Array.map cell_of_rule rules_vec in
  {
    rule_arr;
    extent =
      Array.map (fun (r : Rule.t) -> Rx.newline_budget r.Rule.pattern) rules_vec;
    tele =
      Telemetry.Rules.define
        (Array.map (fun (r : Rule.t) -> r.Rule.id) rules_vec);
    fused = fused_of_cells rule_arr;
  }

let telemetry_def t = t.tele

let rules t = List.map cell_rule (Array.to_list t.rule_arr)
let rule_count t = Array.length t.rule_arr

(* Forces the fused tier.  Concurrent first scans may both fuse; the
   CAS winner is served from then on (same discipline as rule cells). *)
let rec fused_machine t =
  match Atomic.get t.fused with
  | F_off | F_none -> None
  | F_ready f -> Some f
  | F_pending thunk as prev ->
    let next =
      match thunk () with Some f -> F_ready f | None -> F_none
    in
    if Atomic.compare_and_set t.fused prev next then
      match next with F_ready f -> Some f | _ -> None
    else fused_machine t

let set_fused_thunk t thunk =
  match Atomic.get t.fused with
  | F_off -> ()  (* the tier is pinned off; nothing may turn it on *)
  | F_pending _ | F_ready _ | F_none -> Atomic.set t.fused (F_pending thunk)

let per_rule_tier t = { t with fused = Atomic.make F_off }

(* The text window a suppress pattern is evaluated over: the lines the
   match spans, extended by one line on each side. *)
let context_window source start stop =
  let len = String.length source in
  let line_start i =
    let rec back j = if j > 0 && source.[j - 1] <> '\n' then back (j - 1) else j in
    back (min i len)
  in
  let line_end i =
    let rec fwd j = if j < len && source.[j] <> '\n' then fwd (j + 1) else j in
    fwd (max 0 (min i len))
  in
  let w_start = line_start (max 0 (line_start start - 1)) in
  let w_end = line_end (min len (line_end stop + 1)) in
  String.sub source w_start (w_end - w_start)

let one_line s =
  let s = String.trim s in
  match String.index_opt s '\n' with
  | Some i -> String.sub s 0 i ^ " ..."
  | None -> s

module B = Telemetry.Rules

(* --- fused-tier dispatch ---------------------------------------------- *)

(* The scan gate.  One fused pass answers, for every hosted rule at
   once, whether its full pattern matches somewhere in the subject; only
   flagged and unhosted rules are swept per rule.  Counters:
   [candidates] counts rules the fused pass flagged, [confirms] counts
   the per-rule scan sweeps those flags triggered, [fallbacks] counts
   passes where the fused cache thrashed and every rule was swept. *)
let fused_candidates_counter =
  Telemetry.Counter.make "scanner_fused_candidates_total"

let fused_confirms_counter =
  Telemetry.Counter.make "scanner_fused_confirms_total"

let fused_fallbacks_counter =
  Telemetry.Counter.make "scanner_fused_fallbacks_total"

(* One fused pass over each of [subjects], their flags OR-ed into one
   mask; [None] when the tier is off, hosts nothing, or bailed on some
   subject (cache thrash).  Never affects results — [None] simply means
   "every rule runs". *)
let fused_mask t subjects =
  match fused_machine t with
  | None -> None
  | Some f -> (
    match List.map (Rx.Fused.run f) subjects with
    | masks ->
      let mask =
        match masks with
        | [ m ] -> m
        | _ ->
          let u = Bytes.make (Rx.Fused.pattern_count f) '\000' in
          List.iter
            (Bytes.iteri (fun i c -> if c <> '\000' then Bytes.set u i c))
            masks;
          u
      in
      if Telemetry.enabled () then begin
        let flagged = ref 0 in
        Bytes.iter (fun c -> if c <> '\000' then incr flagged) mask;
        if !flagged > 0 then
          Telemetry.Counter.incr fused_candidates_counter ~by:!flagged
      end;
      Some (f, mask)
    | exception Rx.Fused.Bail ->
      Telemetry.Counter.incr fused_fallbacks_counter;
      None)

(* Whether rule [i] still needs its per-rule sweep given the fused
   verdict: unhosted rules always do; hosted rules only when flagged
   (an unflagged hosted rule provably has no match — skipping its
   sweep cannot change results). *)
let fused_wants fmask i =
  match fmask with
  | None -> true
  | Some (f, mask) ->
    (not (Rx.Fused.is_hosted f i)) || Bytes.get mask i <> '\000'

(* --- scan states ------------------------------------------------------ *)

(* A raw match: one [Rx.find_all] result with its suppression verdict.
   [raw_start]/[raw_stop] are offsets in the state's source; after a
   carried re-scan they may differ from [raw_m]'s own offsets, which
   refer to the source the match was originally found in — the matched
   and captured text is byte-identical in both, which is all the patcher
   reads from [raw_m]. *)
type raw = {
  raw_start : int;
  raw_stop : int;
  raw_suppressed : bool;
  raw_m : Rx.m;
}

type state = {
  st_source : string;
  st_index : Line_index.t Lazy.t;
  st_raw : raw list array;  (* per rule, ascending by raw_start *)
  st_maxws : int Lazy.t;
      (* upper bound on the newlines inside any maximal whitespace run
         of [st_source]; monotone over re-scans (see [rescan]) *)
  st_warnings : warning list;
}

let state_source st = st.st_source
let state_warnings st = st.st_warnings

let is_ws = function
  | ' ' | '\t' | '\n' | '\r' | '\011' | '\012' -> true
  | _ -> false

let max_ws_run_newlines source ~pos ~stop =
  let best = ref 0 and cur = ref 0 in
  for i = pos to stop - 1 do
    let c = String.unsafe_get source i in
    if c = '\n' then begin
      incr cur;
      if !cur > !best then best := !cur
    end
    else if not (is_ws c) then cur := 0
  done;
  !best

(* The full scan, producing a [state].  Semantics are the seed engine's:
   suppress windows are the matched lines ±1, a rule that exhausts its
   backtracking budget is skipped with a warning, and per-rule telemetry
   is recorded when a sink is installed. *)
let scan_state t source =
  Telemetry.Trace.ambient_span Telemetry.Trace.Scan @@ fun () ->
  let fmask = fused_mask t [ source ] in
  let confirms = ref 0 in
  let nrules = Array.length t.rule_arr in
  let raws = Array.make nrules [] in
  (* One branch when telemetry is off; with a sink installed, the block
     is fetched once per scan and every per-rule statistic is a dense
     array store by rule index. *)
  let block =
    match Telemetry.installed () with
    | None -> None
    | Some sink ->
      let b = B.block sink t.tele in
      b.B.scans <- b.B.scans + 1;
      Some b
  in
  let warnings = ref [] in
  (* Chained timestamps: one clock read per candidate rule — each rule's
     end time is the next one's start, since nothing happens between
     candidate rules.  Raw ticks, not ns: the block is reported through
     [Telemetry.Report], which converts at collection time, and a tick
     read is several times cheaper than the monotonic clock. *)
  let t_prev =
    ref (match block with Some _ -> Telemetry.now_ticks () | None -> 0)
  in
  Array.iteri
    (fun i cell ->
      if fused_wants fmask i then begin
        (match fmask with
        | Some (f, _) when Rx.Fused.is_hosted f i -> incr confirms
        | _ -> ());
        let rule = cell_rule cell in
        let steps = ref 0 in
        let exhausted = ref false in
        (* A pathological input must never take the scanner down: a rule
           that exhausts its backtracking budget is skipped, the rest of
           the plan still runs — but the skip is not silent: it is
           reported as a warning and counted in telemetry. *)
        let matches =
          try
            match block with
            | None -> Rx.find_all rule.Rule.pattern source
            | Some _ -> Rx.find_all_counted rule.Rule.pattern source ~steps
          with Rx.Budget_exceeded _ ->
            exhausted := true;
            []
        in
        let nraw = ref 0 and dropped = ref 0 in
        let rule_raws =
          List.map
            (fun m ->
              incr nraw;
              let start = Rx.m_start m and stop = Rx.m_stop m in
              let suppressed =
                match rule.Rule.suppress with
                | None -> false
                | Some sup ->
                  Rx.matches sup (context_window source start stop)
              in
              if suppressed then incr dropped;
              { raw_start = start; raw_stop = stop; raw_suppressed = suppressed;
                raw_m = m })
            matches
        in
        raws.(i) <- rule_raws;
        if !exhausted then warnings := Budget_exhausted rule.Rule.id :: !warnings;
        match block with
        | None -> ()
        | Some b ->
          b.B.candidates.(i) <- b.B.candidates.(i) + 1;
          b.B.matched.(i) <- b.B.matched.(i) + !nraw;
          b.B.suppressed.(i) <- b.B.suppressed.(i) + !dropped;
          b.B.findings.(i) <- b.B.findings.(i) + (!nraw - !dropped);
          b.B.steps.(i) <- b.B.steps.(i) + !steps;
          if !exhausted then
            b.B.budget_exhausted.(i) <- b.B.budget_exhausted.(i) + 1;
          let t = Telemetry.now_ticks () in
          b.B.time_ns.(i) <- b.B.time_ns.(i) + (t - !t_prev);
          t_prev := t
      end)
    t.rule_arr;
  if !confirms > 0 then
    Telemetry.Counter.incr fused_confirms_counter ~by:!confirms;
  {
    st_source = source;
    st_index = lazy (Line_index.build source);
    st_raw = raws;
    st_maxws =
      lazy (max_ws_run_newlines source ~pos:0 ~stop:(String.length source));
    st_warnings = List.rev !warnings;
  }

let state_findings t st =
  let out = ref [] in
  Array.iteri
    (fun i rule_raws ->
      (* empty for almost every rule — and only a rule that actually
         has raw matches forces its cell's decode *)
      if rule_raws <> [] then begin
        let rule = cell_rule t.rule_arr.(i) in
        List.iter
          (fun r ->
            if not r.raw_suppressed then begin
              let index = Lazy.force st.st_index in
              out :=
                {
                  rule;
                  line = Line_index.line index r.raw_start;
                  column = Line_index.column index r.raw_start;
                  offset = r.raw_start;
                  stop = r.raw_stop;
                  snippet = one_line (Rx.matched r.raw_m);
                  m = r.raw_m;
                }
                :: !out
            end)
          rule_raws
      end)
    st.st_raw;
  List.sort
    (fun a b ->
      match compare a.offset b.offset with
      | 0 -> compare a.rule.Rule.id b.rule.Rule.id
      | c -> c)
    !out

let scan_with_warnings t source =
  let st = scan_state t source in
  (state_findings t st, st.st_warnings)

let scan t source = fst (scan_with_warnings t source)

let is_vulnerable t source = scan t source <> []

let scan_selection_with_warnings t source ~first_line ~last_line =
  let lines = String.split_on_char '\n' source in
  let selected =
    List.filteri (fun i _ -> i + 1 >= first_line && i + 1 <= last_line) lines
    |> String.concat "\n"
  in
  let findings, warnings = scan_with_warnings t selected in
  ( List.map
      (fun f ->
        let line = f.line + first_line - 1 in
        { f with line })
      findings,
    warnings )

let scan_selection t source ~first_line ~last_line =
  fst (scan_selection_with_warnings t source ~first_line ~last_line)

(* --- incremental re-scan ---------------------------------------------- *)

(* Telemetry for the incremental pipeline: how often re-scans run (and
   fall back to a full scan), how much of each finding set is carried
   over versus recomputed, and what fraction of the new source the dirty
   regions cover. *)
let rescan_counter = Telemetry.Counter.make "scanner_rescans_total"

let rescan_fallback_counter =
  Telemetry.Counter.make "scanner_rescan_full_fallbacks_total"

let reused_counter = Telemetry.Counter.make "scanner_findings_reused_total"

let recomputed_counter =
  Telemetry.Counter.make "scanner_findings_recomputed_total"

let dirty_pct_histogram = Telemetry.Histogram.make "scanner_dirty_region_pct"

(* Raised when exactness cannot be maintained regionally (a budget
   exhaustion mid-re-scan, or a defensive invariant check failing);
   [rescan] then falls back to a full [scan_state], which is exact by
   construction. *)
exception Fallback

(* A dirty region: the lines an edit touched, widened by the plan's line
   extent bound plus two.  [rg_old_*] are offsets in the pre-edit
   source, [rg_new_*] in the post-edit source (both line-aligned), and
   [rg_fence] is the last new-source offset a region re-scan may start a
   match attempt at: one bound past the region, so that any match found
   beyond it is provably the old scan's exact continuation (see
   DESIGN.md, "Incremental patch architecture"). *)
type region = {
  rg_old_start : int;
  rg_old_stop : int;
  rg_new_start : int;
  rg_new_stop : int;
  rg_fence : int;
}

(* New-source spans of the replacement texts, in ascending order. *)
let new_spans edits =
  let rec go shift acc = function
    | [] -> List.rev acc
    | (e : Edit.t) :: rest ->
      let s = e.Edit.start + shift in
      go (shift + Edit.delta e) ((s, s + String.length e.Edit.repl) :: acc) rest
  in
  go 0 [] edits

(* The maxws bound for the edited source: whitespace runs in clean text
   existed before the edits and are covered by the previous bound; runs
   touching a replacement are re-measured after extending the span to
   its enclosing run.  The result can over-approximate (the previous
   bound is kept even if its run shrank), which only ever widens
   regions — never a correctness risk. *)
let maxws_after new_source spans prev_bound =
  let len = String.length new_source in
  List.fold_left
    (fun acc (s, e) ->
      let s = ref (min s len) in
      while !s > 0 && is_ws new_source.[!s - 1] do
        decr s
      done;
      let e = ref (min e len) in
      while !e < len && is_ws new_source.[!e] do
        incr e
      done;
      max acc (max_ws_run_newlines new_source ~pos:!s ~stop:!e))
    prev_bound spans

(* Sorted 1-based inclusive line ranges, overlapping or adjacent ones
   merged. *)
let merge_ranges ranges =
  List.fold_left
    (fun acc (a, b) ->
      match acc with
      | (pa, pb) :: rest when a <= pb + 1 -> (pa, max pb b) :: rest
      | _ -> (a, b) :: acc)
    []
    (List.sort compare ranges)
  |> List.rev

(* Line distance from [l] to the nearest range (0 inside a range). *)
let dist_to_ranges ranges l =
  List.fold_left
    (fun acc (a, b) ->
      min acc (if l < a then a - l else if l > b then l - b else 0))
    max_int ranges

(* One rule's dirty regions: the base dirty line ranges widened by the
   rule's own [pad], with fences [bound] lines past each region end.
   Regions are per rule because pads differ widely across the catalog —
   a worst-case shared pad would mark most of a small file dirty for
   every rule. *)
let regions_for ~old_index ~old_len ~new_index ~new_source ~edits ~base_old
    ~pad ~bound =
  let nlines_old = Line_index.line_count old_index in
  let new_len = String.length new_source in
  let nlines_new = Line_index.line_count new_index in
  merge_ranges
    (List.map
       (fun (a, b) -> (max 1 (a - pad), min nlines_old (b + pad)))
       base_old)
  |> List.map (fun (la, lb) ->
         let os = Line_index.line_start old_index la in
         let oe =
           if lb >= nlines_old then old_len
           else Line_index.line_start old_index (lb + 1)
         in
         let ns = Edit.map_offset_left edits os in
         let ne = Edit.map_offset edits oe in
         let fence_line =
           Line_index.line new_index (max 0 (ne - 1)) + bound + 1
         in
         let fence =
           if fence_line >= nlines_new then new_len
           else Line_index.line_start new_index (fence_line + 1) - 1
         in
         {
           rg_old_start = os;
           rg_old_stop = oe;
           rg_new_start = ns;
           rg_new_stop = ne;
           rg_fence = fence;
         })
  |> Array.of_list

(* Exact per-rule merge of the old raw matches with region re-scans.
   Invariants (proved in DESIGN.md):
   - old matches starting before a region are unchanged, byte-for-byte,
     suppression window included — they are carried with remapped
     offsets;
   - matches relevant to the edits start inside a region; the re-scan
     runs [Rx.exec] from the region start, fenced at [rg_fence];
   - when the fenced scan finds nothing further, the remaining old
     matches (all strictly beyond the fence) are the scan's exact
     continuation, so carrying resumes. *)
let merge_rule (rule : Rule.t) old_raws edits new_source regions ~steps ~count
    =
  let nregions = Array.length regions in
  let exec_from pos limit =
    if count then Rx.exec_counted ~pos ~limit rule.Rule.pattern new_source ~steps
    else Rx.exec ~pos ~limit rule.Rule.pattern new_source
  in
  let map_o = Edit.map_offset edits in
  let out = ref [] in
  let fresh = ref 0 and carried = ref 0 in
  let olds = ref old_raws in
  let pos = ref 0 in
  let k = ref 0 in
  let carrying = ref true in
  let finished = ref false in
  let emit_carried r =
    let start = map_o r.raw_start and stop = map_o r.raw_stop in
    incr carried;
    out := { r with raw_start = start; raw_stop = stop } :: !out;
    pos := (if stop = start then stop + 1 else stop)
  in
  let emit_fresh m =
    let start = Rx.m_start m and stop = Rx.m_stop m in
    let suppressed =
      match rule.Rule.suppress with
      | None -> false
      | Some sup -> Rx.matches sup (context_window new_source start stop)
    in
    incr fresh;
    out :=
      { raw_start = start; raw_stop = stop; raw_suppressed = suppressed;
        raw_m = m }
      :: !out;
    pos := (if stop = start then stop + 1 else stop)
  in
  let rec drop_while p =
    match !olds with
    | r :: rest when p r ->
      olds := rest;
      drop_while p
    | _ -> ()
  in
  while not !finished do
    if !carrying then
      if !k >= nregions then begin
        List.iter emit_carried !olds;
        olds := [];
        finished := true
      end
      else begin
        let rg = regions.(!k) in
        (* carry the clean matches before the region, drop the ones the
           region re-scan will recompute *)
        let rec carry () =
          match !olds with
          | r :: rest when r.raw_start < rg.rg_old_start ->
            olds := rest;
            emit_carried r;
            carry ()
          | _ -> ()
        in
        carry ();
        drop_while (fun r -> r.raw_start < rg.rg_old_stop);
        pos := max !pos rg.rg_new_start;
        carrying := false
      end
    else begin
      (* a fence reaching into the next region fuses the two scans *)
      let fused = ref true in
      while !fused do
        if
          !k + 1 < nregions
          && regions.(!k).rg_fence >= regions.(!k + 1).rg_new_start
        then begin
          incr k;
          drop_while (fun r -> r.raw_start < regions.(!k).rg_old_stop)
        end
        else fused := false
      done;
      let fence = regions.(!k).rg_fence in
      match exec_from !pos fence with
      | Some m ->
        emit_fresh m;
        (* old matches the scan has passed are superseded: either they
           were just re-found (and re-emitted fresh) or they vanished *)
        drop_while (fun r -> map_o r.raw_start < !pos)
      | None ->
        (* no match starts in [pos, fence].  An old match mapping into
           that window would be a positional match on clean text — a
           contradiction; check defensively and fall back rather than
           ever diverging from the full scan. *)
        (match !olds with
        | r :: _ when map_o r.raw_start <= fence -> raise Fallback
        | _ -> ());
        incr k;
        carrying := true
    end
  done;
  (List.rev !out, !carried, !fresh)

let rescan_exn t st edits new_source =
  let old_index = Lazy.force st.st_index in
  let old_len = String.length st.st_source in
  let new_index = Line_index.update old_index edits in
  let maxws = maxws_after new_source (new_spans edits) (Lazy.force st.st_maxws) in
  let nrules = Array.length t.rule_arr in
  (* Per-rule line-extent bounds under the new maxws: a match of rule
     [i] spans at most [bound.(i)] newlines. *)
  let bound =
    Array.map
      (function Some (f, w) -> f + (w * maxws) | None -> 0)
      t.extent
  in
  let max_bound = Array.fold_left max 0 bound in
  let max_pad = max_bound + 2 in
  (* Base dirty line ranges: the lines the edits touched, in old-source
     and new-source coordinates.  Each rule widens these by its own pad
     instead of sharing the worst rule's. *)
  let base_old =
    merge_ranges
      (List.map
         (fun (e : Edit.t) ->
           ( Line_index.line old_index e.Edit.start,
             Line_index.line old_index (max e.Edit.start (e.Edit.stop - 1)) ))
         edits)
  in
  let new_len = String.length new_source in
  let nlines_new = Line_index.line_count new_index in
  let base_new =
    merge_ranges
      (List.map
         (fun (s, e) ->
           ( Line_index.line new_index s,
             Line_index.line new_index (max s (e - 1)) ))
         (new_spans edits))
  in
  (* Fused-mask gate.  One fused pass over the dirty lines widened by
     [p + max_bound] flags every rule with a match lying wholly inside a
     span.  [p] covers every rule's decision threshold (pad + bound + 1
     below), and a match touching a line within [p] of a dirty line
     spans at most [max_bound] newlines, so it lies inside a span and is
     flagged.  Spans are line-aligned, so a span's start has the same
     left context as in the whole source (a line start), and any such
     match ends before the span's last byte, so its right context is
     unchanged too: the cut cannot hide it.  A bailed pass gates
     nothing. *)
  let p = max_pad + max_bound + 1 in
  let scan_spans =
    merge_ranges
      (List.map
         (fun (a, b) ->
           (max 1 (a - p - max_bound), min nlines_new (b + p + max_bound)))
         base_new)
    |> List.map (fun (la, lb) ->
           let bs = Line_index.line_start new_index la in
           let be =
             if lb >= nlines_new then new_len
             else Line_index.line_start new_index (lb + 1)
           in
           (bs, be))
  in
  let span_mask =
    fused_mask t
      (List.map
         (fun (bs, be) ->
           if bs = 0 && be = new_len then new_source
           else String.sub new_source bs (be - bs))
         scan_spans)
  in
  (* Distance from each rule's nearest old match to a dirty line: a
     close old match may vanish or change, and its disappearance can
     un-shadow a match further out, so closeness forces the full
     region merge for that rule. *)
  let min_old_dist = Array.make nrules max_int in
  Array.iteri
    (fun i olds ->
      List.iter
        (fun r ->
          if min_old_dist.(i) > 0 then begin
            let d =
              dist_to_ranges base_old (Line_index.line old_index r.raw_start)
            in
            if d < min_old_dist.(i) then min_old_dist.(i) <- d
          end)
        olds)
    st.st_raw;
  (* Rules with no finite line extent are re-run over the whole source
     when they could match at all: an unflagged hosted rule's full
     re-scan would find nothing.  The whole-source fused pass runs at
     most once. *)
  let full_mask = lazy (fused_mask t [ new_source ]) in
  let block =
    match Telemetry.installed () with
    | None -> None
    | Some sink ->
      let b = B.block sink t.tele in
      b.B.scans <- b.B.scans + 1;
      Some b
  in
  let count = block <> None in
  let t_prev = ref (if count then Telemetry.now_ticks () else 0) in
  let new_raws = Array.make nrules [] in
  let total_carried = ref 0 and total_fresh = ref 0 in
  let record i nraw dropped steps =
    match block with
    | None -> ()
    | Some b ->
      b.B.candidates.(i) <- b.B.candidates.(i) + 1;
      b.B.matched.(i) <- b.B.matched.(i) + nraw;
      b.B.suppressed.(i) <- b.B.suppressed.(i) + dropped;
      b.B.findings.(i) <- b.B.findings.(i) + (nraw - dropped);
      b.B.steps.(i) <- b.B.steps.(i) + steps;
      let now = Telemetry.now_ticks () in
      b.B.time_ns.(i) <- b.B.time_ns.(i) + (now - !t_prev);
      t_prev := now
  in
  Array.iteri
    (fun i cell ->
      let olds = st.st_raw.(i) in
      match t.extent.(i) with
      | Some _ ->
        let pad = bound.(i) + 2 in
        (* The rule must re-scan its regions iff a new match could lie
           near a dirty line (the span pass flagged it, or could not
           rule it out: unhosted, or the pass bailed) or an old match
           sits within pad lines (it may vanish, and a vanished match
           can un-shadow one starting up to bound lines past the region,
           which the fence covers — so this case always runs the full
           merge, never a drop-only shortcut). *)
        let needs_merge =
          fused_wants span_mask i || min_old_dist.(i) <= pad
        in
        if not needs_merge then begin
          (* nothing near the dirty lines changed for this rule:
             carry all matches with remapped offsets *)
          if olds <> [] then begin
            let map_o = Edit.map_offset edits in
            new_raws.(i) <-
              List.map
                (fun r ->
                  { r with
                    raw_start = map_o r.raw_start;
                    raw_stop = map_o r.raw_stop })
                olds;
            total_carried := !total_carried + List.length olds
          end
        end
        else begin
          let regions =
            regions_for ~old_index ~old_len ~new_index ~new_source ~edits
              ~base_old ~pad ~bound:bound.(i)
          in
          let rule = cell_rule cell in
          let steps = ref 0 in
          let merged, carried, fresh =
            try merge_rule rule olds edits new_source regions ~steps ~count
            with Rx.Budget_exceeded _ -> raise Fallback
          in
          new_raws.(i) <- merged;
          total_carried := !total_carried + carried;
          total_fresh := !total_fresh + fresh;
          let dropped =
            List.fold_left
              (fun acc r -> if r.raw_suppressed then acc + 1 else acc)
              0 merged
          in
          record i fresh dropped !steps
        end
      | None ->
        (* no finite extent: full re-scan whenever the rule is a
           candidate anywhere in the new source *)
        if fused_wants (Lazy.force full_mask) i then begin
          let rule = cell_rule cell in
          let steps = ref 0 in
          let matches =
            try
              if count then
                Rx.find_all_counted rule.Rule.pattern new_source ~steps
              else Rx.find_all rule.Rule.pattern new_source
            with Rx.Budget_exceeded _ -> raise Fallback
          in
          let nraw = ref 0 and dropped = ref 0 in
          new_raws.(i) <-
            List.map
              (fun m ->
                incr nraw;
                let start = Rx.m_start m and stop = Rx.m_stop m in
                let suppressed =
                  match rule.Rule.suppress with
                  | None -> false
                  | Some sup ->
                    Rx.matches sup (context_window new_source start stop)
                in
                if suppressed then incr dropped;
                { raw_start = start; raw_stop = stop;
                  raw_suppressed = suppressed; raw_m = m })
              matches;
          total_fresh := !total_fresh + !nraw;
          record i !nraw !dropped !steps
        end)
    t.rule_arr;
  Telemetry.Counter.incr reused_counter ~by:!total_carried;
  Telemetry.Counter.incr recomputed_counter ~by:!total_fresh;
  if new_len > 0 then begin
    let dirty =
      List.fold_left (fun acc (bs, be) -> acc + (be - bs)) 0 scan_spans
    in
    Telemetry.Histogram.observe dirty_pct_histogram
      (min 100 (dirty * 100 / new_len))
  end;
  {
    st_source = new_source;
    st_index = Lazy.from_val new_index;
    st_raw = new_raws;
    st_maxws = Lazy.from_val maxws;
    st_warnings = [];
  }

let rescan t st edits =
  if edits = [] then st
  else begin
    let new_source = Edit.apply st.st_source edits in
    (* A state carrying budget warnings has rules whose match set is not
       exactly known; only the full scan reproduces the reference
       behaviour for those. *)
    if st.st_warnings <> [] then scan_state t new_source
    else begin
      Telemetry.Counter.incr rescan_counter;
      match
        Telemetry.Trace.ambient_span Telemetry.Trace.Rescan (fun () ->
            rescan_exn t st edits new_source)
      with
      | state -> state
      | exception Fallback ->
        Telemetry.Counter.incr rescan_fallback_counter;
        scan_state t new_source
    end
  end

(* --- binary codec ----------------------------------------------------------

   Plan serialization for rule packs: the rules (fully compiled) and
   their newline budgets travel verbatim, so loading a plan does none
   of the work [compile] does.  Two pieces of process-local identity
   are regenerated on read: the telemetry registration (stamps are
   per-process) and each pattern's DFA-cache uid (fresh inside
   [Rx.read_compiled]).  [read] cross-checks every
   table length against the rule count, so adversarial bytes fail with
   [Binio.Corrupt] instead of corrupting a scan.

   Rules travel in two parts: their ids eagerly (the telemetry
   registration needs every id before any rule runs), then one
   length-prefixed blob per rule.  [read] does not decode the blobs —
   it stores views into the payload and each [cell] decodes on first
   use, so load time is independent of the rule count.  The deferral is
   sound because the containing pack checksums the whole payload before
   [read] runs: a blob that fails to decode later means the checksum
   itself was forged, and the decode error (a [Binio] exception at
   first use of that rule) is memory-safe, just no longer typed. *)

let write buf t =
  let rules_vec = Array.map cell_rule t.rule_arr in
  Binio.w_array
    (fun buf (r : Rule.t) -> Binio.w_str buf r.Rule.id)
    buf rules_vec;
  Binio.w_array
    (fun buf rule ->
      let blob = Buffer.create 512 in
      Rule.write blob rule;
      Binio.w_str buf (Buffer.contents blob))
    buf rules_vec;
  Binio.w_array
    (Binio.w_opt (fun buf (f, w) ->
         Binio.w_u32 buf f;
         Binio.w_u32 buf w))
    buf t.extent

let read r =
  let ids = Binio.r_array Binio.r_str r in
  let nrules = Array.length ids in
  let nblobs = Binio.r_count r in
  if nblobs <> nrules then
    raise (Binio.Corrupt "rule blob count does not match the id count");
  let rule_arr =
    Array.init nrules (fun i ->
        let len = Binio.r_u32 r in
        let view = Binio.r_view r len in
        let id = ids.(i) in
        {
          filled = Atomic.make None;
          decode =
            (fun () ->
              let r = Binio.sub_reader view in
              let rule = Rule.read r in
              if not (Binio.at_end r) then
                raise (Binio.Corrupt "trailing bytes in rule blob");
              if not (String.equal rule.Rule.id id) then
                raise (Binio.Corrupt "rule blob id mismatch");
              rule);
        })
  in
  let extent =
    Binio.r_array
      (Binio.r_opt (fun r ->
           let f = Binio.r_u32 r in
           let w = Binio.r_u32 r in
           (f, w)))
      r
  in
  if Array.length extent <> nrules then
    raise (Binio.Corrupt "newline-budget table does not match the rule count");
  {
    rule_arr;
    extent;
    tele = Telemetry.Rules.define ids;
    (* default thunk fuses from the decoded rules on first scan;
       rule packs carrying a pre-built fused section replace it via
       [set_fused_thunk], keeping load time free of the fuse cost *)
    fused = fused_of_cells rule_arr;
  }
