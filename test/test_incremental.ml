(* The incremental patch pipeline's contract is byte-equivalence: a
   re-scanned state must be indistinguishable from a full scan of the
   edited source, and an incremental patch run must produce exactly the
   bytes (and findings, and application log) of the full-rescan run.
   These tests check the contract three ways: unit edge cases around
   offset 0 / EOF / adjacency, randomized edit sequences (QCheck), and
   full differentials at several --jobs values over the 609-sample
   corpus and over repository-shaped files of 1-32 samples. *)

open Patchitpy
module G = Corpus.Generator

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let scanner = lazy (Scanner.compile (Catalog.all ()))

(* --- oracles ----------------------------------------------------------- *)

let finding_key (f : Scanner.finding) =
  (f.Scanner.rule.Rule.id, f.Scanner.line, f.Scanner.column, f.Scanner.offset,
   f.Scanner.stop, f.Scanner.snippet)

let check_rescan_matches_full ~msg st edits =
  let t = Lazy.force scanner in
  let st' = Scanner.rescan t st edits in
  let full_src = Edit.apply (Scanner.state_source st) edits in
  check_string (msg ^ ": source") full_src (Scanner.state_source st');
  let incr_keys = List.map finding_key (Scanner.state_findings t st') in
  let full_keys = List.map finding_key (Scanner.scan t full_src) in
  check_bool (msg ^ ": findings") true (incr_keys = full_keys);
  st'

(* --- Line_index.update vs rebuild -------------------------------------- *)

let index_starts source index =
  List.init (Line_index.line_count index) (fun i ->
      Line_index.line_start index (i + 1))
  |> List.map (fun off -> (off, Line_index.line index (min off (String.length source))))

let source_gen =
  QCheck.string_gen_of_size
    (QCheck.Gen.int_range 0 120)
    QCheck.Gen.(
      frequency [ (8, char_range 'a' 'e'); (2, return '\n'); (1, return ' ') ])

let repl_fragments =
  [|
    ""; "\n"; "\n\n"; "x"; "xy\nz"; "  "; "pickle.loads(data)";
    "x = eval(s)\n"; "import json\n"; "json.loads(data)"; "# ok\n";
  |]

let repl_gen =
  QCheck.Gen.(map (fun i -> repl_fragments.(i)) (int_range 0 (Array.length repl_fragments - 1)))

(* Raw (start, len, repl) triples, normalized into a sorted,
   non-overlapping, in-bounds edit list for a length-[n] source. *)
let normalize_edits n raw =
  let raw = List.sort (fun (a, _, _) (b, _, _) -> compare a b) raw in
  let rec go pos acc = function
    | [] -> List.rev acc
    | (s, l, r) :: rest ->
      let s = max s pos in
      if s > n then List.rev acc
      else
        let stop = min n (s + l) in
        go stop ({ Edit.start = s; stop; repl = r } :: acc) rest
  in
  go 0 [] raw

let edits_gen n =
  QCheck.Gen.(
    map (normalize_edits n)
      (list_size (int_range 0 4)
         (triple (int_range 0 (max n 1)) (int_range 0 20) repl_gen)))

let prop_line_index_update =
  QCheck.Test.make ~name:"Line_index.update agrees with rebuild" ~count:500
    (QCheck.make
       QCheck.Gen.(
         source_gen.QCheck.gen >>= fun src ->
         edits_gen (String.length src) >>= fun edits -> return (src, edits)))
    (fun (src, edits) ->
      if not (Edit.valid src edits) then QCheck.assume_fail ()
      else begin
        let updated = Line_index.update (Line_index.build src) edits in
        let rebuilt = Line_index.build (Edit.apply src edits) in
        index_starts src updated = index_starts src rebuilt
      end)

(* Chains of updates: each round's index feeds the next round's update,
   so drift would compound and surface. *)
let prop_line_index_update_chain =
  QCheck.Test.make ~name:"Line_index.update composes over edit rounds"
    ~count:200
    (QCheck.make
       QCheck.Gen.(
         source_gen.QCheck.gen >>= fun src ->
         list_size (int_range 1 4) (int_range 0 1000) >>= fun seeds ->
         return (src, seeds)))
    (fun (src, seeds) ->
      let st = Random.State.make (Array.of_list seeds) in
      let src = ref src and index = ref (Line_index.build src) in
      List.for_all
        (fun _ ->
          let n = String.length !src in
          let raw =
            List.init
              (Random.State.int st 4)
              (fun _ ->
                ( Random.State.int st (n + 1),
                  Random.State.int st 15,
                  repl_fragments.(Random.State.int st (Array.length repl_fragments)) ))
          in
          let edits = normalize_edits n raw in
          index := Line_index.update !index edits;
          src := Edit.apply !src edits;
          index_starts !src !index = index_starts !src (Line_index.build !src))
        seeds)

(* --- rescan vs full scan: randomized ----------------------------------- *)

(* Sources assembled from python-ish lines, several of which trip
   catalog rules — so re-scans exercise carried findings, recomputed
   findings and suppression, not just empty match sets. *)
let py_lines =
  [|
    "import os"; "import pickle"; "x = 1"; "data = request.get_data()";
    "obj = pickle.loads(data)"; "os.system(cmd)"; "y = eval(expr)";
    "print(x)"; ""; "    pass"; "def f(a):"; "    return a";
    "cfg = yaml.load(f)"; "subprocess.call(cmd, shell=True)";
  |]

let py_source_gen =
  QCheck.Gen.(
    map
      (fun idxs ->
        String.concat "\n" (List.map (fun i -> py_lines.(i)) idxs))
      (list_size (int_range 0 25) (int_range 0 (Array.length py_lines - 1))))

let prop_rescan_matches_full =
  QCheck.Test.make ~name:"rescan is byte-equivalent to a full scan" ~count:300
    (QCheck.make
       QCheck.Gen.(
         py_source_gen >>= fun src ->
         edits_gen (String.length src) >>= fun edits -> return (src, edits)))
    (fun (src, edits) ->
      if not (Edit.valid src edits) then QCheck.assume_fail ()
      else begin
        let t = Lazy.force scanner in
        let st = Scanner.scan_state t src in
        let st' = Scanner.rescan t st edits in
        let full_src = Edit.apply src edits in
        Scanner.state_source st' = full_src
        && List.map finding_key (Scanner.state_findings t st')
           = List.map finding_key (Scanner.scan t full_src)
      end)

(* --- edge cases around offset 0, EOF and adjacency --------------------- *)

let test_edit_at_offset_zero () =
  let t = Lazy.force scanner in
  let src = "eval(x)\nprint(1)\n" in
  let st = Scanner.scan_state t src in
  (* insert before the finding at offset 0 *)
  ignore
    (check_rescan_matches_full ~msg:"insert at 0" st
       [ { Edit.start = 0; stop = 0; repl = "import os\n" } ]);
  (* replace the finding itself, starting at offset 0 *)
  ignore
    (check_rescan_matches_full ~msg:"replace at 0" st
       [ { Edit.start = 0; stop = 7; repl = "ast.literal_eval(x)" } ])

let test_edit_at_eof () =
  let t = Lazy.force scanner in
  let src = "print(1)\nx = 2" in
  let st = Scanner.scan_state t src in
  let len = String.length src in
  (* append a new vulnerable line at EOF *)
  ignore
    (check_rescan_matches_full ~msg:"append at EOF" st
       [ { Edit.start = len; stop = len; repl = "\nos.system(cmd)" } ]);
  (* delete up to EOF *)
  ignore
    (check_rescan_matches_full ~msg:"delete to EOF" st
       [ { Edit.start = 9; stop = len; repl = "" } ]);
  (* empty source in, text out *)
  let empty = Scanner.scan_state t "" in
  ignore
    (check_rescan_matches_full ~msg:"grow empty source" empty
       [ { Edit.start = 0; stop = 0; repl = "y = eval(expr)\n" } ])

let test_adjacent_edits () =
  let t = Lazy.force scanner in
  let src = "a = 1\nb = eval(s)\nc = 3\nd = pickle.loads(p)\n" in
  let st = Scanner.scan_state t src in
  (* two edits sharing a boundary (stop = next start) *)
  ignore
    (check_rescan_matches_full ~msg:"adjacent edits" st
       [
         { Edit.start = 6; stop = 17; repl = "b = 2" };
         { Edit.start = 17; stop = 18; repl = "\n\n" };
       ]);
  (* chained rounds: rescan of a rescanned state *)
  let st1 =
    check_rescan_matches_full ~msg:"round 1" st
      [ { Edit.start = 6; stop = 17; repl = "b = input()" } ]
  in
  ignore
    (check_rescan_matches_full ~msg:"round 2" st1
       [ { Edit.start = 0; stop = 0; repl = "import os\nos.system(cmd)\n" } ])

(* Overlapping findings: two rules matching overlapping spans — a patch
   round must fix the first and leave the second for a later round, and
   the incremental pipeline must agree with the full pipeline on the
   result. *)
let test_overlapping_applications () =
  let rules =
    [
      Rule.make ~id:"T-OVER-1" ~title:"outer" ~cwe:94 ~severity:Rule.High
        ~pattern:{|eval\(raw\)|} ~fix:(Rule.Replace_template "safe(raw)")
        ~note:"" ();
      Rule.make ~id:"T-OVER-2" ~title:"inner" ~cwe:94 ~severity:Rule.High
        ~pattern:{|raw\)|} ~fix:(Rule.Replace_template "cooked)") ~note:"" ();
    ]
  in
  let src = "x = eval(raw)\n" in
  let r = Patcher.patch ~rules ~manage_imports:false src in
  (* round 1 applies the outer fix; the inner rule then matches the
     rewritten text and a later round rewrites it too *)
  check_string "overlap fixpoint" "x = safe(cooked)\n" r.Patcher.patched;
  check_int "both rules applied" 2 (List.length r.Patcher.applications);
  check_bool "converged" true r.Patcher.converged

(* --- corpus differential: incremental vs full-rescan ------------------- *)

let patch_fingerprint (r : Patcher.result) =
  let apps =
    List.map
      (fun (a : Patcher.application) ->
        (a.Patcher.rule.Rule.id, a.Patcher.line, a.Patcher.before,
         a.Patcher.after))
      r.Patcher.applications
  in
  let remaining =
    List.map
      (fun (f : Engine.finding) ->
        (f.Engine.rule.Rule.id, f.Engine.line, f.Engine.offset, f.Engine.stop))
      r.Patcher.remaining
  in
  ( r.Patcher.patched, apps, r.Patcher.imports_added, remaining,
    r.Patcher.rounds_used, r.Patcher.converged )

let with_full_rescan f =
  Unix.putenv "PATCHITPY_FULL_RESCAN" "1";
  Fun.protect ~finally:(fun () -> Unix.putenv "PATCHITPY_FULL_RESCAN" "") f

(* Patches every source incrementally at jobs 1 and 4 and requires the
   full-rescan pipeline's exact result; returns that reference. *)
let check_patch_differential sources =
  let run jobs =
    Experiments.Par.map_samples ~jobs
      (fun code -> patch_fingerprint (Patcher.patch code))
      sources
  in
  let reference = with_full_rescan (fun () -> run 1) in
  List.iter
    (fun jobs ->
      check_bool
        (Printf.sprintf "incremental(jobs=%d) = full-rescan" jobs)
        true
        (run jobs = reference))
    [ 1; 4 ];
  reference

let test_corpus_differential () =
  let samples = G.all_samples () in
  check_int "corpus size" 609 (List.length samples);
  ignore
    (check_patch_differential
       (List.map (fun (s : G.sample) -> s.G.code) samples))

(* Repository-shaped files: 1..32 corpus samples joined by newlines, so
   an edit's dirty spans cover a small part of the file and most rules
   are gated out of their region merge — the case single samples, whose
   spans usually cover the whole file, never reach. *)
let repo_files ~seed ~count =
  let samples = Array.of_list (G.all_samples ()) in
  let rng = Random.State.make [| seed |] in
  List.init count (fun i ->
      String.concat "\n"
        (List.init
           (1 + (i mod 32))
           (fun _ ->
             samples.(Random.State.int rng (Array.length samples)).G.code)))

let test_repo_files_differential () =
  let files =
    List.concat_map (fun seed -> repo_files ~seed ~count:48) [ 600; 601 ]
  in
  let reference = check_patch_differential files in
  check_bool "the differential saw real applications" true
    (List.exists (fun (_, apps, _, _, _, _) -> apps <> []) reference);
  (* scan leg: a vulnerable line inserted mid-file must be found by the
     gated rescan exactly as by a full scan *)
  let t = Lazy.force scanner in
  List.iteri
    (fun i code ->
      let at =
        match String.index_from_opt code (String.length code / 2) '\n' with
        | Some j -> j + 1
        | None -> String.length code
      in
      let edits = [ { Edit.start = at; stop = at; repl = "os.system(cmd)\n" } ] in
      ignore
        (check_rescan_matches_full
           ~msg:(Printf.sprintf "file %d" i)
           (Scanner.scan_state t code) edits))
    files

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "incremental"
    [
      ( "line index",
        qt [ prop_line_index_update; prop_line_index_update_chain ] );
      ("rescan", qt [ prop_rescan_matches_full ]);
      ( "edges",
        [
          Alcotest.test_case "edits at offset 0" `Quick test_edit_at_offset_zero;
          Alcotest.test_case "edits at EOF" `Quick test_edit_at_eof;
          Alcotest.test_case "adjacent edits and chained rounds" `Quick
            test_adjacent_edits;
          Alcotest.test_case "overlapping applications" `Quick
            test_overlapping_applications;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "609-sample differential (jobs 1 and 4)" `Slow
            test_corpus_differential;
          Alcotest.test_case "1-32 sample files differential (jobs 1 and 4)"
            `Slow test_repo_files_differential;
        ] );
    ]
