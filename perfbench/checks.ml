(* Correctness checks.  All of them run outside the timed window; each
   failure is counted as a failed op. *)

module G = Corpus.Generator
module C = Metrics.Confusion

type tally = { mutable run : int; mutable failed : int; mutable notes : string list }

let tally () = { run = 0; failed = 0; notes = [] }

let check t ok note =
  t.run <- t.run + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    if List.length t.notes < 8 then t.notes <- note () :: t.notes
  end

(* What the daemon must serve for a request, computed in process: the
   CLI's per-file path ([scan --json] / [patch --json]). *)
let expected plan kind ~file source =
  match kind with
  | Inputs.Scan ->
    let findings, warnings = Patchitpy.Scanner.scan_with_warnings plan source in
    Patchitpy.Jsonout.findings_to_json ~warnings ~file findings
  | Inputs.Patch ->
    Patchitpy.Jsonout.patch_to_json ~file (Patchitpy.Patcher.patch ~scanner:plan source)

(* EXPERIMENTS.md E3, Table II, PatchitPy rows: precision, recall, F1
   and accuracy per model and over all models, as printed (two
   decimals). *)
let table_ii =
  [
    ("Copilot", ("0.97", "0.85", "0.91", "0.85"));
    ("Claude", ("0.96", "0.93", "0.94", "0.93"));
    ("DeepSeek", ("0.98", "0.90", "0.94", "0.91"));
    ("All models", ("0.97", "0.89", "0.93", "0.90"));
  ]

let detection t plan =
  let matrix samples =
    C.of_outcomes
      (List.map
         (fun (s : G.sample) ->
           (s.G.vulnerable, Patchitpy.Scanner.scan plan s.G.code <> []))
         samples)
  in
  let per_model = List.map (fun m -> (G.model_name m, matrix (G.samples m))) G.models in
  let overall = List.fold_left (fun acc (_, cm) -> C.merge acc cm) C.empty per_model in
  List.iter
    (fun (column, cm) ->
      let pct = Printf.sprintf "%.2f" in
      let got = (pct (C.precision cm), pct (C.recall cm), pct (C.f1 cm), pct (C.accuracy cm)) in
      let want = List.assoc_opt column table_ii in
      check t (want = Some got) (fun () ->
          let p, r, f, a = got in
          Printf.sprintf "Table II %s: P/R/F1/Acc %s/%s/%s/%s (%s)" column p r f a
            (C.to_string cm)))
    (per_model @ [ ("All models", overall) ])

(* A patched file parses whenever its input did, and patching it again
   changes nothing. *)
let patch_invariants t plan ~label source =
  let r = Patchitpy.Patcher.patch ~scanner:plan source in
  check t
    ((not (Pyast.parses source)) || Pyast.parses r.Patchitpy.Patcher.patched)
    (fun () -> label ^ ": patched output no longer parses");
  check t
    (not (Patchitpy.Patcher.changed (Patchitpy.Patcher.patch ~scanner:plan r.Patchitpy.Patcher.patched)))
    (fun () -> label ^ ": patching the patched output changed it again")

(* Served payloads kept from the timed window against [expect]. *)
let bodies t ~expect kept =
  List.iter
    (fun (i, kind, body) ->
      check t (body = expect i kind) (fun () ->
          Printf.sprintf "op %d (%s): served body differs from the in-process output" i
            (Inputs.kind_name kind)))
    kept
