(* Warm-start tests: the rule pack's warm section of replay subjects,
   the corpus-wide differential proving scans after a warm boot
   byte-identical to cold ones, and adversarial sweeps over the pack
   and warm-section bytes (typed error or clean fall-back to no
   subjects — never a crash, never a changed result). *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let sample_flask =
  "import os\n\
   from flask import Flask, request\n\n\
   @app.route(\"/run\")\n\
   def run_cmd():\n\
  \    cmd = request.args.get(\"cmd\", \"\")\n\
  \    os.system(cmd)\n\
  \    return f\"<p>{cmd}</p>\"\n"

(* --- warm pack: build, inspect, differential ------------------------------- *)

let warm_pack =
  lazy
    (let pack = Rulepack.create () in
     let corpus =
       List.map
         (fun (s : Corpus.Generator.sample) -> s.Corpus.Generator.code)
         (Corpus.Generator.all_samples ())
     in
     let warm = Rulepack.collect_warm ~corpus pack in
     ((warm :> string list), Rulepack.encode ~warm pack))

let warm_pack_bytes = lazy (snd (Lazy.force warm_pack))

let decode_ok bytes =
  match Rulepack.decode bytes with
  | Ok p -> p
  | Error e -> Alcotest.failf "decode: %s" (Rulepack.error_to_string e)

let test_warm_pack_info () =
  let p = decode_ok (Lazy.force warm_pack_bytes) in
  let subjects = p.Rulepack.warm_subjects in
  check_int "subjects carried and decoded" 16 (List.length subjects);
  Alcotest.(check (list string))
    "decoded subjects are the collected ones" (fst (Lazy.force warm_pack))
    subjects

let test_cold_pack_no_subjects () =
  let p = decode_ok (Rulepack.encode (Rulepack.create ())) in
  check_int "no subjects" 0 (List.length p.Rulepack.warm_subjects);
  check_int "prewarm replays nothing" 0 (Rulepack.prewarm p)

let finding_key (f : Patchitpy.Scanner.finding) =
  Printf.sprintf "%s:%d:%d:%d:%d:%s" f.rule.Patchitpy.Rule.id f.line f.column
    f.offset f.stop f.snippet

let scan_fingerprint scanner code =
  String.concat "\n" (List.map finding_key (Patchitpy.Scanner.scan scanner code))

(* The acceptance differential: scans through a prewarmed plan are
   byte-identical to the source-compiled catalog's over the whole
   corpus.  At jobs 4 the worker domains build their own caches after
   the replay heated this one, so the parallel run mixes domains that
   were warmed with domains that start cold. *)
let warm_differential ~jobs () =
  let catalog = Patchitpy.Engine.default_scanner () in
  let packed =
    let p = decode_ok (Lazy.force warm_pack_bytes) in
    check_int "subjects replayed" 16 (Rulepack.prewarm p);
    Rulepack.scanner p `Python
  in
  let samples = Corpus.Generator.all_samples () in
  check_bool "corpus is non-trivial" true (List.length samples > 500);
  let pairs =
    Experiments.Par.map_samples ~jobs
      (fun (s : Corpus.Generator.sample) ->
        (scan_fingerprint catalog s.code, scan_fingerprint packed s.code))
      samples
  in
  List.iteri
    (fun i (a, b) ->
      if a <> b then
        Alcotest.failf "sample %d diverges between catalog and warm pack:\n%s\n---\n%s"
          i a b)
    pairs

(* --- adversarial warm-section bytes ---------------------------------------

   Truncations and un-fixed bit flips anywhere fail the whole-pack
   checksum: typed [Error].  Flips *inside the warm section* with the
   trailer re-checksummed decode fine — the warm payload is one of the
   parts allowed to degrade: a flipped subject is replayed harmlessly,
   a flipped count degrades to no subjects, and neither changes a
   single scan result. *)

let refix_checksum bytes =
  let b = Bytes.of_string bytes in
  let dlen = Bytes.length b - 8 in
  Bytes.set_int64_le b dlen (Binio.hash64 ~len:dlen (Bytes.sub_string b 0 dlen));
  Bytes.to_string b

(* Walks the section table to find the warm section's payload window.
   Layout: magic(8) | version u32 | hash str(4+n) | nsections u8 |
   sections (tag u8, len u32, payload). *)
let warm_section_window bytes =
  let u32 p =
    Char.code bytes.[p]
    lor (Char.code bytes.[p + 1] lsl 8)
    lor (Char.code bytes.[p + 2] lsl 16)
    lor (Char.code bytes.[p + 3] lsl 24)
  in
  let p = ref (8 + 4) in
  let hash_len = u32 !p in
  p := !p + 4 + hash_len;
  let nsections = Char.code bytes.[!p] in
  incr p;
  let window = ref None in
  for _ = 1 to nsections do
    let tag = Char.code bytes.[!p] in
    let len = u32 (!p + 1) in
    if tag = 4 then window := Some (!p + 5, len);
    p := !p + 5 + len
  done;
  match !window with
  | Some w -> w
  | None -> Alcotest.fail "warm pack has no warm section"

let test_warm_truncations () =
  let b = Lazy.force warm_pack_bytes in
  let n = String.length b in
  let step = max 1 (n / 97) in
  let k = ref 0 in
  while !k < n do
    (match Rulepack.decode (String.sub b 0 !k) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "truncation at %d decoded to Ok" !k);
    k := !k + step
  done

let test_warm_section_flips () =
  let b = Lazy.force warm_pack_bytes in
  let off, len = warm_section_window b in
  let catalog = Patchitpy.Engine.default_scanner () in
  let reference = scan_fingerprint catalog sample_flask in
  check_bool "sample has findings" true (String.length reference > 0);
  let step = max 1 (len / 61) in
  let k = ref 0 in
  while !k < len do
    let flipped = Bytes.of_string b in
    Bytes.set flipped (off + !k)
      (Char.chr (Char.code (Bytes.get flipped (off + !k)) lxor 0x80));
    let forged = refix_checksum (Bytes.to_string flipped) in
    (match Rulepack.decode forged with
    | Error _ ->
      (* a flip that lands in the section length/tag can break pack
         structure — a typed error is an acceptable outcome *)
      ()
    | Ok p ->
      (* the first four bytes are the subject count (u32) *)
      if !k < 4 && p.Rulepack.warm_subjects <> [] then
        Alcotest.failf "flipped count at warm+%d still yields subjects" !k;
      let scanner = Rulepack.scanner p `Python in
      ignore (Rulepack.prewarm p : int);
      if scan_fingerprint scanner sample_flask <> reference then
        Alcotest.failf "flip at warm+%d changed scan results" !k);
    k := !k + step
  done

(* Packs written before replay subjects replaced transition tables
   carry format version 2: they must be refused as version skew, not
   misread as a version 3 warm section. *)
let test_version_2_is_skew () =
  let b = Bytes.of_string (Lazy.force warm_pack_bytes) in
  Bytes.set_int32_le b 8 2l;
  match Rulepack.decode (refix_checksum (Bytes.to_string b)) with
  | Error (Rulepack.Version_skew { found; expected }) ->
    check_int "found" 2 found;
    check_int "expected" Rulepack.format_version expected
  | Error e ->
    Alcotest.failf "wanted Version_skew, got %s" (Rulepack.error_to_string e)
  | Ok _ -> Alcotest.fail "version 2 pack decoded to Ok"

let () =
  Alcotest.run "warmstart"
    [
      ( "pack",
        [
          Alcotest.test_case "warm section info" `Quick test_warm_pack_info;
          Alcotest.test_case "cold pack carries no subjects" `Quick
            test_cold_pack_no_subjects;
        ] );
      ( "differential",
        [
          Alcotest.test_case "warm scan, jobs=1" `Slow (warm_differential ~jobs:1);
          Alcotest.test_case "warm scan, jobs=4" `Slow (warm_differential ~jobs:4);
        ] );
      ( "adversarial",
        [
          Alcotest.test_case "truncations" `Quick test_warm_truncations;
          Alcotest.test_case "warm-section bit flips" `Slow
            test_warm_section_flips;
          Alcotest.test_case "version 2 pack is version skew" `Quick
            test_version_2_is_skew;
        ] );
    ]
