(* Seeded workload inputs.  Everything is built from the 609 corpus
   samples and the seed alone, so the same seed gives byte-identical
   inputs on every machine. *)

module G = Corpus.Generator

type kind = Scan | Patch

let kind_name = function Scan -> "scan" | Patch -> "patch"

let corpus =
  lazy
    (Array.of_list
       (List.map (fun (s : G.sample) -> s.G.code) (G.all_samples ())))

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* --- batch-repo ------------------------------------------------------------- *)

let repo_file_count = 1024

(* Repository-sized files of 1..32 concatenated samples.  The sizes
   cycle through 1..32 an equal number of times (in seeded order), so
   every seed has the same size mix and only the contents vary. *)
let repo_files ~seed =
  let samples = Lazy.force corpus in
  let rng = Random.State.make [| seed; 1 |] in
  let sizes = shuffle rng (Array.init repo_file_count (fun i -> 1 + (i mod 32))) in
  Array.map
    (fun k ->
      String.concat "\n"
        (List.init k (fun _ ->
             samples.(Random.State.int rng (Array.length samples)))))
    sizes

let repo_file_label i = Printf.sprintf "repo/mod_%04d.py" i

(* --- serve traffic ---------------------------------------------------------- *)

(* Request [i] of a serve workload: a 3:1 scan:patch mix, fixed by the
   index so every seed has exactly the same mix. *)
let serve_kind i = if i mod 4 = 3 then Patch else Scan

(* serve-unique: every body is a distinct seeded sample.  Request [i]
   takes sample [perm (i mod 609)] and appends a comment naming the
   request, so its content hash is new while the findings are the
   sample's own. *)
let unique_body ~seed =
  let samples = Lazy.force corpus in
  let rng = Random.State.make [| seed; 2 |] in
  let perm = shuffle rng (Array.init (Array.length samples) Fun.id) in
  fun i ->
    samples.(perm.(i mod Array.length perm)) ^ Printf.sprintf "\n# request %d-%d\n" seed i

(* serve-dup: bodies drawn from 8 seeded samples, one from each size
   octile of the corpus, so the hit path serves a similar byte mix
   whatever the seed. *)
let dup_samples ~seed =
  let samples = Lazy.force corpus in
  let n = Array.length samples in
  let rng = Random.State.make [| seed; 3 |] in
  let by_size = Array.init n Fun.id in
  Array.stable_sort
    (fun a b -> compare (String.length samples.(a)) (String.length samples.(b)))
    by_size;
  Array.init 8 (fun b ->
      let lo = b * n / 8 and hi = (b + 1) * n / 8 in
      samples.(by_size.(lo + Random.State.int rng (hi - lo))))

let dup_body ~seed =
  let picks = dup_samples ~seed in
  fun i -> picks.(i / 4 mod 8)

(* A digest of everything a seed generates, for the determinism
   self-test: the repo files and the first 4096 bodies of each serve
   stream. *)
let digest ~seed =
  let b = Buffer.create (1 lsl 20) in
  Array.iter (Buffer.add_string b) (repo_files ~seed);
  let unique = unique_body ~seed and dup = dup_body ~seed in
  for i = 0 to 4095 do
    Buffer.add_string b (unique i);
    Buffer.add_string b (dup i)
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The boot probe's body: a sample no workload op sends. *)
let probe () = (Lazy.force corpus).(0) ^ "\n# boot probe\n"
