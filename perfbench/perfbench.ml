(* The repository benchmark.

     perfbench --workload NAME --seed N --seconds S --trace 0|1
     perfbench --self-test
     perfbench --describe

   Run from the root of a checkout after building (perfbench/run.sh
   does both).  The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}; the line before it
   is a report with the machine block, sample counts and the serve
   window's cache/RSS drift.  With --trace 0 the metrics are the
   end-to-end ones; with --trace 1 the same run is followed by the
   in-process per-layer measurements and the metrics are the layer
   ones.  Exit status 1 when any op or correctness check failed. *)

type better = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  better : better;
  moves : string;
      (* the end-to-end metric and workloads a change here should move *)
}

let metric name unit_ better moves = { name; unit_; better; moves }

let better_name = function Lower -> "lower" | Higher -> "higher"

let end_to_end =
  [
    metric "throughput_ops_s" "1/s" Higher "successful ops per second of the timed window";
    metric "latency_p50_us" "us" Lower "per-op latency, median";
    metric "latency_p90_us" "us" Lower "per-op latency, 90th percentile (p99, p99.9 and max are in the report)";
    metric "setup_s" "s" Lower
      "batch: pack load + prewarm in a fresh process; serve: daemon spawn to first scan reply (median of 11, one before each window segment)";
    metric "peak_rss_mb" "MB" Lower "VmHWM of the process doing the work";
    metric "ok_frac" "fraction" Higher
      "1 - error_frac: ops that succeeded and passed every correctness check";
  ]

let per_layer =
  [
    metric "rulepack.load_ms" "ms" Lower "setup_s, all workloads; steady state must not move";
    metric "rulepack.prewarm_ms" "ms" Lower "setup_s, all workloads; steady state must not move";
    metric "scanner.first_scan_us" "us" Lower "setup_s (first reply), all workloads";
    metric "rx.fused_pass_us" "us" Lower
      "throughput_ops_s on batch-repo; diluted latency_p50_us on serve-unique/-ndjson; not serve-dup";
    metric "rx.fused_flagged_per_op" "count" Lower "same as rx.fused_pass_us";
    metric "scanner.scan_us" "us" Lower "same as rx.fused_pass_us";
    metric "scanner.scan_p99_us" "us" Lower "latency_p90_us on batch-repo";
    metric "scanner.self_us" "us" Lower "same as rx.fused_pass_us (scan minus fused pass)";
    metric "scanner.confirm_yield" "ratio" Higher
      "same as rx.fused_pass_us (rules with a finding / rules flagged)";
    metric "patcher.patch_us" "us" Lower
      "throughput_ops_s on batch-repo; latency_p50_us on serve-unique/-ndjson";
    metric "patcher.patch_p99_us" "us" Lower "latency_p90_us on batch-repo and serve-unique/-ndjson";
    metric "patcher.self_us" "us" Lower "same as patcher.patch_us (patch minus scan)";
    metric "patcher.rounds_per_op" "count" Lower "same as patcher.patch_us";
    metric "patcher.applications_per_op" "count" Lower "same as patcher.patch_us";
    metric "patcher.unconverged_frac" "fraction" Lower "same as patcher.patch_us";
    metric "jsonout.scan_json_us" "us" Lower
      "latency_p50_us on serve-unique/-ndjson and batch-repo; not serve-dup";
    metric "jsonout.patch_json_us" "us" Lower
      "latency_p50_us on serve-unique/-ndjson and batch-repo; not serve-dup";
    metric "rcache.key_us" "us" Lower "throughput_ops_s and latency_p50_us on serve-dup";
    metric "rcache.find_hit_us" "us" Lower "throughput_ops_s and latency_p50_us on serve-dup";
    metric "rcache.find_miss_us" "us" Lower "latency_p50_us on serve-unique/-ndjson";
    metric "rcache.add_us" "us" Lower "throughput_ops_s and peak_rss_mb on serve-unique";
    metric "rcache.hit_ratio" "ratio" Higher
      "serve-dup throughput_ops_s (daemon /v1/stats over the window; 0 on batch-repo, which has no cache)";
    metric "rcache.evictions_per_kop" "1/kop" Lower "throughput_ops_s and peak_rss_mb on serve-unique";
    metric "pool.execute_us" "us" Lower "latency_p50_us on serve-unique/-ndjson";
    metric "pool.execute_self_us" "us" Lower
      "latency_p50_us on serve-unique/-ndjson (execute minus scan and scan JSON)";
    metric "pool.submit_rtt_us" "us" Lower "latency_p50_us on serve-unique/-ndjson";
    metric "pool.submit_rtt_p99_us" "us" Lower "latency_p90_us on serve-unique/-ndjson";
    metric "pool.handoff_us" "us" Lower
      "latency_p50_us on serve-unique/-ndjson; not serve-dup (hits skip the pool) or batch-repo";
    metric "http.read_request_us" "us" Lower "serve-dup most, then serve-unique; not serve-ndjson";
    metric "http.response_us" "us" Lower "serve-dup most, then serve-unique; not serve-ndjson";
    metric "gateway.socketpair_rtt_us" "us" Lower "latency_p50_us on serve-unique and serve-dup";
    metric "gateway.socketpair_rtt_p99_us" "us" Lower "latency_p90_us on serve-unique and serve-dup";
    metric "protocol.decode_us" "us" Lower "serve-ndjson only";
    metric "protocol.encode_us" "us" Lower "serve-ndjson only";
    metric "serve.socketpair_rtt_us" "us" Lower "latency_p50_us on serve-ndjson only";
    metric "serve.socketpair_rtt_p99_us" "us" Lower "latency_p90_us on serve-ndjson only";
    metric "transport.residual_us" "us" Lower
      "throughput_ops_s on the serve workloads (end-to-end p50 minus the in-process round trip)";
    metric "daemon.cpu_us_per_op" "us" Lower
      "throughput_ops_s on the serve workloads (daemon utime+stime / ops; batch-repo: own process)";
    metric "ladder.e2e_p50_us" "us" Lower "the ladder's base: end-to-end p50 of scan ops (batch-repo: file ops)";
    metric "ladder.sum_us" "us" Lower "sum of the self times on the workload's ladder";
    metric "ladder.residual_frac" "fraction" Lower
      "1 - ladder.sum_us / ladder.e2e_p50_us: the layers-add-up check, all workloads";
    metric "window.cache_entries_start" "count" Lower "cache-fill drift over the timed window";
    metric "window.cache_entries_end" "count" Lower "cache-fill drift over the timed window";
    metric "window.cache_mb_start" "MB" Lower "cache-fill drift over the timed window";
    metric "window.cache_mb_end" "MB" Lower "cache-fill drift over the timed window";
    metric "window.evictions" "count" Lower "cache evictions during the timed window";
    metric "window.rss_mb_start" "MB" Lower "RSS of the working process at window start";
    metric "window.rss_mb_end" "MB" Lower "RSS of the working process at window end";
  ]

(* --- workloads ----------------------------------------------------------------- *)

(* BENCHMARK.json's regression check runs batch-repo and serve-dup;
   README.md says why serve-unique and serve-ndjson run by name only. *)
type workload = Batch_repo | Serve_unique | Serve_dup | Serve_ndjson

let workloads =
  [
    ("batch-repo", Batch_repo);
    ("serve-unique", Serve_unique);
    ("serve-dup", Serve_dup);
    ("serve-ndjson", Serve_ndjson);
  ]

let daemon_exe = "_build/default/bin/patchitpy_cli.exe"
let clients = 2
(* The timed window is split into [segments] equal parts, each preceded
   by one set-up boot, so the set-up samples are spread over the run as
   the window is: the host's speed drifts by tens of percent over
   seconds, and a slow spell then moves both alike. *)
let segments = 11
let keep_every = 61  (* every 61st window op keeps its payload for checking *)

type window = {
  ops : int;  (* attempted *)
  failed : int;
  elapsed_s : float;
  lat : Timing.vec;  (* successful ops, us *)
  scan_lat : Timing.vec;  (* successful scan ops (batch: every file op), us *)
  kept : (int * Inputs.kind * string) list;
  next : int;  (* first op index after the window *)
  rates : float list;  (* successful ops per second of each segment *)
}

let merge_vec dst src =
  for i = 0 to src.Timing.len - 1 do
    Timing.push dst src.Timing.data.(i)
  done

let window ~ops ~failed ~elapsed_s ~lat ~scan_lat ~kept ~next =
  { ops; failed; elapsed_s; lat; scan_lat; kept; next; rates = [ float_of_int lat.Timing.len /. elapsed_s ] }

(* The segments of one window, in order, as one window. *)
let concat_windows ws =
  let lat = Timing.vec () and scan_lat = Timing.vec () in
  List.iter
    (fun w ->
      merge_vec lat w.lat;
      merge_vec scan_lat w.scan_lat)
    ws;
  let sum f = List.fold_left (fun acc w -> acc + f w) 0 ws in
  {
    ops = sum (fun w -> w.ops);
    failed = sum (fun w -> w.failed);
    elapsed_s = List.fold_left (fun acc w -> acc +. w.elapsed_s) 0.0 ws;
    lat;
    scan_lat;
    kept = List.concat_map (fun w -> w.kept) ws;
    next = (List.nth ws (List.length ws - 1)).next;
    rates = List.concat_map (fun w -> w.rates) ws;
  }

(* The timed window: [segments] segments of [segment ~seconds ~first],
   op indices running on from [first], each preceded by [boot k] (k from
   0), which returns one set-up time.  Returns the set-up times and the
   window. *)
let segmented ~seconds ~first ~boot ~segment =
  let rec go k first setups ws =
    if k = segments then (List.rev setups, concat_windows (List.rev ws))
    else
      let s = boot k in
      let w = segment ~seconds:(seconds /. float_of_int segments) ~first in
      go (k + 1) w.next (s :: setups) (w :: ws)
  in
  go 0 first [] []

(* [clients] threads, each with its own persistent connection, each
   sending its next request only once the previous reply is in. *)
let closed_loop ~seconds ~first ~connect ~exchange ~kind_of =
  let next = Atomic.make first in
  let t_start = Timing.now_ns () in
  let deadline = t_start + int_of_float (seconds *. 1e9) in
  let client () =
    let lat = Timing.vec () and scan_lat = Timing.vec () in
    let kept = ref [] and ops = ref 0 and failed = ref 0 in
    let conn = ref None in
    let drop () =
      Option.iter (fun (fd, _) -> try Unix.close fd with Unix.Unix_error _ -> ()) !conn;
      conn := None
    in
    while Timing.now_ns () < deadline do
      let i = Atomic.fetch_and_add next 1 in
      incr ops;
      let t0 = Timing.now_ns () in
      let reply =
        try
          let fd, r =
            match !conn with
            | Some c -> c
            | None ->
              let fd = connect () in
              conn := Some (fd, Wire.reader fd);
              Option.get !conn
          in
          exchange fd r i
        with _ -> None
      in
      let t1 = Timing.now_ns () in
      let dt = float_of_int (t1 - t0) /. 1e3 in
      match reply with
      | Some body ->
        Timing.push lat dt;
        if kind_of i = Inputs.Scan then Timing.push scan_lat dt;
        if i mod keep_every = 0 then kept := (i, kind_of i, body) :: !kept
      | None ->
        incr failed;
        drop ()
    done;
    drop ();
    (lat, scan_lat, !kept, !ops, !failed)
  in
  let results = Array.make clients None in
  let threads =
    Array.init clients (fun k -> Thread.create (fun () -> results.(k) <- Some (client ())) ())
  in
  Array.iter Thread.join threads;
  let elapsed_s = float_of_int (Timing.now_ns () - t_start) /. 1e9 in
  let lat = Timing.vec () and scan_lat = Timing.vec () in
  let kept = ref [] and ops = ref 0 and failed = ref 0 in
  Array.iter
    (function
      | None ->
        incr ops;
        incr failed
      | Some (l, s, k, o, f) ->
        merge_vec lat l;
        merge_vec scan_lat s;
        kept := k @ !kept;
        ops := !ops + o;
        failed := !failed + f)
    results;
  window ~ops:!ops ~failed:!failed ~elapsed_s ~lat ~scan_lat ~kept:!kept ~next:(Atomic.get next)

(* --- one run ------------------------------------------------------------------- *)

type outcome = {
  metrics : (string * float) list;  (* in registry order *)
  attempted : int;
  failed : int;
  notes : string list;
  report : (string * string) list;  (* JSON fields of the report line *)
}

let load_pack path =
  match Rulepack.load ~path with
  | Ok p -> p
  | Error e -> failwith (Rulepack.error_to_string e)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (EEXIST, _, _) -> ()
  end

let remove_tree dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ()) (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

(* A fixed-work byte loop: reported with every run so figures from
   different machines can be put side by side.  Never gated. *)
let calibration_ms () =
  let b = Bytes.init (1 lsl 20) (fun i -> Char.chr (i land 255)) in
  Timing.median
    (List.init 5 (fun _ ->
         let t0 = Timing.now_ns () in
         let acc = ref 0 in
         for _ = 1 to 8 do
           for i = 0 to Bytes.length b - 1 do
             acc := (!acc * 31) + Char.code (Bytes.unsafe_get b i)
           done
         done;
         ignore (Sys.opaque_identity !acc);
         float_of_int (Timing.now_ns () - t0) /. 1e6))

let p50 v = Timing.percentile (Timing.to_sorted v) 0.5

let file_op plan ~file src =
  let findings, warnings = Patchitpy.Scanner.scan_with_warnings plan src in
  let scan_json = Patchitpy.Jsonout.findings_to_json ~warnings ~file findings in
  let patch_json =
    Patchitpy.Jsonout.patch_to_json ~file (Patchitpy.Patcher.patch ~scanner:plan src)
  in
  (scan_json, patch_json)

(* What a run measured, before it is turned into the metric list. *)
type measured = {
  w : window;
  warm_ops : int;  (* ops before the window (cache fill, warm-up): attempted, not timed *)
  warm_failed : int;
  setups : float list;  (* every boot's set-up time, s *)
  peak_rss_mb : float;
  cpu_s : float;  (* of the working process over the window *)
  cache0 : Daemon.cache option;
  cache1 : Daemon.cache option;
  rss0 : float;
  rss1 : float;
}

let no_cache = { Daemon.hits = 0; misses = 0; evictions = 0; entries = 0; bytes = 0 }

let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Rule-pack load + prewarm, the batch set-up, in seconds. *)
let boot pack_path =
  let t0 = Timing.now_ns () in
  ignore (Rulepack.prewarm (load_pack pack_path) : int);
  float_of_int (Timing.now_ns () - t0) /. 1e9

(* [boot] in a child process of this executable (its --boot-probe
   mode), which prints the figure and exits. *)
let boot_in_child pack_path =
  let ic = Unix.open_process_args_in Sys.executable_name [| Sys.executable_name; "--boot-probe"; pack_path |] in
  let line = In_channel.input_line ic in
  match (Unix.close_process_in ic, line) with
  | WEXITED 0, Some l -> float_of_string (String.trim l)
  | _ -> failwith "perfbench: set-up boot probe failed"

(* batch-repo: the CLI's per-file path in this process, on one domain. *)
let run_batch ~seconds ~pack_path ~pack ~checks ~files =
  let n = Array.length files in
  let plan = Rulepack.scanner pack `Python in
  (* The invariant pass doubles as the warm-up: every file is scanned
     and patched once before the window opens. *)
  Array.iteri
    (fun i src -> Checks.patch_invariants checks plan ~label:(Inputs.repo_file_label i) src)
    files;
  Timing.reset_hwm ();
  let rss0 = Timing.rss_mb "self" and cpu0 = self_cpu_s () in
  let segment ~seconds ~first =
    let lat = Timing.vec () and kept = ref [] and failed = ref 0 and ops = ref 0 in
    let t_start = Timing.now_ns () in
    let deadline = t_start + int_of_float (seconds *. 1e9) in
    while Timing.now_ns () < deadline do
      let i = first + !ops in
      incr ops;
      let t0 = Timing.now_ns () in
      match file_op plan ~file:(Inputs.repo_file_label (i mod n)) files.(i mod n) with
      | scan_json, patch_json ->
        Timing.push lat (Timing.us_since t0);
        if i mod keep_every = 0 then
          kept := (i, Inputs.Scan, scan_json) :: (i, Inputs.Patch, patch_json) :: !kept
      | exception _ -> incr failed
    done;
    let elapsed_s = float_of_int (Timing.now_ns () - t_start) /. 1e9 in
    window ~ops:!ops ~failed:!failed ~elapsed_s ~lat ~scan_lat:lat ~kept:!kept ~next:(first + !ops)
  in
  (* Each set-up boot runs in a fresh process, as a CLI run would: a
     pack loaded in this process stays reachable from the rx caches, so
     in-process boots would leave the window running in a heap several
     times the size of one load. *)
  let setups, w = segmented ~seconds ~first:0 ~boot:(fun _ -> boot_in_child pack_path) ~segment in
  let measured =
    {
      w;
      warm_ops = 0;
      warm_failed = 0;
      setups;
      peak_rss_mb = Timing.hwm_mb "self";
      cpu_s = self_cpu_s () -. cpu0;
      cache0 = None;
      cache1 = None;
      rss0;
      rss1 = Timing.rss_mb "self";
    }
  in
  Checks.bodies checks w.kept ~expect:(fun i kind ->
      Checks.expected plan kind ~file:(Inputs.repo_file_label (i mod n)) files.(i mod n));
  measured

(* Fills the daemon's result cache to its budget with scans of the
   workload's own next bodies until it starts evicting, so the timed
   window measures the cache-full steady state however fast the
   machine fills it.  Scans are the cheapest entries to make.  The ops
   are pipelined [depth] deep on [clients] NDJSON connections, the
   front end that queues a connection's requests without waiting on
   each reply (the cache is shared by both front ends; the HTTP
   gateway answers one request per connection at a time).  Returns the
   next op index, ops sent and ops failed. *)
let prefill d ~first ~body =
  let depth = 16 and check_every = 4096 and give_up = Unix.gettimeofday () +. 120.0 in
  let conns =
    List.init clients (fun _ ->
        let fd = Daemon.connect d Wire.Ndjson in
        (fd, Wire.reader fd))
  in
  let next = ref first and failed = ref 0 in
  let round () =
    let batches =
      List.map
        (fun (fd, r) ->
          let ops = List.init depth (fun k -> !next + k) in
          next := !next + depth;
          Wire.send fd
            (String.concat ""
               (List.map (fun i -> Wire.request Ndjson ~id:(string_of_int i) Inputs.Scan (body i)) ops));
          (r, ops))
        conns
    in
    (* One worker domain answers a connection's requests in order. *)
    List.iter
      (fun (r, ops) ->
        List.iter
          (fun i ->
            if Wire.reply Ndjson r ~id:(string_of_int i) Inputs.Scan = None then incr failed)
          ops)
      batches
  in
  let rec fill since_check =
    if since_check < check_every then begin
      match round () with
      | () -> fill (since_check + (depth * clients))
      | exception (End_of_file | Unix.Unix_error _ | Failure _) -> incr failed
    end
    else if (Daemon.cache_stats d).Daemon.evictions = 0 && Unix.gettimeofday () < give_up then
      fill 0
  in
  fill 0;
  List.iter (fun (fd, _) -> Unix.close fd) conns;
  (!next, !next - first, !failed)

(* The serve workloads: the real daemon, closed loops of [clients];
   with [fill], the window starts from a full result cache. *)
let run_serve ~seconds ~pack_path ~dir ~checks ~front ~body ~fill =
  let probe = Inputs.probe () in
  let boot socket = Daemon.boot ~exe:daemon_exe ~pack:pack_path ~socket:(Filename.concat dir socket) ~probe front in
  (* The daemon that serves the workload gives the first set-up time;
     before each later window segment another daemon is booted beside
     it, timed, and stopped. *)
  let d, setup0 = boot "d.sock" in
  let boot_beside = function
    | 0 -> setup0
    | _ ->
      let d', s = boot "b.sock" in
      Daemon.stop d';
      s
  in
  let kind_of = Inputs.serve_kind in
  let exchange fd r i = Wire.exchange front fd r ~id:(string_of_int i) (kind_of i) (body i) in
  let connect () = Daemon.connect d front in
  let first, fill_ops, fill_failed =
    if fill then prefill d ~first:0 ~body else (0, 0, 0)
  in
  let warm =
    closed_loop ~seconds:(Float.min 1.0 (seconds /. 4.0)) ~first ~connect ~exchange ~kind_of
  in
  let cache0 = Daemon.cache_stats d and rss0 = Daemon.rss_mb d and cpu0 = Daemon.cpu_s d in
  let setups, w =
    segmented ~seconds ~first:warm.next ~boot:boot_beside ~segment:(closed_loop ~connect ~exchange ~kind_of)
  in
  let cache1 = Daemon.cache_stats d and rss1 = Daemon.rss_mb d and cpu1 = Daemon.cpu_s d in
  let peak = Daemon.hwm_mb d in
  Daemon.stop d;
  let plan = Rulepack.scanner (load_pack pack_path) `Python in
  Checks.bodies checks w.kept ~expect:(fun i kind -> Checks.expected plan kind ~file:"-" (body i));
  List.iter
    (fun (i, kind, _) ->
      if kind = Inputs.Patch then Checks.patch_invariants checks plan ~label:(Printf.sprintf "op %d" i) (body i))
    w.kept;
  {
    w;
    warm_ops = fill_ops + warm.ops;
    warm_failed = fill_failed + warm.failed;
    setups;
    peak_rss_mb = peak;
    cpu_s = cpu1 -. cpu0;
    cache0 = Some cache0;
    cache1 = Some cache1;
    rss0;
    rss1;
  }

(* --- metrics ------------------------------------------------------------------- *)

(* Successful ops over the whole window: the host's speed swings in
   spells of seconds, which a mean over the window averages and a
   median of per-second counts would not. *)
let throughput w = float_of_int w.lat.Timing.len /. w.elapsed_s

(* The layers an op of each workload crosses, in order; their sum
   against the end-to-end p50 is the ladder's residual.  The serve
   ladders follow a scan op, the workload's majority kind. *)
let ladder_of workload =
  let miss ~decode ~encode =
    [ decode; "rcache.key_us"; "rcache.find_miss_us"; "pool.handoff_us"; "rx.fused_pass_us";
      "scanner.self_us"; "jsonout.scan_json_us"; "pool.execute_self_us"; "rcache.add_us"; encode;
      "transport.residual_us" ]
  in
  match workload with
  | Batch_repo ->
    [ "rx.fused_pass_us"; "scanner.self_us"; "jsonout.scan_json_us"; "patcher.patch_us";
      "jsonout.patch_json_us" ]
  | Serve_unique -> miss ~decode:"http.read_request_us" ~encode:"http.response_us"
  | Serve_ndjson -> miss ~decode:"protocol.decode_us" ~encode:"protocol.encode_us"
  | Serve_dup ->
    [ "http.read_request_us"; "rcache.key_us"; "rcache.find_hit_us"; "http.response_us";
      "transport.residual_us" ]

let layer_values ~workload ctx m =
  let layers, isolated = Layers.measure ctx in
  let e2e = p50 m.w.scan_lat in
  let c0 = Option.value m.cache0 ~default:no_cache
  and c1 = Option.value m.cache1 ~default:no_cache in
  let hits = c1.Daemon.hits - c0.Daemon.hits and misses = c1.Daemon.misses - c0.Daemon.misses in
  let evictions = c1.Daemon.evictions - c0.Daemon.evictions in
  let mb bytes = float_of_int bytes /. 1048576.0 in
  let values =
    layers
    @ [
        ("transport.residual_us", e2e -. isolated);
        ("daemon.cpu_us_per_op", m.cpu_s *. 1e6 /. float_of_int m.w.ops);
        ("rcache.hit_ratio", if hits + misses = 0 then 0.0 else float_of_int hits /. float_of_int (hits + misses));
        ("rcache.evictions_per_kop", float_of_int evictions *. 1000.0 /. float_of_int m.w.ops);
        ("window.cache_entries_start", float_of_int c0.Daemon.entries);
        ("window.cache_entries_end", float_of_int c1.Daemon.entries);
        ("window.cache_mb_start", mb c0.Daemon.bytes);
        ("window.cache_mb_end", mb c1.Daemon.bytes);
        ("window.evictions", float_of_int evictions);
        ("window.rss_mb_start", m.rss0);
        ("window.rss_mb_end", m.rss1);
      ]
  in
  let sum = List.fold_left (fun acc k -> acc +. List.assoc k values) 0.0 (ladder_of workload) in
  values
  @ [
      ("ladder.e2e_p50_us", e2e);
      ("ladder.sum_us", sum);
      ("ladder.residual_frac", 1.0 -. (sum /. e2e));
    ]

(* Serve-workload inputs for the traced run's in-process layers: the
   bodies of the first 512 ops, split by kind. *)
let serve_ctx ~pack_path ~front ~body =
  let of_kind k =
    Array.of_list
      (List.filter_map
         (fun i -> if Inputs.serve_kind i = k then Some (body i) else None)
         (List.init 512 Fun.id))
  in
  {
    Layers.front = Some front;
    pack_path;
    scans = of_kind Inputs.Scan;
    patches = of_kind Inputs.Patch;
    stream = body;
  }

let run ~workload ~seed ~seconds ~trace =
  let dir = Printf.sprintf "_perfbench/run-%d" (Unix.getpid ()) in
  mkdir_p dir;
  Fun.protect
    ~finally:(fun () ->
      remove_tree dir;
      try Unix.rmdir "_perfbench" with Unix.Unix_error _ -> ())
    (fun () ->
      (* The warm pack the daemon and the batch path load, built from
         source exactly as [rules pack --warm] does. *)
      let pack_path = Filename.concat dir "warm.pack" in
      let fingerprint =
        let pack = Rulepack.create () in
        Rulepack.save
          ~warm:(Rulepack.collect_warm ~corpus:(Array.to_list (Lazy.force Inputs.corpus)) pack)
          ~path:pack_path pack;
        pack.Rulepack.catalog_hash
      in
      (* The one pack this process loads before the window. *)
      let pack = load_pack pack_path in
      let checks = Checks.tally () in
      Checks.detection checks (Rulepack.scanner pack `Python);
      let serve ?(fill = true) front body =
        ( run_serve ~seconds ~pack_path ~dir ~checks ~front ~body ~fill,
          serve_ctx ~pack_path ~front ~body )
      in
      let m, ctx =
        match workload with
        | Batch_repo ->
          let files = Inputs.repo_files ~seed in
          ( run_batch ~seconds ~pack_path ~pack ~checks ~files,
            {
              Layers.front = None;
              pack_path;
              scans = files;
              patches = files;
              stream = (fun i -> files.(i mod Array.length files));
            } )
        | Serve_unique -> serve Wire.Http (Inputs.unique_body ~seed)
        | Serve_dup -> serve ~fill:false Wire.Http (Inputs.dup_body ~seed)
        | Serve_ndjson -> serve Wire.Ndjson (Inputs.unique_body ~seed)
      in
      let attempted = m.w.ops + m.warm_ops in
      let failed = min attempted (m.w.failed + m.warm_failed + checks.Checks.failed) in
      let values =
        if trace then layer_values ~workload ctx m
        else
          [
            ("throughput_ops_s", throughput m.w);
            ("latency_p50_us", p50 m.w.lat);
            ("latency_p90_us", Timing.percentile (Timing.to_sorted m.w.lat) 0.9);
            ("setup_s", Timing.median m.setups);
            ("peak_rss_mb", m.peak_rss_mb);
            ("ok_frac", 1.0 -. (float_of_int failed /. float_of_int (max 1 attempted)));
          ]
      in
      let registry = if trace then per_layer else end_to_end in
      let cache_json = function
        | None -> "null"
        | Some c ->
          Printf.sprintf "{\"entries\":%d,\"bytes\":%d,\"evictions\":%d,\"hits\":%d,\"misses\":%d}"
            c.Daemon.entries c.Daemon.bytes c.Daemon.evictions c.Daemon.hits c.Daemon.misses
      in
      {
        metrics = List.map (fun r -> (r.name, List.assoc r.name values)) registry;
        attempted;
        failed;
        notes = List.rev checks.Checks.notes;
        report =
          [
            ( "machine",
              Printf.sprintf "{\"nproc\":%d,\"ocaml\":\"%s\",\"pack\":\"%s\",\"calibration_ms\":%.4f}"
                (Domain.recommended_domain_count ()) Sys.ocaml_version fingerprint
                (calibration_ms ()) );
            ( "samples",
              Printf.sprintf
                "{\"window_ops\":%d,\"warmup_ops\":%d,\"latency\":%d,\"scan_latency\":%d,\"checks\":%d,\"elapsed_s\":%.4f,\"segment_ops_s\":[%s],\"setup_s\":[%s]}"
                m.w.ops m.warm_ops m.w.lat.Timing.len m.w.scan_lat.Timing.len checks.Checks.run m.w.elapsed_s
                (String.concat "," (List.map (Printf.sprintf "%.1f") m.w.rates))
                (String.concat "," (List.map (Printf.sprintf "%.4f") m.setups)) );
            ( "latency_us",
              let s = Timing.to_sorted m.w.lat in
              "{"
              ^ String.concat ","
                  (List.map
                     (fun (label, q) -> Printf.sprintf "\"%s\":%.1f" label (Timing.percentile s q))
                     [ ("p50", 0.5); ("p90", 0.9); ("p99", 0.99); ("p99.9", 0.999); ("max", 1.0) ])
              ^ "}" );
            ( "window",
              Printf.sprintf "{\"cache_start\":%s,\"cache_end\":%s,\"rss_mb_start\":%.3f,\"rss_mb_end\":%.3f}"
                (cache_json m.cache0) (cache_json m.cache1) m.rss0 m.rss1 );
          ];
      })

(* --- output -------------------------------------------------------------------- *)

let json_string s = "\"" ^ Patchitpy.Jsonout.escape_string s ^ "\""

let json_number v = if Float.is_finite v then Printf.sprintf "%.10g" v else "null"

let unit_of name =
  (List.find (fun r -> r.name = name) (end_to_end @ per_layer)).unit_

let print_outcome ~workload ~seed ~seconds ~trace o =
  Printf.printf "{\"perfbench\":\"report\",\"workload\":%s,\"seed\":%d,\"seconds\":%g,\"trace\":%d,%s,\"failures\":[%s]}\n"
    (json_string workload) seed seconds (if trace then 1 else 0)
    (String.concat "," (List.map (fun (k, v) -> json_string k ^ ":" ^ v) o.report))
    (String.concat "," (List.map json_string o.notes));
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!" (o.failed = 0)
    o.attempted o.failed
    (String.concat ","
       (List.map
          (fun (name, v) ->
            Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (json_string name) (json_number v)
              (json_string (unit_of name)))
          o.metrics))

let describe () =
  let line kind r =
    Printf.printf "{\"kind\":\"%s\",\"name\":%s,\"unit\":%s,\"better\":\"%s\",\"moves\":%s}\n" kind
      (json_string r.name) (json_string r.unit_)
      (better_name r.better)
      (json_string r.moves)
  in
  List.iter (line "end_to_end") end_to_end;
  List.iter (line "per_layer") per_layer

(* --- self-test ----------------------------------------------------------------- *)

let contains hay needle =
  let n = String.length needle in
  let rec at i = i + n <= String.length hay && (String.sub hay i n = needle || at (i + 1)) in
  at 0

let self_test () =
  let failures = ref [] in
  let expect ok what =
    Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") what;
    if not ok then failures := what :: !failures
  in
  expect (Inputs.digest ~seed:1 = Inputs.digest ~seed:1) "the same seed generates byte-identical inputs";
  expect (Inputs.digest ~seed:1 <> Inputs.digest ~seed:2) "another seed generates other inputs";
  let plan = Rulepack.scanner (Rulepack.create ()) `Python in
  let src = Inputs.probe () in
  let body = Checks.expected plan Inputs.Patch ~file:"-" src in
  let corrupt =
    String.mapi (fun i c -> if i = String.length body / 2 then Char.chr (Char.code c lxor 1) else c) body
  in
  let tally expect_body =
    let t = Checks.tally () in
    Checks.bodies t [ (0, Inputs.Patch, body) ] ~expect:(fun _ _ -> expect_body);
    t.Checks.failed
  in
  expect (tally body = 0) "a served body equal to the in-process output passes the check";
  expect (tally corrupt = 1) "a corrupted expected body trips the check";
  let spec = try Timing.read_file "BENCHMARK.json" with Sys_error _ -> "" in
  List.iter
    (fun r ->
      expect
        (contains spec
           (Printf.sprintf "\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\"" r.name r.unit_
              (better_name r.better)))
        (Printf.sprintf "BENCHMARK.json lists %s in %s, %s is better" r.name r.unit_ (better_name r.better)))
    (end_to_end @ per_layer);
  List.iter
    (fun (name, workload) ->
      List.iter
        (fun trace ->
          let o = run ~workload ~seed:1 ~seconds:0.5 ~trace in
          let registry = if trace then per_layer else end_to_end in
          let mode = if trace then "traced" else "end-to-end" in
          expect
            (List.map fst o.metrics = List.map (fun r -> r.name) registry)
            (Printf.sprintf "%s %s run reports every %s metric" name mode mode);
          expect
            (List.for_all (fun (_, v) -> Float.is_finite v) o.metrics)
            (Printf.sprintf "%s %s run reports finite values" name mode);
          expect (o.failed = 0 && o.attempted > 0)
            (Printf.sprintf "%s %s run: %d ops, %d failed" name mode o.attempted o.failed))
        [ false; true ])
    workloads;
  if !failures = [] then 0 else 1

(* --- entry point --------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let mode = ref `Run in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " (List.map fst workloads));
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or per-layer metrics (1)");
      ("--self-test", Arg.Unit (fun () -> mode := `Self_test), " short runs of every workload plus checks of the checks");
      ("--describe", Arg.Unit (fun () -> mode := `Describe), " print the metric registry");
      ( "--boot-probe",
        Arg.String (fun p -> mode := `Boot_probe p),
        "PACK load and prewarm PACK, print the seconds taken (batch-repo set-up)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  match !mode with
  | `Describe -> describe ()
  | `Boot_probe pack_path -> Printf.printf "%.9f\n" (boot pack_path)
  | `Self_test -> exit (self_test ())
  | `Run -> (
    match List.assoc_opt !workload workloads with
    | None ->
      prerr_endline ("perfbench: unknown workload " ^ !workload);
      exit 2
    | Some w ->
      if !trace <> 0 && !trace <> 1 then begin
        prerr_endline "perfbench: --trace must be 0 or 1";
        exit 2
      end;
      let trace = !trace = 1 in
      let o = run ~workload:w ~seed:!seed ~seconds:!seconds ~trace in
      print_outcome ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace o;
      exit (if o.failed = 0 then 0 else 1))
