(* The traced run's per-layer numbers.  Every figure comes from timing
   calls into a module's public functions from here, over the
   workload's own inputs; nothing inside the library is instrumented.

   Timings are p50s (with p99s where a tail matters) in microseconds.
   "Self" is a layer's time minus the time of the layer it calls. *)

type ctx = {
  front : Wire.front option;  (* [None] for batch-repo *)
  pack_path : string;
  scans : string array;  (* bodies of the workload's scan ops (batch: its files) *)
  patches : string array;  (* bodies of its patch ops (batch: its files) *)
  stream : int -> string;
      (* body of op [i] of a fresh stream with the workload's repetition:
         distinct for serve-unique/-ndjson, 8 samples for serve-dup *)
}

let m name value = (name, value)

let load_pack path =
  match Rulepack.load ~path with
  | Ok p -> p
  | Error e -> failwith (Rulepack.error_to_string e)

(* Fresh load (fresh per-domain caches), prewarm, first scan: what a
   daemon worker or a one-shot CLI run pays before its first reply. *)
let boots ctx =
  let loads = ref [] and warms = ref [] and firsts = ref [] and last = ref None in
  for k = 0 to 6 do
    let t0 = Timing.now_ns () in
    let pack = load_pack ctx.pack_path in
    let t1 = Timing.now_ns () in
    ignore (Rulepack.prewarm pack : int);
    let t2 = Timing.now_ns () in
    let plan = Rulepack.scanner pack `Python in
    let source = ctx.scans.(k mod Array.length ctx.scans) in
    let t3 = Timing.now_ns () in
    ignore (Sys.opaque_identity (Patchitpy.Scanner.scan_with_warnings plan source));
    firsts := Timing.us_since t3 :: !firsts;
    loads := float_of_int (t1 - t0) /. 1e6 :: !loads;
    warms := float_of_int (t2 - t1) /. 1e6 :: !warms;
    last := Some pack
  done;
  ( Option.get !last,
    [
      m "rulepack.load_ms" (Timing.median !loads);
      m "rulepack.prewarm_ms" (Timing.median !warms);
      m "scanner.first_scan_us" (Timing.median !firsts);
    ] )

let count_flagged mask =
  let n = ref 0 in
  Bytes.iter (fun c -> if c <> '\000' then incr n) mask;
  !n

let scan_layers plan scans =
  let fused = Option.get (Patchitpy.Scanner.fused_machine plan) in
  let fused_p50, _ = Timing.time_each ~reps:3 scans (Rx.Fused.run fused) in
  let scan_p50, scan_p99 =
    Timing.time_each ~reps:3 scans (Patchitpy.Scanner.scan_with_warnings plan)
  in
  let flagged = ref 0 and confirmed = ref 0 in
  Array.iter
    (fun src ->
      flagged := !flagged + count_flagged (Rx.Fused.run fused src);
      let ids =
        List.sort_uniq compare
          (List.map
             (fun (f : Patchitpy.Scanner.finding) -> f.Patchitpy.Scanner.rule.Patchitpy.Rule.id)
             (Patchitpy.Scanner.scan plan src))
      in
      confirmed := !confirmed + List.length ids)
    scans;
  [
    m "rx.fused_pass_us" fused_p50;
    m "rx.fused_flagged_per_op" (float_of_int !flagged /. float_of_int (Array.length scans));
    m "scanner.scan_us" scan_p50;
    m "scanner.scan_p99_us" scan_p99;
    m "scanner.self_us" (scan_p50 -. fused_p50);
    m "scanner.confirm_yield"
      (if !flagged = 0 then 1.0 else float_of_int !confirmed /. float_of_int !flagged);
  ]

let patch_layers plan patches =
  let patch_p50, patch_p99 =
    Timing.time_each ~reps:2 patches (fun src -> Patchitpy.Patcher.patch ~scanner:plan src)
  in
  let scan_p50, _ = Timing.time_each ~reps:2 patches (Patchitpy.Scanner.scan_with_warnings plan) in
  let results = Array.map (fun src -> Patchitpy.Patcher.patch ~scanner:plan src) patches in
  let per_op f =
    float_of_int (Array.fold_left (fun acc r -> acc + f r) 0 results)
    /. float_of_int (Array.length results)
  in
  [
    m "patcher.patch_us" patch_p50;
    m "patcher.patch_p99_us" patch_p99;
    m "patcher.self_us" (patch_p50 -. scan_p50);
    m "patcher.rounds_per_op" (per_op (fun r -> r.Patchitpy.Patcher.rounds_used));
    m "patcher.applications_per_op"
      (per_op (fun r -> List.length r.Patchitpy.Patcher.applications));
    m "patcher.unconverged_frac"
      (per_op (fun r -> if r.Patchitpy.Patcher.converged then 0 else 1));
  ]

let json_layers plan scans patches =
  let scanned = Array.map (Patchitpy.Scanner.scan_with_warnings plan) scans in
  let patched = Array.map (fun src -> Patchitpy.Patcher.patch ~scanner:plan src) patches in
  let scan_json, _ =
    Timing.time_each ~reps:3 scanned (fun (findings, warnings) ->
        Patchitpy.Jsonout.findings_to_json ~warnings ~file:"-" findings)
  in
  let patch_json, _ =
    Timing.time_each ~reps:3 patched (Patchitpy.Jsonout.patch_to_json ~file:"-")
  in
  [ m "jsonout.scan_json_us" scan_json; m "jsonout.patch_json_us" patch_json ]

(* An in-process result cache with the daemon's budget, fed the
   workload's op stream: key every op, probe, insert on a miss. *)
let rcache_layers ~salt ctx responses =
  let cache =
    Server.Rcache.create ~max_bytes:Server.Serve.default_cache_bytes ~salt ()
  in
  let key body = Server.Rcache.key cache ~kind:"scan" ~file:"-" ~options:"" ~body in
  let keys = Timing.vec () and adds = Timing.vec () in
  let feed = 40_000 in
  for i = 0 to feed - 1 do
    let body = ctx.stream i in
    let t0 = Timing.now_ns () in
    let k = key body in
    Timing.push keys (Timing.us_since t0);
    if Server.Rcache.find cache k = None then begin
      let t1 = Timing.now_ns () in
      Server.Rcache.add cache k responses.(i mod Array.length responses);
      Timing.push adds (Timing.us_since t1)
    end
  done;
  let present = Array.init 256 (fun j -> key (ctx.stream (feed - 1 - j))) in
  let absent = Array.init 256 (fun j -> key (Printf.sprintf "%s\n# absent %d\n" ctx.scans.(0) j)) in
  let find_hit, _ = Timing.time_each ~reps:4 present (Server.Rcache.find cache) in
  let find_miss, _ = Timing.time_each ~reps:4 absent (Server.Rcache.find cache) in
  let p50 v = Timing.percentile (Timing.to_sorted v) 0.5 in
  [
    m "rcache.key_us" (p50 keys);
    m "rcache.find_hit_us" find_hit;
    m "rcache.find_miss_us" find_miss;
    m "rcache.add_us" (if adds.Timing.len = 0 then Float.nan else p50 adds);
  ]

let scan_request ~id source =
  { Server.Protocol.id; deadline_steps = None; kind = Server.Protocol.Scan { file = "-"; source } }

(* Submit one request and block until its delivery, the way the HTTP
   gateway waits on the pool. *)
let await pool req =
  let result = ref None in
  let mutex = Mutex.create () and cond = Condition.create () in
  Server.Pool.submit pool req ~deliver:(fun r ->
      Mutex.protect mutex (fun () ->
          result := Some r;
          Condition.signal cond));
  Mutex.protect mutex (fun () ->
      while !result = None do
        Condition.wait cond mutex
      done)

let make_pool ?rcache pack =
  Server.Pool.create ?rcache
    ~warm_boot:(fun () -> ignore (Rulepack.prewarm pack : int))
    ~jobs:1 ~queue_capacity:64 ~scanner:(Rulepack.scanner pack `Python) ()

let pool_layers pack scans =
  let pool = make_pool pack in
  let reqs = Array.mapi (fun i s -> scan_request ~id:(string_of_int i) s) scans in
  await pool reqs.(0);
  let execute, _ = Timing.time_each ~reps:3 reqs (Server.Pool.execute pool) in
  let rtt, rtt_p99 = Timing.time_each ~reps:3 reqs (await pool) in
  ignore (Server.Pool.shutdown pool : bool);
  [
    m "pool.execute_us" execute;
    m "pool.submit_rtt_us" rtt;
    m "pool.submit_rtt_p99_us" rtt_p99;
    m "pool.handoff_us" (rtt -. execute);
  ]

let codec_layers plan scans =
  let json =
    Array.map
      (fun s ->
        let findings, warnings = Patchitpy.Scanner.scan_with_warnings plan s in
        Patchitpy.Jsonout.findings_to_json ~warnings ~file:"-" findings)
      scans
  in
  let wires = Array.map (fun body -> Wire.http_post ~path:"/v1/scan" ~body) scans in
  let lines =
    Array.mapi
      (fun i body ->
        let l = Wire.ndjson_request ~id:(string_of_int i) Inputs.Scan body in
        String.sub l 0 (String.length l - 1))
      scans
  in
  let read_request, _ =
    Timing.time_each ~reps:3 wires (fun w -> Http.read_request (Http.conn_of_string w))
  in
  let response, _ =
    Timing.time_each ~reps:3 json (fun j ->
        Http.response ~headers:[ ("content-type", "application/json") ] ~status:200
          ~body:(j ^ "\n") ())
  in
  let decode, _ = Timing.time_each ~reps:3 lines Server.Protocol.decode_request in
  let encode, _ =
    Timing.time_each ~reps:3 json (fun body ->
        Server.Protocol.encode_response (Server.Protocol.Reply { id = "1"; kind = "scan"; body }))
  in
  [
    m "http.read_request_us" read_request;
    m "http.response_us" response;
    m "protocol.decode_us" decode;
    m "protocol.encode_us" encode;
  ]

(* A front end's whole in-process round trip: the real connection
   handler on one end of a socketpair, our client on the other, behind
   a pool with the daemon's result cache. *)
let socketpair_rtt ~salt pack ctx (front : Wire.front) =
  let rcache = Server.Rcache.create ~max_bytes:Server.Serve.default_cache_bytes ~salt () in
  let pool = make_pool ~rcache pack in
  let client, server = Unix.socketpair ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  let handler =
    match front with
    | Http ->
      let gw = Server.Gateway.create ~pool () in
      Thread.create (fun () -> Server.Gateway.handle_connection gw ~peer:"bench" server) ()
    | Ndjson ->
      Thread.create
        (fun () ->
          Server.Serve.connection_loop pool
            ~max_request_bytes:Server.Serve.default_max_request_bytes server)
        ()
  in
  let r = Wire.reader client in
  let exchange i =
    let body = ctx.stream (1_000_000 + i) in
    if Wire.exchange front client r ~id:(string_of_int i) Inputs.Scan body = None then
      failwith "socketpair exchange failed"
  in
  exchange (-1);
  let rtt = Timing.time_each (Array.init 1024 Fun.id) exchange in
  Unix.close client;
  Thread.join handler;
  ignore (Server.Pool.shutdown pool : bool);
  rtt

(* Every per-op layer figure of one workload, measured in this process
   with the daemon's telemetry sink and flight recorder on for the
   serve workloads (the daemon always runs with both). *)
let measure ctx =
  let pack, boot_metrics = boots ctx in
  let plan = Rulepack.scanner pack `Python in
  let salt = pack.Rulepack.catalog_hash in
  let serving = ctx.front <> None in
  if serving then begin
    Telemetry.install (Telemetry.create ());
    Telemetry.Trace.enable ()
  end;
  let responses =
    Array.map (fun s -> Checks.expected plan Inputs.Scan ~file:"-" s) ctx.scans
  in
  let gw, gw_p99 = socketpair_rtt ~salt pack ctx Http in
  let sv, sv_p99 = socketpair_rtt ~salt pack ctx Ndjson in
  let metrics =
    boot_metrics @ scan_layers plan ctx.scans @ patch_layers plan ctx.patches
    @ json_layers plan ctx.scans ctx.patches
    @ rcache_layers ~salt ctx responses
    @ pool_layers pack ctx.scans @ codec_layers plan ctx.scans
    @ [
        m "gateway.socketpair_rtt_us" gw;
        m "gateway.socketpair_rtt_p99_us" gw_p99;
        m "serve.socketpair_rtt_us" sv;
        m "serve.socketpair_rtt_p99_us" sv_p99;
      ]
  in
  if serving then begin
    Telemetry.Trace.disable ();
    Telemetry.uninstall ()
  end;
  let get k = List.assoc k metrics in
  let derived =
    [ m "pool.execute_self_us" (get "pool.execute_us" -. get "scanner.scan_us" -. get "jsonout.scan_json_us") ]
  in
  (* The in-process time of one op through this workload's front end:
     what the transport residual is measured against. *)
  let isolated =
    match ctx.front with
    | Some Http -> gw
    | Some Ndjson -> sv
    | None ->
      fst
        (Timing.time_each ctx.scans (fun src ->
             ignore (Checks.expected plan Inputs.Scan ~file:"-" src);
             Checks.expected plan Inputs.Patch ~file:"-" src))
  in
  (metrics @ derived, isolated)
