(* The real [patchitpy serve] daemon as a child process: spawn, boot
   timing, /v1/stats readings, /proc readings, shutdown. *)

type t = {
  pid : int;
  port : int;  (* HTTP gateway on loopback *)
  socket : string;  (* NDJSON Unix socket, relative to the checkout *)
}

(* A loopback port nothing listens on right now.  The daemon binds it a
   moment later; a lost race shows up as a boot failure. *)
let free_port () =
  let fd = Unix.socket ~cloexec:true PF_INET SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.bind fd (ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname fd with
      | ADDR_INET (_, p) -> p
      | ADDR_UNIX _ -> failwith "free_port")

let live : int list ref = ref []

let spawn ~exe ~pack ~socket =
  let port = free_port () in
  let stdin_r, stdin_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe
      [|
        exe; "serve"; "--jobs"; "1"; "--rule-pack"; pack; "--http";
        string_of_int port; "--socket"; socket;
      |]
      stdin_r Unix.stderr Unix.stderr
  in
  Unix.close stdin_r;
  Unix.close stdin_w;
  live := pid :: !live;
  { pid; port; socket }

let exited t =
  match Unix.waitpid [ WNOHANG ] t.pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (ECHILD, _, _) -> true

(* SIGTERM starts the daemon's graceful drain; wait for it to exit. *)
let stop_pid pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  live := List.filter (( <> ) pid) !live

let stop t = stop_pid t.pid

(* Stop whatever is still running when the benchmark exits early. *)
let () = at_exit (fun () -> List.iter stop_pid !live)

let connect t : Wire.front -> Unix.file_descr = function
  | Http -> Wire.connect_tcp t.port
  | Ndjson -> Wire.connect_unix t.socket

(* Retries until the listener is up; the daemon binds its socket and
   port only after loading the pack. *)
let rec connect_when_up ~deadline t front =
  match connect t front with
  | fd -> fd
  | exception Unix.Unix_error ((ECONNREFUSED | ENOENT), _, _) ->
    if exited t then failwith "daemon exited during boot";
    if Unix.gettimeofday () > deadline then failwith "daemon boot timed out";
    Unix.sleepf 0.0005;
    connect_when_up ~deadline t front

exception Boot_failed of string

(* Spawn and wait for the first scan reply over [front]; returns the
   daemon and the seconds from spawn to that reply.  A daemon that dies
   before answering (another process took the port between
   [free_port] and its bind) is retried on a new port. *)
let rec boot ?(attempts = 3) ~exe ~pack ~socket ~probe front =
  let t0 = Timing.now_ns () in
  let t = spawn ~exe ~pack ~socket in
  match
    let fd = connect_when_up ~deadline:(Unix.gettimeofday () +. 30.0) t front in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> Wire.exchange front fd (Wire.reader fd) ~id:"boot" Inputs.Scan probe)
  with
  | Some _ -> (t, float_of_int (Timing.now_ns () - t0) /. 1e9)
  | None ->
    stop t;
    raise (Boot_failed "daemon answered the boot probe with an error")
  | exception Failure msg ->
    stop t;
    if attempts > 1 then boot ~attempts:(attempts - 1) ~exe ~pack ~socket ~probe front
    else raise (Boot_failed msg)

(* --- observation -------------------------------------------------------------- *)

type cache = { hits : int; misses : int; evictions : int; entries : int; bytes : int }

(* Offset just past the first [pat] in [doc] at or after [from]. *)
let after doc ~from pat =
  let m = String.length pat in
  let rec locate i =
    if i + m > String.length doc then failwith ("stats document lacks " ^ pat)
    else if String.sub doc i m = pat then i + m
    else locate (i + 1)
  in
  locate from

(* The integer after ["key":] at or after [from] in a JSON document. *)
let json_int doc ~from key =
  let start = after doc ~from ("\"" ^ key ^ "\":") in
  let stop = ref start in
  while !stop < String.length doc && doc.[!stop] >= '0' && doc.[!stop] <= '9' do
    incr stop
  done;
  int_of_string (String.sub doc start (!stop - start))

(* The result-cache block of GET /v1/stats. *)
let cache_stats t =
  let fd = Wire.connect_tcp t.port in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      match Wire.http_exchange fd (Wire.reader fd) (Wire.http_get "/v1/stats") with
      | 200, doc ->
        let get = json_int doc ~from:(after doc ~from:0 "\"resultCache\":{") in
        {
          hits = get "hits";
          misses = get "misses";
          evictions = get "evictions";
          entries = get "entries";
          bytes = get "bytes";
        }
      | status, _ -> failwith (Printf.sprintf "GET /v1/stats answered %d" status))

let pid_s t = string_of_int t.pid
let rss_mb t = Timing.rss_mb (pid_s t)
let hwm_mb t = Timing.hwm_mb (pid_s t)
let cpu_s t = Timing.cpu_s (pid_s t)
