(* The daemon's accept loops must outlive descriptor exhaustion.  The
   test boots the real [patchitpy serve] with both front ends under
   [ulimit -n 40], parks more idle connections on them than the daemon
   has descriptors (so accept fails with EMFILE), closes them, and then
   requires both front ends to answer again: HTTP [/v1/health] with
   200, and an NDJSON scan over the Unix socket. *)

let check_bool = Alcotest.(check bool)
let cli = "../bin/patchitpy_cli.exe"
let io_timeout = 10.0

let free_port () =
  let s = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.bind s (ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname s with ADDR_INET (_, p) -> p | _ -> assert false
  in
  Unix.close s;
  port

let connect addr =
  let domain = Unix.domain_of_sockaddr addr in
  let fd = Unix.socket ~cloexec:true domain SOCK_STREAM 0 in
  match Unix.connect fd addr with
  | () ->
    Unix.setsockopt_float fd SO_RCVTIMEO io_timeout;
    Some fd
  | exception Unix.Unix_error _ ->
    Unix.close fd;
    None

(* Sends [request] and reads until [complete] holds on what arrived (or
   EOF / timeout); [None] when the connection failed. *)
let exchange addr request ~complete =
  match connect addr with
  | None -> None
  | Some fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        match
          ignore (Unix.write_substring fd request 0 (String.length request));
          let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
          let rec read () =
            let n = Unix.read fd chunk 0 (Bytes.length chunk) in
            if n > 0 then begin
              Buffer.add_subbytes buf chunk 0 n;
              if not (complete (Buffer.contents buf)) then read ()
            end
          in
          read ();
          Buffer.contents buf
        with
        | reply -> Some reply
        | exception Unix.Unix_error _ -> None)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
  at 0

(* The value of a Prometheus counter sample line [name value]. *)
let counter_value text name =
  String.split_on_char '\n' text
  |> List.find_map (fun line ->
         match String.split_on_char ' ' line with
         | [ n; v ] when n = name -> int_of_string_opt v
         | _ -> None)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let health http =
  exchange http
    "GET /v1/health HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    ~complete:(fun _ -> false)

let health_ok http =
  match health http with
  | Some reply -> starts_with ~prefix:"HTTP/1.1 200" reply
  | None -> false

let ndjson_scan sock =
  exchange sock
    "{\"schema\":\"patchitpy-serve/1\",\"id\":\"scan-1\",\"kind\":\"scan\",\
     \"file\":\"a.py\",\"source\":\"import os\\nos.system(cmd)\\n\"}\n"
    ~complete:(fun s -> String.contains s '\n')

let rec wait_until ~deadline f =
  if f () then true
  else if Unix.gettimeofday () > deadline then false
  else begin
    Unix.sleepf 0.1;
    wait_until ~deadline f
  end

let test_fd_exhaustion () =
  let port = free_port () in
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "patchitpy-accept-%d.sock" (Unix.getpid ()))
  in
  (try Sys.remove path with Sys_error _ -> ());
  let devnull = Unix.openfile "/dev/null" [ O_RDWR ] 0 in
  let pid =
    Unix.create_process "/bin/sh"
      [|
        "sh"; "-c";
        "ulimit -n 40; exec \"$0\" serve --http \"$1\" --socket \"$2\" --jobs 1";
        cli; string_of_int port; path;
      |]
      devnull devnull devnull
  in
  Unix.close devnull;
  let http = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
  let sock = Unix.ADDR_UNIX path in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      check_bool "daemon boots" true
        (wait_until ~deadline:(Unix.gettimeofday () +. 60.0) (fun () ->
             health_ok http));
      (* more idle connections than the daemon has descriptors: the
         accept loops run into EMFILE while these are held *)
      let idle =
        List.filter_map Fun.id
          (List.init 60 (fun _ -> connect http)
          @ List.init 20 (fun _ -> connect sock))
      in
      check_bool "idle connections opened" true (List.length idle >= 60);
      Unix.sleepf 0.5;
      List.iter Unix.close idle;
      let deadline = Unix.gettimeofday () +. 20.0 in
      check_bool "HTTP health answers 200 after exhaustion" true
        (wait_until ~deadline (fun () -> health_ok http));
      check_bool "NDJSON scan answers after exhaustion" true
        (wait_until ~deadline (fun () ->
             match ndjson_scan sock with
             | Some reply -> contains reply "\"id\":\"scan-1\""
             | None -> false));
      let metrics =
        exchange http
          "GET /metrics HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
          ~complete:(fun _ -> false)
      in
      check_bool "accept errors were counted" true
        (match Option.bind metrics (fun m ->
                   counter_value m "server_accept_errors_total")
         with
        | Some n -> n > 0
        | None -> false))

let () =
  Alcotest.run "accept"
    [
      ( "serve",
        [
          Alcotest.test_case "accept loops survive fd exhaustion" `Slow
            test_fd_exhaustion;
        ] );
    ]
