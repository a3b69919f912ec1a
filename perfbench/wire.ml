(* The benchmark's own clients: HTTP/1.1 and NDJSON over any stream
   descriptor (loopback TCP, Unix socket or socketpair). *)

type reader = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable start : int;  (* unread bytes are buf[start, stop) *)
  mutable stop : int;
}

let reader fd = { fd; buf = Bytes.create 65536; start = 0; stop = 0 }

let refill r =
  if r.start > 0 then begin
    Bytes.blit r.buf r.start r.buf 0 (r.stop - r.start);
    r.stop <- r.stop - r.start;
    r.start <- 0
  end;
  if r.stop = Bytes.length r.buf then begin
    let bigger = Bytes.create (2 * Bytes.length r.buf) in
    Bytes.blit r.buf 0 bigger 0 r.stop;
    r.buf <- bigger
  end;
  let rec read () =
    match Unix.read r.fd r.buf r.stop (Bytes.length r.buf - r.stop) with
    | 0 -> raise End_of_file
    | n -> r.stop <- r.stop + n
    | exception Unix.Unix_error (EINTR, _, _) -> read ()
  in
  read ()

(* Offset (from [r.start]) of the first occurrence of [pat] in the
   unread bytes, reading more until it shows up. *)
let find r pat =
  let m = String.length pat in
  let rec scan from =
    let rec matches i k = k = m || (Bytes.get r.buf (i + k) = pat.[k] && matches i (k + 1)) in
    let rec at i =
      if i + m > r.stop then None
      else if matches i 0 then Some (i - r.start)
      else at (i + 1)
    in
    match at (r.start + from) with
    | Some off -> off
    | None ->
      let seen = max 0 (r.stop - r.start - m + 1) in
      refill r;
      scan seen
  in
  scan 0

let take r n =
  while r.stop - r.start < n do
    refill r
  done;
  let s = Bytes.sub_string r.buf r.start n in
  r.start <- r.start + n;
  s

let rec write_all fd s off =
  let len = String.length s - off in
  if len > 0 then
    match Unix.write_substring fd s off len with
    | n -> write_all fd s (off + n)
    | exception Unix.Unix_error (EINTR, _, _) -> write_all fd s off

let send fd s = write_all fd s 0

(* --- HTTP ------------------------------------------------------------------- *)

let http_post ~path ~body =
  Printf.sprintf "POST %s HTTP/1.1\r\nhost: bench\r\ncontent-length: %d\r\n\r\n%s"
    path (String.length body) body

let http_get path = Printf.sprintf "GET %s HTTP/1.1\r\nhost: bench\r\n\r\n" path

let scan_path = function Inputs.Scan -> "/v1/scan" | Inputs.Patch -> "/v1/patch"

(* One response: status and body.  The gateway always frames bodies
   with content-length. *)
let read_http_response r =
  let head_len = find r "\r\n\r\n" in
  let head = String.lowercase_ascii (take r (head_len + 4)) in
  let status =
    match String.split_on_char ' ' head with
    | _ :: code :: _ -> int_of_string code
    | _ -> failwith "malformed status line"
  in
  let key = "\r\ncontent-length:" in
  let rec locate i =
    if i + String.length key > String.length head then failwith "no content-length"
    else if String.sub head i (String.length key) = key then i + String.length key
    else locate (i + 1)
  in
  let from = locate 0 in
  let eol = String.index_from head from '\r' in
  let len = int_of_string (String.trim (String.sub head from (eol - from))) in
  (status, take r len)

let http_exchange fd r request =
  send fd request;
  read_http_response r

(* --- NDJSON ----------------------------------------------------------------- *)

let ndjson_request ~id kind body =
  let file = "-" in
  Server.Protocol.encode_request
    {
      Server.Protocol.id;
      deadline_steps = None;
      kind =
        (match kind with
        | Inputs.Scan -> Server.Protocol.Scan { file; source = body }
        | Inputs.Patch -> Server.Protocol.Patch { file; source = body });
    }
  ^ "\n"

let read_line r =
  let n = find r "\n" in
  let line = take r n in
  ignore (take r 1);
  line

(* The raw payload of a success reply with the expected id and kind.
   The envelope is matched against the protocol's own encoding of an
   empty-bodied reply instead of being parsed, which keeps a JSON
   parse of the whole body out of the client's hot path; the payload
   itself is checked byte for byte after the timed window. *)
let ndjson_reply r ~id kind =
  let reply = read_line r in
  let empty =
    Server.Protocol.encode_response
      (Server.Protocol.Reply { id; kind = Inputs.kind_name kind; body = "" })
  in
  let prefix = String.sub empty 0 (String.length empty - 1) in
  let n = String.length reply and p = String.length prefix in
  if n > p && String.starts_with ~prefix reply && reply.[n - 1] = '}' then
    Some (String.sub reply p (n - p - 1))
  else None

(* --- either front end ---------------------------------------------------------- *)

type front = Http | Ndjson

let request front ~id kind body =
  match front with
  | Http -> http_post ~path:(scan_path kind) ~body
  | Ndjson -> ndjson_request ~id kind body

(* The served payload of the next reply (an HTTP body without the
   gateway's trailing newline), or [None] on an error reply. *)
let reply front r ~id kind =
  match front with
  | Http -> (
    match read_http_response r with
    | 200, b when String.ends_with ~suffix:"\n" b -> Some (String.sub b 0 (String.length b - 1))
    | _ -> None)
  | Ndjson -> ndjson_reply r ~id kind

(* One request on a persistent connection, waiting for its reply. *)
let exchange front fd r ~id kind body =
  send fd (request front ~id kind body);
  reply front r ~id kind

(* --- connections ------------------------------------------------------------ *)

let connect_tcp port =
  let fd = Unix.socket ~cloexec:true PF_INET SOCK_STREAM 0 in
  match Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port)) with
  | () ->
    Unix.setsockopt fd TCP_NODELAY true;
    fd
  | exception e ->
    Unix.close fd;
    raise e

let connect_unix path =
  let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  match Unix.connect fd (ADDR_UNIX path) with
  | () -> fd
  | exception e ->
    Unix.close fd;
    raise e
