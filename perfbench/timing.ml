(* Clocks, sample vectors, percentiles and /proc readings. *)

let now_ns = Telemetry.now_ns

let us_since t0 = float_of_int (now_ns () - t0) /. 1e3

(* A growable float vector: per-op latencies are appended from the hot
   loop, so appends must not allocate a list cell each. *)
type vec = { mutable data : float array; mutable len : int }

let vec () = { data = Array.make 4096 0.0; len = 0 }

let push v x =
  if v.len = Array.length v.data then begin
    let bigger = Array.make (2 * v.len) 0.0 in
    Array.blit v.data 0 bigger 0 v.len;
    v.data <- bigger
  end;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let to_sorted v =
  let a = Array.sub v.data 0 v.len in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of a sorted array; nan when empty. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  percentile a 0.5

(* p50 and p99 in microseconds of [f] applied to every input, [reps]
   passes over the inputs. *)
let time_each ?(reps = 1) inputs f =
  let v = vec () in
  for _ = 1 to reps do
    Array.iter
      (fun x ->
        let t0 = now_ns () in
        ignore (Sys.opaque_identity (f x));
        push v (us_since t0))
      inputs
  done;
  let s = to_sorted v in
  (percentile s 0.5, percentile s 0.99)

(* --- /proc ----------------------------------------------------------------- *)

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

(* A "Vm...:   1234 kB" line of /proc/<pid>/status, in MB. *)
let status_mb pid key =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let prefix = key ^ ":" in
  match
    List.find_opt
      (fun l -> String.starts_with ~prefix l)
      (String.split_on_char '\n' (read_file path))
  with
  | None -> Float.nan
  | Some l ->
    let rest = String.sub l (String.length prefix) (String.length l - String.length prefix) in
    let kb = String.trim (List.hd (String.split_on_char 'k' rest)) in
    float_of_string kb /. 1024.0

let rss_mb pid = status_mb pid "VmRSS"
let hwm_mb pid = status_mb pid "VmHWM"

(* Lowers the process's VmHWM to its current RSS, so a later reading is
   the peak of what ran in between.  Best-effort: older kernels refuse. *)
let reset_hwm () =
  try
    Out_channel.with_open_bin "/proc/self/clear_refs" (fun oc ->
        output_string oc "5")
  with Sys_error _ -> ()

(* utime + stime of a whole process (all threads), in seconds.  Linux
   reports both in clock ticks of USER_HZ, which is 100 on every
   mainstream configuration. *)
let cpu_s pid =
  let stat = read_file (Printf.sprintf "/proc/%s/stat" pid) in
  (* Fields after the parenthesised command name, from field 3 (state)
     on: utime and stime are fields 14 and 15. *)
  let rest = String.sub stat (String.rindex stat ')' + 2) (String.length stat - String.rindex stat ')' - 2) in
  let fields = Array.of_list (String.split_on_char ' ' rest) in
  (float_of_string fields.(11) +. float_of_string fields.(12)) /. 100.0
