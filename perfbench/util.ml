(* Small helpers shared by the workloads: timing, order statistics,
   growable sample buffers and the result record every workload returns. *)

let now_ns = Oa_runtime.Clock.now_ns

(* CPU time of this process (user + system), in nanoseconds.  The
   simulator runs on one host thread, so its CPU time is its host cost
   without the time a busy shared host kept it off a core. *)
let cpu_ns () =
  let t = Unix.times () in
  int_of_float ((t.Unix.tms_utime +. t.Unix.tms_stime) *. 1e9)
let s_of_ns ns = float_of_int ns /. 1e9

(* Growable int buffer: latency samples, per-window counts. *)
module Samples = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let length t = t.n
  let to_array t = Array.sub t.a 0 t.n

  let append dst src =
    for i = 0 to src.n - 1 do
      add dst src.a.(i)
    done
end

(* Nearest-rank percentile of a sorted int array ([q] in [0, 1]). *)
let percentile_sorted q (s : int array) =
  let n = Array.length s in
  if n = 0 then 0
  else
    let rank = int_of_float (ceil (q *. float_of_int n)) in
    s.(max 0 (min (n - 1) (rank - 1)))

let sorted (a : int array) =
  let s = Array.copy a in
  Array.sort Int.compare s;
  s

let percentile q a = percentile_sorted q (sorted a)

let median_f (l : float list) =
  match List.sort compare l with
  | [] -> 0.0
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* A metric as printed: name, value, unit. *)
type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  e2e : metric list;  (** end-to-end metrics, also measured when traced *)
  layers : metric list;  (** per-layer metrics; traced runs only *)
  problems : string list;  (** why [correct] is false, for stderr *)
}

(* Read one field of /proc/<pid>/status ("VmHWM", "VmRSS"), in KiB. *)
let proc_status_kib pid field =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> 0
        | line ->
            let prefix = field ^ ":" in
            let pl = String.length prefix in
            if String.length line > pl && String.sub line 0 pl = prefix then
              Scanf.sscanf (String.sub line pl (String.length line - pl))
                " %d" (fun v -> v)
            else go ()
      in
      let v = go () in
      close_in ic;
      v

(* utime + stime of a process, in microseconds (/proc/<pid>/stat fields
   14 and 15, after the parenthesised command name). *)
let proc_cpu_us pid =
  match open_in (Printf.sprintf "/proc/%d/stat" pid) with
  | exception Sys_error _ -> 0
  | ic ->
      let line = input_line ic in
      close_in ic;
      let rest =
        let i = String.rindex line ')' in
        String.sub line (i + 2) (String.length line - i - 2)
      in
      let fields = Array.of_list (String.split_on_char ' ' rest) in
      (* [rest] starts at field 3 (state) *)
      let ticks = int_of_string fields.(11) + int_of_string fields.(12) in
      ticks * 1_000_000 / 100

(* The CPUs this process may run on (Cpus_allowed_list in
   /proc/self/status, which `nproc` counts), or 0 .. n-1 for the CPUs
   online where that is unreadable. *)
let cpus_allowed () =
  let online = List.init (Oa_runtime.Sysinfo.nproc ()) Fun.id in
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> online
  | ic -> (
      let rec find () =
        match input_line ic with
        | exception End_of_file -> None
        | l -> (
            match String.split_on_char ':' l with
            | [ "Cpus_allowed_list"; v ] -> Some (String.trim v)
            | _ -> find ())
      in
      let v = find () in
      close_in ic;
      let range r =
        match String.split_on_char '-' r with
        | [ a ] -> [ int_of_string a ]
        | [ a; b ] ->
            let a = int_of_string a in
            List.init (int_of_string b - a + 1) (fun i -> a + i)
        | _ -> failwith "range"
      in
      match v with
      | Some v -> (
          try List.concat_map range (String.split_on_char ',' v)
          with Failure _ -> online)
      | None -> online)

(* All CPU ticks and steal ticks of the host so far (the "cpu" line of
   /proc/stat): the share of steal over a run shows whether other tenants
   of a virtual machine's host took its CPUs away.  (0, 0) where there is
   no /proc/stat. *)
let host_ticks () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> (0, 0)
  | ic -> (
      let line = input_line ic in
      close_in ic;
      match List.filter (( <> ) "") (String.split_on_char ' ' line) with
      | "cpu" :: fields ->
          let v = List.map int_of_string fields in
          (List.fold_left ( + ) 0 v, if List.length v > 7 then List.nth v 7 else 0)
      | _ -> (0, 0))

let rm_rf dir =
  if Sys.file_exists dir then
    ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)))

let mkdir_p dir =
  ignore (Sys.command (Printf.sprintf "mkdir -p %s" (Filename.quote dir)))
