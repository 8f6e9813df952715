(* The served workloads: a child `oa_cli serve` driven over loopback with
   Oa_net's client side.

   Every connection owns a disjoint key partition (keys of one residue
   modulo [clients]), learns its initial presence with GETs during set-up,
   and checks every reply against its own set model.  Requests of one
   pipelined batch carry distinct keys, so the model does not depend on
   the order the server runs a batch in.  BUSY and ERROR replies count as
   failed. *)

open Util
module P = Oa_net.Protocol
module Mix = Oa_workload.Op_mix

let oa_cli = "_build/default/bin/oa_cli.exe"
let work_dir = ".bench_work"

(* Client domains and connections open at once, in every kv workload. *)
let clients = 2

(* Requests per pipelined batch: the default [--pipeline] of
   [oa_cli loadgen] (Oa_net.Loadgen), on every connection and session. *)
let depth = 16

(* --- the server process --- *)

(* The client runs on one CPU (its domains share it), and the server is
   left free to use them all.  In interleaved runs on a 2-vCPU host this
   served more ops/s than either leaving both unpinned or pinning each to
   a CPU of its own (README.md).  Pins every thread of this process, and
   so every domain it starts later. *)
let pin cpus =
  match cpus with
  | cpu :: _ :: _ ->
      let cmd =
        Printf.sprintf "taskset -a -c -p %d %d >/dev/null" cpu (Unix.getpid ())
      in
      if Sys.command cmd <> 0 then failwith ("could not pin the client: " ^ cmd)
  | _ -> ()

type server = {
  pid : int;
  fd : Unix.file_descr;  (** the child's stdout and stderr *)
  buf : Buffer.t;
  port : int;
}

let live = ref []

(* Every started server is stopped when the benchmark exits, whatever the
   path out. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let forget pid = live := List.filter (( <> ) pid) !live

(* Next line of the child's output, or [None] at end of stream or after
   [timeout] seconds. *)
let read_line fd buf ~timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let chunk = Bytes.create 4096 in
  let rec go () =
    let s = Buffer.contents buf in
    match String.index_opt s '\n' with
    | Some i ->
        Buffer.clear buf;
        Buffer.add_string buf (String.sub s (i + 1) (String.length s - i - 1));
        Some (String.sub s 0 i)
    | None -> (
        let left = deadline -. Unix.gettimeofday () in
        if left <= 0. then None
        else
          match Unix.select [ fd ] [] [] left with
          | [], _, _ -> None
          | _ -> (
              match Unix.read fd chunk 0 4096 with
              | 0 -> None
              | n ->
                  Buffer.add_subbytes buf chunk 0 n;
                  go ()
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
  in
  go ()

let spawn args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Unix.create_process oa_cli (Array.of_list (oa_cli :: args)) null wr wr
  in
  live := pid :: !live;
  Unix.close wr;
  Unix.close null;
  (pid, rd)

(* Start `oa_cli serve` and wait for the line that gives its port. *)
let start args =
  let pid, fd = spawn ("serve" :: "--port" :: "0" :: args) in
  let buf = Buffer.create 256 in
  let rec banner acc =
    match read_line fd buf ~timeout:120. with
    | None -> failwith ("server did not start: " ^ String.concat " | " (List.rev acc))
    | Some l -> (
        match Scanf.sscanf l "serving %_s x %_d shards on 127.0.0.1:%d" Fun.id with
        | port -> (port, List.rev (l :: acc))
        | exception _ -> banner (l :: acc))
  in
  let port, _ = banner [] in
  { pid; fd; buf; port }

(* SIGINT: the server drains and prints its report; it must say
   conservation=ok and exit 0. *)
let stop_gracefully s =
  Unix.kill s.pid Sys.sigint;
  let rec drain acc =
    match read_line s.fd s.buf ~timeout:60. with
    | Some l -> drain (l :: acc)
    | None -> List.rev acc
  in
  let lines = drain [] in
  let _, status = Unix.waitpid [] s.pid in
  forget s.pid;
  Unix.close s.fd;
  let conserved =
    List.exists
      (fun l ->
        let re = "conservation=ok" in
        let n = String.length re and ln = String.length l in
        let rec at i = i + n <= ln && (String.sub l i n = re || at (i + 1)) in
        at 0)
      lines
  in
  match status with
  | Unix.WEXITED 0 when conserved -> []
  | _ ->
      [ "server drain did not report conservation=ok: " ^ String.concat " | " lines ]

let kill s =
  Unix.kill s.pid Sys.sigkill;
  ignore (Unix.waitpid [] s.pid);
  forget s.pid;
  Unix.close s.fd

(* --- the set model and the reply checker --- *)

type op = Get | Ins | Del

let absent = '\000'
let present = '\001'
let unknown = '\002'

type verdict = Ok_reply | Failed_reply | Wrong of string

(* Check one reply against the model and advance the model. *)
let check_reply model op key (body : P.body) =
  let cur = Bytes.get model key in
  let is_present = cur = present in
  match (op, body) with
  | _, (P.Busy | P.Error_r _) ->
      (* a BUSY op did not run; an ERROR op may have *)
      (match body with P.Busy -> () | _ -> Bytes.set model key unknown);
      Failed_reply
  | Get, P.Bool b ->
      if cur = unknown then (
        Bytes.set model key (if b then present else absent);
        Ok_reply)
      else if b = is_present then Ok_reply
      else Wrong (Printf.sprintf "GET %d answered %b, model says %b" key b is_present)
  | Ins, P.Bool b ->
      let expected = not is_present in
      Bytes.set model key present;
      if cur = unknown || b = expected then Ok_reply
      else Wrong (Printf.sprintf "INSERT %d answered %b, model expects %b" key b expected)
  | Del, P.Bool b ->
      Bytes.set model key absent;
      if cur = unknown || b = is_present then Ok_reply
      else Wrong (Printf.sprintf "DELETE %d answered %b, model expects %b" key b is_present)
  | _, b -> Wrong ("unexpected reply " ^ P.body_to_string b)

(* The checker must catch a flipped reply and a lost acked write. *)
let self_test () =
  let model = Bytes.make 16 absent in
  let flipped = check_reply model Ins 3 (P.Bool false) in
  let model = Bytes.make 16 absent in
  let acked = check_reply model Ins 5 (P.Bool true) in
  (* after a restart the acked insert reads back absent *)
  let lost = check_reply model Get 5 (P.Bool false) in
  match (flipped, acked, lost) with
  | Wrong _, Ok_reply, Wrong _ -> []
  | _ -> [ "checker self-test: a flipped reply or a lost acked write went unnoticed" ]

(* --- one client connection --- *)

type part = { pkeys : int array; model : Bytes.t }

let partition ~keys ~index =
  {
    pkeys = Array.init (keys / clients) (fun i -> (i * clients) + index + 1);
    model = Bytes.make (keys + 1) unknown;
  }

type stats = {
  get_lat : Samples.t array;
      (** per whole second of the measured window: ns from the batch's
          send to the reply *)
  mut_lat : Samples.t array;
  mutable sent : int;
  mutable failed : int;
  mutable problems : string list;
  windows : int array;  (** replies per whole second of the measured window *)
  host : (int * int) array;
      (** host CPU and steal ticks at the start of each second, sampled by
          a connection's closed loop when asked to *)
}

let new_stats ~seconds =
  let nwin = int_of_float (ceil seconds) + 1 in
  {
    get_lat = Array.init nwin (fun _ -> Samples.create ());
    mut_lat = Array.init nwin (fun _ -> Samples.create ());
    sent = 0;
    failed = 0;
    problems = [];
    windows = Array.make nwin 0;
    host = Array.make (nwin + 1) (0, 0);
  }

type client = {
  cl : Oa_net.Client.t;
  mutable next_id : int;
  ops : op array;
  keys : int array;
  stamp : int array;  (** key -> batch number that drew it *)
  mutable batch_no : int;
  tr : Tracer.t;
}

let max_depth = 256

let connect ~port ~key_space ~tr =
  {
    cl = Oa_net.Client.connect ~port ();
    next_id = 1;
    ops = Array.make max_depth Get;
    keys = Array.make max_depth 0;
    stamp = Array.make (key_space + 1) 0;
    batch_no = 0;
    tr;
  }

let close c = Oa_net.Client.close c.cl

(* Time spent decoding reply frames, counted when tracing. *)
let decode c =
  if not c.tr.Tracer.on then P.decode_response
  else fun b ~off ~avail ->
    let t0 = now_ns () in
    let r = P.decode_response b ~off ~avail in
    Tracer.count c.tr "protocol.decode_ns" (now_ns () - t0);
    (match r with P.Complete _ -> Tracer.count c.tr "protocol.decode_frames" 1 | _ -> ());
    r

(* Send the first [n] staged ops as one pipelined batch, collect and check
   every reply.  Replies arriving after [t0] are counted in their second of
   the measured window; [on_reply i t] sees each reply's arrival time. *)
let exchange ?(t0 = 0) ?(on_reply = fun _ _ -> ()) c part st ~n =
  let conn = c.cl.Oa_net.Client.conn in
  let first = c.next_id in
  c.next_id <- c.next_id + n;
  let rid = first in
  Tracer.span c.tr ~rid "client.batch" (fun () ->
      let t_send = now_ns () in
      Tracer.span c.tr ~rid "protocol.encode" (fun () ->
          for i = 0 to n - 1 do
            let k = c.keys.(i) in
            let op =
              match c.ops.(i) with Get -> P.Get k | Ins -> P.Insert k | Del -> P.Delete k
            in
            P.encode_request (Oa_net.Conn.out conn) { P.id = first + i; op }
          done);
      Tracer.count c.tr "protocol.encode_frames" n;
      Tracer.span c.tr ~rid "conn.flush" (fun () -> Oa_net.Conn.flush conn);
      let got = ref 0 in
      let dec = decode c in
      Tracer.span c.tr ~rid "conn.recv" (fun () ->
          while !got < n do
            match Oa_net.Conn.recv_batch conn ~decode:dec ~max:(n - !got) with
            | `Frames rs ->
                let t = now_ns () in
                List.iter
                  (fun (r : P.response) ->
                    let i = !got in
                    incr got;
                    if r.P.rid <> first + i then
                      st.problems <-
                        Printf.sprintf "reply id %d, expected %d" r.P.rid (first + i)
                        :: st.problems
                    else begin
                      (match check_reply part.model c.ops.(i) c.keys.(i) r.P.body with
                      | Ok_reply -> ()
                      | Failed_reply -> st.failed <- st.failed + 1
                      | Wrong e -> st.problems <- e :: st.problems);
                      on_reply i t;
                      let w = (t - t0) / 1_000_000_000 in
                      if t0 > 0 && w < Array.length st.windows then begin
                        st.windows.(w) <- st.windows.(w) + 1;
                        match c.ops.(i) with
                        | Get -> Samples.add st.get_lat.(w) (t - t_send)
                        | Ins | Del -> Samples.add st.mut_lat.(w) (t - t_send)
                      end
                    end)
                  rs
            | `Eof -> failwith "server closed the connection"
            | `Fail e -> failwith (P.error_to_string e)
          done));
  st.sent <- st.sent + n

(* Stage [n] ops with distinct keys drawn from the partition. *)
let draw c part rng mix ~n =
  c.batch_no <- c.batch_no + 1;
  let len = Array.length part.pkeys in
  for i = 0 to n - 1 do
    let rec pick () =
      let k = part.pkeys.(Oa_util.Splitmix.below rng len) in
      if c.stamp.(k) = c.batch_no then pick () else k
    in
    let k = pick () in
    c.stamp.(k) <- c.batch_no;
    c.keys.(i) <- k;
    c.ops.(i) <-
      (match Mix.draw mix rng with Mix.Contains -> Get | Mix.Insert -> Ins | Mix.Delete -> Del)
  done

(* GET every key of the partition: learns the initial presence during
   set-up, and after a restart checks that every acked write reads back. *)
let read_all c part st =
  let len = Array.length part.pkeys in
  let pos = ref 0 in
  while !pos < len do
    let n = min max_depth (len - !pos) in
    for i = 0 to n - 1 do
      c.ops.(i) <- Get;
      c.keys.(i) <- part.pkeys.(!pos + i)
    done;
    exchange c part st ~n;
    pos := !pos + n
  done

(* Closed loop until [until]: one [depth]-op batch in flight at a time. *)
let closed_loop ?(sample = false) c part st ~rng ~mix ~depth ~t0 ~until =
  let next = ref 0 in
  while now_ns () < until do
    if sample && now_ns () >= t0 + (!next * 1_000_000_000) && !next < Array.length st.host
    then begin
      st.host.(!next) <- host_ticks ();
      incr next
    end;
    draw c part rng mix ~n:depth;
    exchange ~t0 c part st ~n:depth
  done;
  if sample && !next < Array.length st.host then st.host.(!next) <- host_ticks ()

let stats_call c =
  match Oa_net.Client.call_one c.cl { P.id = 0; op = P.Stats } with
  | Ok { P.body = P.Stats_r v; _ } -> v
  | _ -> failwith "STATS failed"

(* STATS fields (docs/server.md) *)
let f_processed = 4
let f_chunks_live = 8
let f_wal_records = 11
let f_wal_fsyncs = 12
let f_ckpts = 13

(* Ping until the server answers; false after [timeout] seconds. *)
let wait_ready ~port ~timeout =
  let deadline = now_ns () + int_of_float (timeout *. 1e9) in
  let rec go () =
    let ok =
      match Oa_net.Client.connect ~port () with
      | cl ->
          let r = Oa_net.Client.call_one cl { P.id = 1; op = P.Ping } in
          Oa_net.Client.close cl;
          (match r with Ok { P.body = P.Pong; _ } -> true | _ -> false)
      | exception Unix.Unix_error _ -> false
    in
    if ok then true
    else if now_ns () > deadline then false
    else (
      Unix.sleepf 0.001;
      go ())
  in
  go ()

(* --- reporting --- *)

let us ns = float_of_int ns /. 1e3

(* Whole seconds of the measured window. *)
let nwin ~seconds = max 1 (int_of_float seconds)

(* Each latency is the median over whole seconds of that second's
   percentile, and throughput the median of the per-second reply counts:
   a stall of the shared host in one second moves one sample, not the
   figure.  The latencies are per-layer metrics of the client (the
   simulated workloads have no request latency to put beside them). *)
let latency_metrics sts ~seconds =
  let windows f =
    List.init (nwin ~seconds) (fun w ->
        let acc = Samples.create () in
        List.iter (fun st -> Samples.append acc (f st).(w)) sts;
        sorted (Samples.to_array acc))
  in
  let g = windows (fun st -> st.get_lat) and mu = windows (fun st -> st.mut_lat) in
  let per_window q ws = median_f (List.map (fun s -> us (percentile_sorted q s)) ws) in
  [
    m "client.get_p50_us" "us" (per_window 0.5 g);
    m "client.get_p99_us" "us" (per_window 0.99 g);
    m "client.mutate_p50_us" "us" (per_window 0.5 mu);
    m "client.mutate_p99_us" "us" (per_window 0.99 mu);
  ]

(* The first of [sts] is the one whose loop sampled the host; stderr gets
   each second's replies and host steal share, to read a run against. *)
let throughput sts ~seconds =
  let per_s =
    List.init (nwin ~seconds) (fun w ->
        List.fold_left (fun acc st -> acc + st.windows.(w)) 0 sts)
  in
  let host = (List.hd sts).host in
  prerr_endline
    ("replies (host steal share) per second: "
    ^ String.concat " "
        (List.mapi
           (fun w n ->
             let (a0, s0), (a1, s1) = (host.(w), host.(w + 1)) in
             if a1 > a0 then
               Printf.sprintf "%d(%.3f)" n (float_of_int (s1 - s0) /. float_of_int (a1 - a0))
             else string_of_int n)
           per_s));
  median_f (List.map float_of_int per_s)

(* Set up [reps] times, keep the last: returns (median set-up seconds,
   whatever the last set-up built). *)
let repeated_setup ~reps ~setup ~teardown =
  let rec go i times =
    let t0 = now_ns () in
    let v = setup () in
    let dt = s_of_ns (now_ns () - t0) in
    if i = reps then (median_f (dt :: times), v)
    else begin
      teardown v;
      go (i + 1) (dt :: times)
    end
  in
  go 1 []

(* Client-side protocol cost per frame, from the traced connections. *)
let protocol_metrics ts =
  let per_frame ns frames = float_of_int ns /. float_of_int (max 1 (Tracer.counted ts frames)) in
  [
    m "protocol.decode_ns_per_frame" "ns"
      (per_frame (Tracer.counted ts "protocol.decode_ns") "protocol.decode_frames");
    m "protocol.encode_ns_per_frame" "ns"
      (per_frame (Tracer.total_ns ts "protocol.encode") "protocol.encode_frames");
  ]

(* --- kv-read-mostly --- *)

(* One shard, one worker, fixed arena, volatile; 8192 keys, half
   prefilled.  Connection 0 is long-lived, pipelined and closed-loop;
   partition 1 is served by an open-loop stream of one-shot sessions
   (connect, one pipelined batch, close) at a fixed rate. *)
let read_mostly ~short ~seed ~seconds ~tr =
  let keys = 8192 in
  (* about a tenth of the ~560 sessions/s this stream reaches back to back
     next to the loaded connection on a 2-vCPU host (README.md) *)
  let session_rate = 50.0 in
  let mix = Mix.read_mostly in
  let args =
    [ "--scheme"; "oa"; "--shards"; "1"; "--workers"; "1";
      "--prefill"; string_of_int (keys / 2); "--keys"; string_of_int keys ]
  in
  let problems = ref (self_test ()) in
  let setup () =
    let srv = start args in
    let p0 = partition ~keys ~index:0 and p1 = partition ~keys ~index:1 in
    let c0 = connect ~port:srv.port ~key_space:keys ~tr in
    read_all c0 p0 (new_stats ~seconds);
    let learn = connect ~port:srv.port ~key_space:keys ~tr:Tracer.off in
    read_all learn p1 (new_stats ~seconds);
    close learn;
    (srv, c0, p0, p1)
  in
  let teardown (srv, c0, _, _) =
    close c0;
    problems := stop_gracefully srv @ !problems
  in
  let setup_s, (srv, c0, p0, p1) = repeated_setup ~reps:25 ~setup ~teardown in
  let st0 = new_stats ~seconds and st1 = new_stats ~seconds in
  let tr1 = Tracer.create ~on:tr.Tracer.on ~domain:1 in
  let cpu0 = proc_cpu_us srv.pid in
  let rss0 = proc_status_kib (string_of_int srv.pid) "VmRSS" in
  let t0 = now_ns () in
  let until = t0 + int_of_float (seconds *. 1e9) in
  let loop =
    Domain.spawn (fun () ->
        let rng = Oa_util.Splitmix.create ((seed * 7919) + 1) in
        closed_loop ~sample:true c0 p0 st0 ~rng ~mix ~depth ~t0 ~until)
  in
  (* the session stream, on this domain *)
  let rng = Oa_util.Splitmix.create ((seed * 7919) + 2) in
  let period = int_of_float (1e9 /. session_rate) in
  let sessions = Samples.create () and lag = Samples.create () in
  let setup_lat = Samples.create () in
  let i = ref 0 in
  while t0 + (!i * period) < until do
    let due = t0 + (!i * period) in
    let now = now_ns () in
    if now < due then Unix.sleepf (s_of_ns (due - now));
    let start = now_ns () in
    Samples.add lag (start - due);
    let c =
      Tracer.span tr1 ~rid:!i "session.connect" (fun () ->
          connect ~port:srv.port ~key_space:keys ~tr:tr1)
    in
    draw c p1 rng mix ~n:depth;
    let first = ref 0 in
    exchange ~t0 c p1 st1 ~n:depth ~on_reply:(fun j t ->
        if j = 0 then first := t);
    close c;
    Samples.add setup_lat (!first - start);
    Samples.add sessions (now_ns () - due);
    incr i
  done;
  Domain.join loop;
  Printf.eprintf "sessions: %d in %.2f s, generator lag p50 %.1f us\n%!"
    (Samples.length sessions) (s_of_ns (now_ns () - t0))
    (us (percentile 0.5 (Samples.to_array lag)));
  let replies = st0.sent + st1.sent in
  let cpu = proc_cpu_us srv.pid - cpu0 in
  let rss1 = proc_status_kib (string_of_int srv.pid) "VmRSS" in
  let hwm = proc_status_kib (string_of_int srv.pid) "VmHWM" in
  (* every key reads back as the model says *)
  let check = new_stats ~seconds in
  read_all c0 p0 check;
  let c1 = connect ~port:srv.port ~key_space:keys ~tr:Tracer.off in
  read_all c1 p1 check;
  close c1;
  close c0;
  problems := stop_gracefully srv @ check.problems @ st0.problems @ st1.problems @ !problems;
  if check.failed > 0 then problems := "read-back answered BUSY/ERROR" :: !problems;
  let e2e =
    [
      m "setup_s" "s" setup_s;
      m "throughput_ops_s" "1/s" (throughput [ st0; st1 ] ~seconds);
      m "rss_peak_mib" "MiB" (float_of_int hwm /. 1024.);
    ]
  in
  let layers () =
    let cfg =
      {
        Oa_net.Service.default_config with
        shards = 1;
        workers_per_shard = 1;
        prefill = keys / 2;
        key_range = keys;
      }
    in
    let n_batches = if short then 500 else 20_000 in
    let exec_ns, restarts, phases, _ =
      Tracer.span tr "hash.run_batch_keyed" (fun () ->
          Layers.hash_exec ~cfg ~mix ~depth ~ops:(n_batches * depth) ~seed)
    in
    let rtt =
      Tracer.span tr "service.submit_await" (fun () ->
          Layers.service_batch_rtt_us ~cfg ~keys ~mix ~depth ~batches:n_batches ~seed)
    in
    latency_metrics [ st0 ] ~seconds
    @ [
      m "client.session_p50_us" "us" (us (percentile 0.5 (Samples.to_array sessions)));
      m "server.session_setup_us" "us" (us (percentile 0.5 (Samples.to_array setup_lat)));
      m "server.rss_kib_per_session" "KiB"
        (float_of_int (rss1 - rss0) /. float_of_int (max 1 (Samples.length sessions)));
      m "server.cpu_us_per_op" "us" (float_of_int cpu /. float_of_int (max 1 replies));
    ]
    @ protocol_metrics [ tr; tr1 ]
    @ [
      m "service.batch_rtt_us" "us" rtt;
      m "client.session_lag_us" "us" (us (percentile 0.5 (Samples.to_array lag)));
      m "hash.exec_ns_per_op" "ns" exec_ns;
      m "smr.oa-real.restarts_per_kop" "count" restarts;
      m "smr.oa-real.phases_per_kop" "count" phases;
    ]
  in
  ( {
      correct = !problems = [];
      attempted = replies;
      failed = st0.failed + st1.failed;
      e2e;
      layers = (if tr.Tracer.on then layers () else []);
      problems = !problems;
    },
    [ tr1 ] )

(* --- the durable phase (once the kv-durable-write workload) --- *)

(* One shard, one worker, elastic arena, WAL + checkpoints at the default
   cadence; 2^18 keys, half prefilled, two closed-loop pipelined
   connections.  After the load a fixed log tail is written behind a fresh
   checkpoint, the server is SIGKILLed and restarted with identical flags
   (three times, for the recovery time), and every acked write must read
   back. *)
let durable_write ~short ~seed ~seconds ~tr =
  let keys = if short then 1 lsl 14 else 1 lsl 18 in
  let tail = if short then 256 else 12_288 in
  let ckpt_every =
    if short then 2_000 else Oa_net.Service.default_config.Oa_net.Service.ckpt_every
  in
  let mix = Mix.v ~read_pct:50 ~insert_pct:25 ~delete_pct:25 in
  let data = Filename.concat work_dir "kv-durable" in
  let args =
    [ "--scheme"; "oa"; "--shards"; "1"; "--workers"; "1"; "--elastic";
      "--data-dir"; data; "--prefill"; string_of_int (keys / 2);
      "--keys"; string_of_int keys ]
    @ if short then [ "--ckpt-every"; string_of_int ckpt_every ] else []
  in
  let problems = ref (self_test ()) in
  let setup () =
    rm_rf data;
    let srv = start args in
    let parts = Array.init clients (fun index -> partition ~keys ~index) in
    let conns =
      Array.init clients (fun _ -> connect ~port:srv.port ~key_space:keys ~tr)
    in
    let st = new_stats ~seconds in
    Array.iteri (fun i c -> read_all c parts.(i) st) conns;
    (srv, conns, parts)
  in
  let teardown (srv, conns, _) =
    Array.iter close conns;
    problems := stop_gracefully srv @ !problems
  in
  let setup_s, (srv, conns, parts) = repeated_setup ~reps:7 ~setup ~teardown in
  let sts = Array.init clients (fun _ -> new_stats ~seconds) in
  let s0 = stats_call conns.(0) in
  let cpu0 = proc_cpu_us srv.pid in
  let t0 = now_ns () in
  let until = t0 + int_of_float (seconds *. 1e9) in
  let tr1 = Tracer.create ~on:tr.Tracer.on ~domain:1 in
  let c1 = { (conns.(1)) with tr = tr1 } in
  let other =
    Domain.spawn (fun () ->
        let rng = Oa_util.Splitmix.create ((seed * 7919) + 2) in
        closed_loop c1 parts.(1) sts.(1) ~rng ~mix ~depth ~t0 ~until)
  in
  let rng = Oa_util.Splitmix.create ((seed * 7919) + 1) in
  closed_loop ~sample:true conns.(0) parts.(0) sts.(0) ~rng ~mix ~depth ~t0 ~until;
  Domain.join other;
  let cpu = proc_cpu_us srv.pid - cpu0 in
  let s1 = stats_call conns.(0) in
  (* A fixed log tail: effective mutations until a checkpoint is taken,
     then exactly [tail] more, so every run replays the same number of
     records. *)
  let tail_st = new_stats ~seconds in
  let c = conns.(0) and part = parts.(0) in
  let effective n =
    c.batch_no <- c.batch_no + 1;
    let len = Array.length part.pkeys in
    for i = 0 to n - 1 do
      let rec pick () =
        let k = part.pkeys.(Oa_util.Splitmix.below rng len) in
        if c.stamp.(k) = c.batch_no || Bytes.get part.model k = unknown then pick ()
        else k
      in
      let k = pick () in
      c.stamp.(k) <- c.batch_no;
      c.keys.(i) <- k;
      c.ops.(i) <- (if Bytes.get part.model k = present then Del else Ins)
    done;
    exchange c part tail_st ~n
  in
  (* The server may split one pipelined batch into several rendezvous, so
     a checkpoint seen after a 64-op batch can sit inside it.  Hence: bulk
     batches until one checkpoint, bulk again to just short of the next,
     then single ops until it is taken. *)
  let until_ckpt ~n =
    let ck0 = (stats_call c).(f_ckpts) in
    let budget = ref (2 * ckpt_every / n + 64) in
    while (stats_call c).(f_ckpts) = ck0 && !budget > 0 do
      effective n;
      decr budget
    done;
    if !budget = 0 then problems := "no checkpoint during the tail phase" :: !problems
  in
  let records n =
    let left = ref n in
    while !left > 0 do
      let k = min 64 !left in
      effective k;
      left := !left - k
    done
  in
  until_ckpt ~n:64;
  records (ckpt_every - 128);
  until_ckpt ~n:1;
  records tail;
  let hwm = proc_status_kib (string_of_int srv.pid) "VmHWM" in
  Array.iter close conns;
  kill srv;
  let copy = Filename.concat work_dir "kv-durable-copy" in
  if tr.Tracer.on then begin
    rm_rf copy;
    ignore (Sys.command (Printf.sprintf "cp -r %s %s" (Filename.quote data) (Filename.quote copy)))
  end;
  (* restart with identical flags; time to the first answered request *)
  let restart () =
    let t_spawn = now_ns () in
    let srv = start args in
    if not (wait_ready ~port:srv.port ~timeout:120.) then
      problems := "restarted server never answered" :: !problems;
    let dt = s_of_ns (now_ns () - t_spawn) in
    (* the line after the port: "durable in DIR: recovered N wal records + ..." *)
    let replayed =
      match read_line srv.fd srv.buf ~timeout:30. with
      | Some l -> (
          try Scanf.sscanf l "durable in %_s@: recovered %d wal records" Fun.id
          with Scanf.Scan_failure _ | Failure _ | End_of_file -> -1)
      | None -> -1
    in
    if replayed <> tail then
      problems :=
        Printf.sprintf "recovery replayed %d log records, expected %d" replayed tail
        :: !problems;
    (srv, dt)
  in
  let r1, d1 = restart () in
  kill r1;
  let r2, d2 = restart () in
  kill r2;
  let srv2, d3 = restart () in
  let check = new_stats ~seconds in
  Array.iter
    (fun part ->
      let c = connect ~port:srv2.port ~key_space:keys ~tr:Tracer.off in
      read_all c part check;
      close c)
    parts;
  problems :=
    stop_gracefully srv2 @ check.problems @ tail_st.problems
    @ List.concat_map (fun st -> st.problems) (Array.to_list sts)
    @ !problems;
  if check.failed > 0 then problems := "read-back answered BUSY/ERROR" :: !problems;
  let all = Array.to_list sts in
  let replies = List.fold_left (fun a st -> a + st.sent) 0 all in
  let e2e =
    [
      m "setup_s" "s" setup_s;
      m "throughput_ops_s" "1/s" (throughput all ~seconds);
      m "rss_peak_mib" "MiB" (float_of_int hwm /. 1024.);
    ]
  in
  let layers () =
    let processed = s1.(f_processed) - s0.(f_processed) in
    let kop f = 1000. *. float_of_int (s1.(f) - s0.(f)) /. float_of_int (max 1 processed) in
    let cfg =
      {
        Oa_net.Service.default_config with
        shards = 1;
        workers_per_shard = 1;
        prefill = keys / 2;
        key_range = keys;
        elastic = true;
      }
    in
    let ops = if short then 20_000 else 1_000_000 in
    let exec_ns, restarts, phases, bytes_per_key =
      Tracer.span tr "hash.run_batch_keyed" (fun () ->
          Layers.hash_exec ~cfg ~mix ~depth ~ops ~seed)
    in
    let append_us, fsync_us =
      Tracer.span tr "wal.append_sync" (fun () ->
          Layers.wal ~dir:(Filename.concat work_dir "wal-probe") ~batch:16
            ~batches:(if short then 20 else 300))
    in
    let ckpt_ms =
      Tracer.span tr "checkpoint.write" (fun () ->
          Layers.checkpoint_write_ms ~dir:(Filename.concat work_dir "ckpt-probe")
            ~n:(keys / 2) ~reps:3)
    in
    let ck_keys, wal_recs, keys_per_s =
      Tracer.span tr "recovery.run" (fun () ->
          Layers.recovery ~dir:(Oa_store.Shard_store.shard_dir ~data_dir:copy 0))
    in
    rm_rf copy;
    latency_metrics all ~seconds
    @ [ m "server.cpu_us_per_op" "us" (float_of_int cpu /. float_of_int (max 1 replies)) ]
    @ protocol_metrics [ tr; tr1 ]
    @ [
      m "hash.exec_ns_per_op" "ns" exec_ns;
      m "smr.oa-real.restarts_per_kop" "count" restarts;
      m "smr.oa-real.phases_per_kop" "count" phases;
      m "alloc.chunks_live" "count" (float_of_int s1.(f_chunks_live));
      m "alloc.committed_bytes_per_live_key" "B" bytes_per_key;
      m "wal.append_us_per_batch" "us" append_us;
      m "wal.fsync_us" "us" fsync_us;
      m "wal.fsyncs_per_kop" "count" (kop f_wal_fsyncs);
      m "wal.records_per_kop" "count" (kop f_wal_records);
      m "checkpoint.write_ms" "ms" ckpt_ms;
      m "checkpoint.count" "count" (float_of_int (s1.(f_ckpts) - s0.(f_ckpts)));
      m "recovery.restart_s" "s" (median_f [ d1; d2; d3 ]);
      m "recovery.ckpt_keys" "count" (float_of_int ck_keys);
      m "recovery.wal_records" "count" (float_of_int wal_recs);
      m "recovery.keys_per_s" "1/s" keys_per_s;
    ]
  in
  ( {
      correct = !problems = [];
      attempted = replies + tail_st.sent;
      failed = List.fold_left (fun a st -> a + st.failed) tail_st.failed all;
      e2e;
      layers = (if tr.Tracer.on then layers () else []);
      problems = !problems;
    },
    [ tr1 ] )

(* --- kv-read-mostly, as the benchmark runs it --- *)

(* A traced run of kv-read-mostly also drives a durable server (the
   durable phase above, for at most 10 s) for the layers only it
   exercises: the allocator, the WAL, checkpoints and recovery.  Its
   checks count (every acked write reads back after the restarts); its
   host-timed figures go to stderr only.  It is not a workload of its
   own: on a shared 2-vCPU virtual machine its fsyncs drew host steal,
   and its throughput spread 0.43 of its median over runs of identical
   code (README.md). *)
let read_mostly_run ~short ~seed ~seconds ~tr =
  let r, trs = read_mostly ~short ~seed ~seconds ~tr in
  if not tr.Tracer.on then (r, trs)
  else begin
    let d, dtrs = durable_write ~short ~seed ~seconds:(Float.min seconds 10.) ~tr in
    List.iter
      (fun x -> Printf.eprintf "durable phase: %s %.4g %s\n" x.name x.value x.unit_)
      d.e2e;
    let durable_layer x =
      List.exists
        (fun prefix -> String.starts_with ~prefix x.name)
        [ "alloc."; "wal."; "checkpoint."; "recovery." ]
    in
    ( {
        r with
        correct = r.correct && d.correct;
        attempted = r.attempted + d.attempted;
        failed = r.failed + d.failed;
        layers = r.layers @ List.filter durable_layer d.layers;
        problems = r.problems @ d.problems;
      },
      trs @ dtrs )
  end
