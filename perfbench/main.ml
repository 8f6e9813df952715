(* Benchmark entry point:

     main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--short]

   Workloads: kv-read-mostly (the served store, through a child
   `oa_cli serve`; a traced run adds a durable server's phase),
   sim-list5k, sim-hash10k (the simulator, in-process).  With --trace 0
   the result carries every end-to-end metric of Manifest; with --trace 1
   every per-layer metric (0 for a layer the workload does not exercise),
   and the recorded spans are written to
   .bench_work/trace-<workload>.jsonl.  --short runs every check at tiny
   lengths.  The last stdout line is the JSON result; the line before it
   records the host and the inputs. *)

open Util

let workloads = [ "kv-read-mostly"; "sim-list5k"; "sim-hash10k" ]

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
     [--short]";
  exit 2

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and short = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--short" :: rest -> short := true; parse rest
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if not (List.mem !workload workloads) then usage ();
  if !short then seconds := Float.min !seconds 1.0;
  let cpus = cpus_allowed () in
  let nproc = List.length cpus in
  (* The kv workloads open two client domains and connections at once; the
     simulated ones run on this one domain. *)
  let is_kv = String.length !workload > 3 && String.sub !workload 0 3 = "kv-" in
  if is_kv && Kv.clients > nproc then begin
    Printf.eprintf
      "refusing to start: %s needs %d client domains/connections, this host \
       has %d CPUs\n"
      !workload Kv.clients nproc;
    exit 3
  end;
  if is_kv then Kv.pin cpus;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* leave through [exit] so that the servers started so far are stopped *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ];
  mkdir_p Kv.work_dir;
  let tr = Tracer.create ~on:(!trace = 1) ~domain:0 in
  let ticks0, steal0 = host_ticks () in
  let short = !short and seed = !seed and seconds = !seconds in
  let r, extra_tracers =
    match !workload with
    | "kv-read-mostly" -> Kv.read_mostly_run ~short ~seed ~seconds ~tr
    | "sim-list5k" -> (Sim.run (Sim.list5k ~short) ~seed ~seconds ~tr, [])
    | _ -> (Sim.run (Sim.hash10k ~short) ~seed ~seconds ~tr, [])
  in
  if tr.Tracer.on then
    Tracer.write (tr :: extra_tracers)
      (Filename.concat Kv.work_dir ("trace-" ^ !workload ^ ".jsonl"));
  let ticks1, steal1 = host_ticks () in
  let steal_share =
    if ticks1 > ticks0 then float_of_int (steal1 - steal0) /. float_of_int (ticks1 - ticks0)
    else 0.
  in
  List.iter (fun p -> Printf.eprintf "CHECK FAILED: %s\n" p) r.problems;
  let e2e, e2e_errors = Manifest.arrange ~zero_missing:false Manifest.end_to_end r.e2e in
  let layers, layer_errors =
    if tr.Tracer.on then Manifest.arrange ~zero_missing:true Manifest.per_layer r.layers
    else ([], [])
  in
  (* a result that does not match the manifest is the benchmark's own
     fault: no result line *)
  (match e2e_errors @ layer_errors with
  | [] -> ()
  | es ->
      List.iter (Printf.eprintf "benchmark fault: %s\n") es;
      exit 1);
  let metrics ms =
    String.concat ","
      (List.map
         (fun x ->
           Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (json_string x.name)
             (json_number x.value) (json_string x.unit_))
         ms)
  in
  (* The record of the run; a traced run adds its end-to-end figures, so
     that traced minus untraced gives the tracing overhead. *)
  Printf.printf
    "{\"host\":{\"nproc\":%d,\"client_cpu\":%s,\"ocaml\":%s,\"cost_model\":%s,\"quantum\":%d,\"steal_share\":%.3f},\"workload\":%s,\"seed\":%d,\"fixed_seeds\":{\"kv_server_prefill\":1,\"sim_hash10k_vbr\":1},\"seconds\":%s,\"short\":%b%s}\n"
    nproc
    (if is_kv then string_of_int (List.hd cpus) else "null")
    (json_string Sys.ocaml_version)
    (json_string Sim.cost_model.Oa_simrt.Cost_model.name)
    Sim.quantum steal_share (json_string !workload) seed (json_number seconds) short
    (if tr.Tracer.on then ",\"end_to_end_while_traced\":{" ^ metrics e2e ^ "}" else "");
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    r.correct r.attempted r.failed
    (metrics (if tr.Tracer.on then layers else e2e))
