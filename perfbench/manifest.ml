(* The metrics the result line carries, as BENCHMARK.json lists them
   (perfbench/test.sh checks that the two agree).  Every workload prints
   every end-to-end metric, and every traced run every per-layer metric.
   A per-layer metric of a layer the workload does not exercise reads 0;
   an end-to-end metric is measured on every workload and is never 0. *)

let end_to_end =
  [ ("setup_s", "s"); ("throughput_ops_s", "1/s"); ("rss_peak_mib", "MiB") ]

let schemes = [ "norecl"; "oa"; "hp"; "ebr"; "vbr" ]

let per_layer =
  [
    ("server.session_setup_us", "us");
    ("server.rss_kib_per_session", "KiB");
    ("server.cpu_us_per_op", "us");
    ("protocol.decode_ns_per_frame", "ns");
    ("protocol.encode_ns_per_frame", "ns");
    ("service.batch_rtt_us", "us");
    ("client.get_p50_us", "us");
    ("client.get_p99_us", "us");
    ("client.mutate_p50_us", "us");
    ("client.mutate_p99_us", "us");
    ("client.session_p50_us", "us");
    ("client.session_lag_us", "us");
    ("hash.exec_ns_per_op", "ns");
    ("smr.oa-real.restarts_per_kop", "count");
    ("smr.oa-real.phases_per_kop", "count");
    ("alloc.chunks_live", "count");
    ("alloc.committed_bytes_per_live_key", "B");
    ("wal.append_us_per_batch", "us");
    ("wal.fsync_us", "us");
    ("wal.fsyncs_per_kop", "count");
    ("wal.records_per_kop", "count");
    ("checkpoint.write_ms", "ms");
    ("checkpoint.count", "count");
    ("recovery.restart_s", "s");
    ("recovery.ckpt_keys", "count");
    ("recovery.wal_records", "count");
    ("recovery.keys_per_s", "1/s");
  ]
  @ List.concat_map
      (fun s ->
        let p = "smr." ^ s ^ "." in
        [
          (p ^ "sim_mops", "Mop/s");
          (p ^ "fences_per_op", "count");
          (p ^ "restarts_per_kop", "count");
          (p ^ "phases_per_kop", "count");
          (p ^ "recycled_per_retired", "ratio");
        ])
      schemes
  @ [
      ("simrt.host_ns_per_sim_op", "ns");
      ("simrt.switches_per_op", "count");
      ("simrt.prefill_host_ms", "ms");
    ]

(* [ms] laid out as [spec]: in its order, with 0 for a metric the run did
   not measure when [zero_missing], and an error for one that is missing
   otherwise, for a duplicate, for a unit that differs, or for a name the
   spec does not list. *)
let arrange ~zero_missing spec (ms : Util.metric list) =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  List.iter
    (fun (x : Util.metric) ->
      if not (List.mem_assoc x.name spec) then err "metric %s is not in the manifest" x.name;
      if List.length (List.filter (fun (y : Util.metric) -> y.name = x.name) ms) > 1 then
        err "metric %s measured twice" x.name)
    ms;
  let out =
    List.map
      (fun (name, unit_) ->
        match List.find_opt (fun (x : Util.metric) -> x.name = name) ms with
        | Some x ->
            if x.unit_ <> unit_ then err "metric %s in %s, manifest says %s" name x.unit_ unit_;
            x
        | None ->
            if not zero_missing then err "metric %s was not measured" name;
            Util.m name unit_ 0.)
      spec
  in
  (out, List.sort_uniq compare !errors)
