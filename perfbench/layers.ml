(* In-process probes of single layers for the traced kv runs.  Each one
   drives a layer's public functions directly, with the shapes the served
   workload gives them (key space, prefill, mix, batch size), so a change
   to that layer shows here without the socket and scheduling noise of the
   served path. *)

open Util
module Sv = Oa_net.Service
module Mix = Oa_workload.Op_mix

(* Service.submit / await of one [depth]-op batch, no socket, over the
   service configuration the server runs with. *)
let service_batch_rtt_us ~(cfg : Sv.config) ~keys ~mix ~depth ~batches ~seed =
  let svc = Sv.create cfg in
  Sv.start svc;
  let rng = Oa_util.Splitmix.create seed in
  let lat = Samples.create () in
  for _ = 1 to batches do
    let b = Sv.new_batch () in
    let t0 = now_ns () in
    for _ = 1 to depth do
      let k = 1 + Oa_util.Splitmix.below rng keys in
      let kind =
        match Mix.draw mix rng with
        | Mix.Contains -> Sv.Get
        | Mix.Insert -> Sv.Insert
        | Mix.Delete -> Sv.Delete
      in
      ignore (Sv.submit svc b kind k)
    done;
    Sv.await b;
    Samples.add lat (now_ns () - t0)
  done;
  Sv.stop svc;
  float_of_int (percentile 0.5 (Samples.to_array lat)) /. 1e3

(* Hash_table.run_batch_keyed with OA on the real backend, sized as
   Service sizes a one-shard, one-worker table.  Returns
   (ns per op, restarts per kop, phases per kop, committed bytes per
   live key). *)
let hash_exec ~(cfg : Sv.config) ~mix ~depth ~ops ~seed =
  let module R = (val Oa_runtime.Real_backend.make ()) in
  let module Sch = Oa_smr.Schemes.Make (R) in
  let module S = (val Sch.pack Oa_smr.Schemes.Optimistic_access) in
  let module H = Oa_structures.Hash_table.Make (S) in
  let module I = Oa_core.Smr_intf in
  let expected = max 16 cfg.Sv.prefill in
  let capacity = expected + max cfg.Sv.delta (4 * cfg.Sv.chunk_size * 2) in
  let smr_cfg =
    {
      I.default_config with
      I.chunk_size = cfg.Sv.chunk_size;
      retire_threshold = max 16 (cfg.Sv.delta / 2);
      epoch_threshold = max 16 (cfg.Sv.delta / 2);
    }
  in
  let t =
    H.create ~elastic:cfg.Sv.elastic ~capacity ~expected_size:expected smr_cfg
  in
  let ctx = H.register t in
  let rng = Oa_util.Splitmix.create seed in
  let inserted = ref 0 in
  while !inserted < cfg.Sv.prefill do
    if H.insert t ctx (1 + Oa_util.Splitmix.below rng cfg.Sv.key_range) then
      incr inserted
  done;
  let keys = Array.make depth 0 in
  let kinds = Array.make depth Mix.Contains in
  let scratch = Array.make depth 0 in
  let st0 = S.stats (H.smr t) in
  let batches = ops / depth in
  let t0 = now_ns () in
  for _ = 1 to batches do
    for i = 0 to depth - 1 do
      keys.(i) <- 1 + Oa_util.Splitmix.below rng cfg.Sv.key_range;
      kinds.(i) <- Mix.draw mix rng
    done;
    H.run_batch_keyed t ctx ~scratch ~keys (fun i ->
        ignore
          (match kinds.(i) with
          | Mix.Contains -> H.contains t ctx keys.(i)
          | Mix.Insert -> H.insert t ctx keys.(i)
          | Mix.Delete -> H.delete t ctx keys.(i)))
  done;
  let dt = now_ns () - t0 in
  let st = S.stats (H.smr t) in
  let n = batches * depth in
  let kop x = 1000. *. float_of_int x /. float_of_int n in
  let live = List.length (H.to_list t) in
  let committed =
    Option.value ~default:0
      (List.assoc_opt "mem_committed_bytes" (H.A.gauges (H.arena t)))
  in
  ( float_of_int dt /. float_of_int n,
    kop (st.I.restarts - st0.I.restarts),
    kop (st.I.phases - st0.I.phases),
    float_of_int committed /. float_of_int (max 1 live) )

(* Wal.append of [batch] records and the fsync that commits them, in a
   scratch directory.  Returns (median append us, median fsync us). *)
let wal ~dir ~batch ~batches =
  rm_rf dir;
  mkdir_p dir;
  let w = Oa_store.Wal.create ~dir ~segment_bytes:(1 lsl 20) ~start_seq:0 () in
  let ops =
    Array.init batch (fun i ->
        if i land 1 = 0 then Oa_store.Record.Insert else Oa_store.Record.Delete)
  in
  let keys = Array.init batch (fun i -> i + 1) in
  let app = Samples.create () and fs = Samples.create () in
  for _ = 1 to batches do
    let t0 = now_ns () in
    let last, _ = Oa_store.Wal.append w ~n:batch ops keys in
    let t1 = now_ns () in
    ignore (Oa_store.Wal.sync w ~upto:last);
    let t2 = now_ns () in
    Samples.add app (t1 - t0);
    Samples.add fs (t2 - t1)
  done;
  Oa_store.Wal.close w;
  rm_rf dir;
  ( float_of_int (percentile 0.5 (Samples.to_array app)) /. 1e3,
    float_of_int (percentile 0.5 (Samples.to_array fs)) /. 1e3 )

(* Checkpoint.write of an [n]-key set; median ms of [reps]. *)
let checkpoint_write_ms ~dir ~n ~reps =
  rm_rf dir;
  mkdir_p dir;
  let keys = Array.init n (fun i -> (2 * i) + 1) in
  let times =
    List.init reps (fun _ ->
        let t0 = now_ns () in
        Oa_store.Checkpoint.write ~dir { Oa_store.Checkpoint.seq = 1; keys; gauges = [] };
        float_of_int (now_ns () - t0) /. 1e6)
  in
  rm_rf dir;
  median_f times

(* Recovery.run over a copy of a killed shard directory.  Returns
   (checkpoint keys, WAL records replayed, keys per second). *)
let recovery ~dir =
  let keys = ref 0 in
  let t0 = now_ns () in
  let s =
    Oa_store.Recovery.run ~dir
      ~on_snapshot:(fun ks -> keys := !keys + Array.length ks)
      ~on_record:(fun _ -> incr keys)
  in
  let dt = s_of_ns (now_ns () - t0) in
  ( s.Oa_store.Recovery.ckpt_keys,
    s.Oa_store.Recovery.replayed,
    float_of_int !keys /. dt )
