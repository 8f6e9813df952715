(* The simulated workloads: the paper's LinkedList5K and Hash10K points,
   driven in-process over the deterministic simulator for five schemes.

   Every simulated count (ops, cycles, fences, restarts, phases) is exact
   for a given seed, so the scheme-level metrics come from here.
   [throughput_ops_s] is simulated too: the geometric mean over the five
   schemes of simulated ops per simulated second.  [setup_s] and
   [rss_peak_mib] are host measurements, and so is the simulator's own
   speed (simrt.host_ns_per_sim_op, traced runs).

   A run attempts whole rounds.  One round runs [ops] operations on each
   scheme, split over [threads] simulated threads.  The simulated figures
   are those of round 1; later rounds add host-time samples.
   - list5k: the five lists are prefilled once (the O(n^2) prefill is the
     set-up) and every round continues on them.
   - hash10k: every round rebuilds and prefills each table, so every round
     is the same execution; round 2 re-runs round 1 and must repeat its
     counts exactly.  VBR runs there on a fixed seed, because its
     allocation fault (see README.md) makes some of its inserts raise
     [Arena_exhausted]; those inserts count as failed, and with inputs
     that do not depend on --seed they are the same share of every run. *)

open Util
module I = Oa_core.Smr_intf
module E = Oa_harness.Experiment
module Schemes = Oa_smr.Schemes
module CM = Oa_simrt.Cost_model
module Mix = Oa_workload.Op_mix
module Kd = Oa_workload.Key_dist

type structure = List | Hash

type wl = {
  structure : structure;
  prefill : int;  (** keys drawn from [1 .. 2 * prefill] *)
  threads : int;
  mix : Mix.t;
  delta : int;  (** arena slack; raised to the per-thread floor *)
  ops : int;  (** per scheme per round *)
  fresh_rounds : bool;  (** rebuild the structures every round *)
  min_rounds : int;
  max_rounds : int;  (** sizes NoRecl's arena for a continued run *)
}

let cost_model = CM.amd_opteron
let quantum = 128

let schemes =
  Schemes.
    [
      No_reclamation; Optimistic_access; Hazard_pointers; Epoch_based;
      Version_based;
    ]

let short_name id = String.lowercase_ascii (Schemes.id_name id)

(* The seed a scheme's inputs are drawn from. *)
let point_seed w ~seed id =
  if w.structure = Hash && id = Schemes.Version_based then 1 else seed

let list5k ~short =
  {
    structure = List;
    prefill = (if short then 500 else 5_000);
    threads = 16;
    mix = Mix.read_mostly;
    delta = Oa_harness.Figures.fig1_delta;
    ops = (if short then 320 else 1_600);
    fresh_rounds = false;
    min_rounds = 1;
    max_rounds = 64;
  }

let hash10k ~short =
  {
    structure = Hash;
    prefill = (if short then 1_000 else 10_000);
    threads = 16;
    mix = Mix.v ~read_pct:50 ~insert_pct:25 ~delete_pct:25;
    delta = 0;
    ops = (if short then 20_000 else 200_000);
    fresh_rounds = true;
    min_rounds = 2;
    max_rounds = 1_000;
  }

(* --- one scheme over one simulated machine --- *)

type ops = {
  contains : int -> bool;
  insert : int -> bool;
  delete : int -> bool;
  quiesce : unit -> unit;
}

type point = {
  id : Schemes.id;
  par_run : n:int -> (int -> unit) -> unit;
  sim_elapsed : unit -> float;  (** of the last [par_run] *)
  op_work : unit -> unit;
  register : unit -> ops;
  contents : unit -> int list;
  validate : unit -> (unit, string) Stdlib.result;
  stats : unit -> I.stats;
  switches : unit -> int;
  (* host-side bookkeeping of the operations run on this point *)
  seed : int;
  ctxs : ops option array;
  rngs : Oa_util.Splitmix.t array;
  present0 : Bytes.t;  (** presence after prefill *)
  ins : int array;  (** successful inserts per key *)
  del : int array;  (** successful deletes per key *)
}

let spec w ~seed id =
  {
    E.default_spec with
    E.structure = (match w.structure with List -> E.Linked_list | Hash -> E.Hash_table);
    prefill = w.prefill;
    scheme = id;
    threads = w.threads;
    mix = w.mix;
    total_ops = w.ops * (if w.fresh_rounds then 1 else w.max_rounds);
    delta = w.delta;
    seed;
    backend = E.Sim { cost_model; quantum };
  }

let make_point w ~seed ~traced id : point =
  let spec = spec w ~seed id in
  let sched = Oa_simrt.Sched.create ~seed ~quantum cost_model in
  let trace =
    if traced then Some (Oa_simrt.Trace.create ~capacity:16 ()) else None
  in
  let module R =
    (val Oa_runtime.Sim_backend.of_sched ~max_threads:(w.threads + 1) ?trace
           sched)
  in
  let module Sch = Schemes.Make (R) in
  let module S = (val Sch.pack id) in
  let capacity = E.arena_capacity spec in
  let cfg = E.smr_config spec ~hp_slots:3 ~max_cas:1 in
  let register, contents, validate, stats =
    match w.structure with
    | List ->
        let module L = Oa_structures.Linked_list.Make (S) in
        let t = L.create ~capacity cfg in
        ( (fun () ->
            let c = L.register t in
            {
              contains = L.contains c;
              insert = L.insert c;
              delete = L.delete c;
              quiesce = (fun () -> L.quiesce c);
            }),
          (fun () -> L.to_list t),
          (fun () -> L.validate t ~limit:(10 * capacity)),
          fun () -> S.stats (L.smr t) )
    | Hash ->
        let module H = Oa_structures.Hash_table.Make (S) in
        let t = H.create ~capacity ~expected_size:w.prefill cfg in
        ( (fun () ->
            let c = H.register t in
            {
              contains = H.contains t c;
              insert = H.insert t c;
              delete = H.delete t c;
              quiesce = (fun () -> H.quiesce c);
            }),
          (fun () -> H.to_list t),
          (fun () -> H.validate t ~limit:(10 * capacity)),
          fun () -> S.stats (H.smr t) )
  in
  let range = 2 * w.prefill in
  {
    id;
    par_run = R.par_run;
    sim_elapsed = R.elapsed_seconds;
    op_work = R.op_work;
    register;
    contents;
    validate;
    stats;
    switches =
      (fun () ->
        match trace with
        | None -> 0
        | Some tr -> Oa_simrt.Trace.length tr + Oa_simrt.Trace.dropped tr);
    seed;
    ctxs = Array.make w.threads None;
    (* the thread seeding of Oa_harness.Experiment, so that a fresh round
       repeats `oa_cli run` for the same point and seed *)
    rngs = Array.init w.threads (fun tid -> Oa_util.Splitmix.create ((seed * 7919) + tid));
    present0 = Bytes.make (range + 1) '\000';
    ins = Array.make (range + 1) 0;
    del = Array.make (range + 1) 0;
  }

(* Prefill from one simulated thread until [prefill] distinct keys are
   in, as Oa_harness.Experiment does; returns host nanoseconds. *)
let prefill w p =
  let dist = Kd.uniform ~range:(2 * w.prefill) in
  let t0 = now_ns () in
  p.par_run ~n:1 (fun _ ->
      let o = p.register () in
      let rng = Oa_util.Splitmix.create (p.seed lxor 0x5eed) in
      let remaining = ref w.prefill in
      while !remaining > 0 do
        if o.insert (Kd.draw dist rng) then decr remaining
      done);
  let dt = now_ns () - t0 in
  List.iter (fun k -> Bytes.set p.present0 k '\001') (p.contents ());
  dt

type round = {
  completed : int;
  failed : int;  (** inserts that raised [Arena_exhausted] *)
  sim_s : float;
  host_ns : int;  (** host CPU time *)
  delta : I.stats;  (** scheme counters accrued by this round *)
  switches : int;
}

let sub_stats (a : I.stats) (b : I.stats) =
  I.
    {
      allocs = a.allocs - b.allocs;
      retires = a.retires - b.retires;
      recycled = a.recycled - b.recycled;
      restarts = a.restarts - b.restarts;
      phases = a.phases - b.phases;
      fences = a.fences - b.fences;
    }

let run_round w p =
  let dist = Kd.uniform ~range:(2 * w.prefill) in
  let per_thread = w.ops / w.threads in
  let completed = ref 0 and failed = ref 0 in
  let st0 = p.stats () and sw0 = p.switches () in
  let t0 = cpu_ns () in
  p.par_run ~n:w.threads (fun tid ->
      let o =
        match p.ctxs.(tid) with
        | Some o -> o
        | None ->
            let o = p.register () in
            p.ctxs.(tid) <- Some o;
            o
      in
      let rng = p.rngs.(tid) in
      for _ = 1 to per_thread do
        p.op_work ();
        let k = Kd.draw dist rng in
        match Mix.draw w.mix rng with
        | Mix.Contains ->
            ignore (o.contains k);
            incr completed
        | Mix.Insert -> (
            match o.insert k with
            | ok ->
                if ok then p.ins.(k) <- p.ins.(k) + 1;
                incr completed
            | exception I.Arena_exhausted -> incr failed)
        | Mix.Delete ->
            if o.delete k then p.del.(k) <- p.del.(k) + 1;
            incr completed
      done);
  let host_ns = cpu_ns () - t0 in
  {
    completed = !completed;
    failed = !failed;
    sim_s = p.sim_elapsed ();
    host_ns;
    delta = sub_stats (p.stats ()) st0;
    switches = p.switches () - sw0;
  }

(* After a final quiesce: the set property per key, structural validity,
   and retire/reclaim conservation.  Returns the problems found. *)
let check w p =
  p.par_run ~n:w.threads (fun tid ->
      match p.ctxs.(tid) with Some o -> o.quiesce () | None -> ());
  let name = Schemes.id_name p.id in
  let problems = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let final = Bytes.make (Bytes.length p.present0) '\000' in
  List.iter (fun k -> Bytes.set final k '\001') (p.contents ());
  let mismatches = ref 0 in
  for k = 1 to Bytes.length final - 1 do
    let v = Char.code (Bytes.get p.present0 k) + p.ins.(k) - p.del.(k) in
    if (v <> 0 && v <> 1) || v <> Char.code (Bytes.get final k) then begin
      if !mismatches = 0 then
        bad "%s: key %d: initial %d + %d inserts - %d deletes, final %d" name k
          (Char.code (Bytes.get p.present0 k))
          p.ins.(k) p.del.(k)
          (Char.code (Bytes.get final k));
      incr mismatches
    end
  done;
  if !mismatches > 1 then bad "%s: %d keys break the set property" name !mismatches;
  (match p.validate () with
  | Ok () -> ()
  | Error e -> bad "%s: validate: %s" name e);
  let s = p.stats () in
  if not (s.I.recycled <= s.I.retires && s.I.retires <= s.I.allocs) then
    bad "%s: conservation: allocs=%d retires=%d recycled=%d" name s.I.allocs
      s.I.retires s.I.recycled;
  !problems

(* --- the workload --- *)

(* A tiny list point run twice: for the continued list5k run, where
   re-running a full point would repeat its prefill. *)
let rerun_probe ~seed =
  let w =
    { (list5k ~short:true) with prefill = 200; ops = 160; max_rounds = 1 }
  in
  let once () =
    let p = make_point w ~seed ~traced:false Schemes.Optimistic_access in
    ignore (prefill w p);
    let r = run_round w p in
    (r.completed, r.failed, r.sim_s, r.delta)
  in
  once () = once ()

let run w ~seed ~seconds ~(tr : Tracer.t) : result =
  let traced = tr.Tracer.on in
  let problems = ref [] in
  (* each scheme's build and prefill is one sample of the set-up time *)
  let setups = ref [] and prefills = ref [] in
  let fresh () =
    List.mapi
      (fun i id ->
        let t0 = now_ns () in
        let p = make_point w ~seed:(point_seed w ~seed id) ~traced id in
        let ns = Tracer.span tr ~rid:i "simrt.prefill" (fun () -> prefill w p) in
        setups := s_of_ns (now_ns () - t0) :: !setups;
        prefills := ns :: !prefills;
        p)
      schemes
  in
  let check_all ps =
    List.iter
      (fun p -> problems := Tracer.span tr "sim.check" (fun () -> check w p) @ !problems)
      ps
  in
  let points = ref (fresh ()) in
  let rounds = ref [] in
  (* per scheme: every round's result, newest first *)
  let by_scheme = Hashtbl.create 8 in
  let measure_start = now_ns () in
  let n = ref 0 in
  while
    !n < w.min_rounds
    || (!n < w.max_rounds && s_of_ns (now_ns () - measure_start) < seconds)
  do
    if w.fresh_rounds && !n > 0 then points := fresh ();
    let rs =
      List.mapi
        (fun i p ->
          let r = Tracer.span tr ~rid:i "sim.round" (fun () -> run_round w p) in
          Hashtbl.replace by_scheme p.id
            (r :: Option.value ~default:[] (Hashtbl.find_opt by_scheme p.id));
          r)
        !points
    in
    rounds := rs :: !rounds;
    incr n;
    if w.fresh_rounds then check_all !points
  done;
  if not w.fresh_rounds then check_all !points;
  (* determinism: identical rounds repeat exactly; a continued run re-runs
     a small point instead *)
  if w.fresh_rounds then
    Hashtbl.iter
      (fun id rs ->
        match List.rev rs with
        | r1 :: r2 :: _ ->
            if
              (r1.completed, r1.failed, r1.sim_s, r1.delta)
              <> (r2.completed, r2.failed, r2.sim_s, r2.delta)
            then
              problems :=
                Printf.sprintf "%s: round 2 did not repeat round 1"
                  (Schemes.id_name id)
                :: !problems
        | _ -> ())
      by_scheme
  else if not (rerun_probe ~seed) then
    problems := "re-running a list point changed its counts" :: !problems;
  let all = List.concat !rounds in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 all in
  let completed = sum (fun r -> r.completed) in
  let failed = sum (fun r -> r.failed) in
  let host_ns = sum (fun r -> r.host_ns) in
  let round_tput =
    List.map
      (fun rs ->
        let c = List.fold_left (fun a r -> a + r.completed) 0 rs in
        let h = List.fold_left (fun a r -> a + r.host_ns) 0 rs in
        float_of_int c /. s_of_ns h)
      !rounds
  in
  prerr_endline
    ("simulated ops per host CPU second, by round: "
    ^ String.concat " " (List.rev_map (Printf.sprintf "%.0f") round_tput));
  (* simulated ops per simulated second of each scheme's first round *)
  let sim_tput id =
    let r = List.hd (List.rev (Hashtbl.find by_scheme id)) in
    float_of_int r.completed /. r.sim_s
  in
  let geomean l =
    exp (List.fold_left (fun a x -> a +. log x) 0. l /. float_of_int (List.length l))
  in
  let e2e =
    [
      m "setup_s" "s" (median_f !setups);
      m "throughput_ops_s" "1/s" (geomean (List.map sim_tput schemes));
      m "rss_peak_mib" "MiB" (float_of_int (proc_status_kib "self" "VmHWM") /. 1024.);
    ]
  in
  let layers =
    List.concat_map
      (fun id ->
        let rs = Hashtbl.find by_scheme id in
        let ops = List.fold_left (fun a r -> a + r.completed + r.failed) 0 rs in
        let tot f = float_of_int (List.fold_left (fun a r -> a + f r.delta) 0 rs) in
        let per_op x = x /. float_of_int ops in
        let s = "smr." ^ short_name id ^ "." in
        [
          m (s ^ "sim_mops") "Mop/s" (sim_tput id /. 1e6);
          m (s ^ "fences_per_op") "count" (per_op (tot (fun d -> d.I.fences)));
          m (s ^ "restarts_per_kop") "count"
            (1000. *. per_op (tot (fun d -> d.I.restarts)));
          m (s ^ "phases_per_kop") "count"
            (1000. *. per_op (tot (fun d -> d.I.phases)));
          m (s ^ "recycled_per_retired") "ratio"
            (let ret = tot (fun d -> d.I.retires) in
             if ret = 0. then 0. else tot (fun d -> d.I.recycled) /. ret);
        ])
      schemes
    @ [
        m "simrt.host_ns_per_sim_op" "ns"
          (float_of_int host_ns /. float_of_int (completed + failed));
        m "simrt.switches_per_op" "count"
          (float_of_int (sum (fun r -> r.switches)) /. float_of_int (completed + failed));
        m "simrt.prefill_host_ms" "ms"
          (median_f (List.map (fun ns -> float_of_int ns /. 1e6) !prefills));
      ]
  in
  {
    correct = !problems = [];
    attempted = completed + failed;
    failed;
    e2e;
    layers = (if traced then layers else []);
    problems = !problems;
  }
