(* Spans and counts recorded by the benchmark around its calls into each
   layer's public functions (the program itself is not instrumented).

   A span is (name, start, end, parent, request id).  Spans stay in memory
   and are written out when the run ends; per-name totals are kept for
   every span, so the per-layer metrics do not depend on how many spans
   are retained.  One tracer per domain: a tracer is single-writer. *)

type span = {
  id : int;
  parent : int;  (** enclosing span's id, -1 at the top *)
  rid : int;  (** request (or batch) id shared by a request's spans *)
  name : string;
  start_ns : int;
  end_ns : int;
}

type agg = { mutable n : int; mutable total_ns : int }

type t = {
  on : bool;
  domain : int;
  mutable spans : span list;  (** newest first, at most [keep] *)
  mutable kept : int;
  mutable next : int;
  mutable cur : int;
  aggs : (string, agg) Hashtbl.t;
  counts : (string, int ref) Hashtbl.t;
}

(* Enough spans to reconstruct request paths without letting a long
   traced run grow without bound. *)
let keep = 100_000

let create ~on ~domain =
  {
    on;
    domain;
    spans = [];
    kept = 0;
    next = 0;
    cur = -1;
    aggs = Hashtbl.create 16;
    counts = Hashtbl.create 16;
  }

let off = create ~on:false ~domain:0

let agg t name =
  match Hashtbl.find_opt t.aggs name with
  | Some a -> a
  | None ->
      let a = { n = 0; total_ns = 0 } in
      Hashtbl.replace t.aggs name a;
      a

(* [span t name ~rid f] runs [f] as a span of [name]; with tracing off it
   is just [f ()]. *)
let span t ?(rid = -1) name f =
  if not t.on then f ()
  else begin
    let id = (t.domain lsl 40) lor t.next in
    t.next <- t.next + 1;
    let parent = t.cur in
    t.cur <- id;
    let start_ns = Util.now_ns () in
    let finish () =
      let end_ns = Util.now_ns () in
      t.cur <- parent;
      let a = agg t name in
      a.n <- a.n + 1;
      a.total_ns <- a.total_ns + (end_ns - start_ns);
      if t.kept < keep then begin
        t.spans <- { id; parent; rid; name; start_ns; end_ns } :: t.spans;
        t.kept <- t.kept + 1
      end
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let count t name n =
  if t.on then
    match Hashtbl.find_opt t.counts name with
    | Some r -> r := !r + n
    | None -> Hashtbl.replace t.counts name (ref n)

(* Totals over several tracers (one per client domain). *)
let total_ns ts name =
  List.fold_left
    (fun acc t ->
      match Hashtbl.find_opt t.aggs name with
      | Some a -> acc + a.total_ns
      | None -> acc)
    0 ts

let counted ts name =
  List.fold_left
    (fun acc t ->
      match Hashtbl.find_opt t.counts name with
      | Some r -> acc + !r
      | None -> acc)
    0 ts

(* JSON lines: every retained span, oldest first, then every count. *)
let write ts path =
  let oc = open_out path in
  List.iter
    (fun t ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"span\":%S,\"id\":%d,\"parent\":%d,\"rid\":%d,\"start_ns\":%d,\"end_ns\":%d}\n"
            s.name s.id s.parent s.rid s.start_ns s.end_ns)
        (List.rev t.spans))
    ts;
  List.iter
    (fun t ->
      Hashtbl.iter
        (fun name r ->
          Printf.fprintf oc "{\"count\":%S,\"domain\":%d,\"value\":%d}\n" name
            t.domain !r)
        t.counts)
    ts;
  close_out oc
