(* In-memory span recorder for the traced run.

   A span has a name, a start, an end and a parent.  Coarse spans (a grid
   cell, a run, a program, an image) are kept individually and written
   out when the run ends.  Fine spans (millions of [malloc] or
   [cross_call] calls) are aggregated per name into a call count, total
   time and self time, so the recorder's memory stays bounded.  Self time
   is a span's duration minus the time its direct children cover; fine
   and coarse children both count.  With [enabled] false every wrapper
   is a plain call. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type agg = { a_name : string; mutable calls : int; mutable total : float; mutable self : float }

type span = {
  id : int;
  parent : int;  (** -1 at the root *)
  name : string;
  start : float;
  stop : float;
  self_s : float;
}

type frame = { f_id : int; mutable child : float }

let enabled = ref false
let aggs : (string, agg) Hashtbl.t = Hashtbl.create 64
let spans : span list ref = ref []
let next_id = ref 0
let stack : frame list ref = ref []
let origin = ref 0.0

let reset () =
  Hashtbl.reset aggs;
  spans := [];
  next_id := 0;
  stack := [];
  origin := now ()

(** The aggregate for [name]; look it up once and reuse it on hot paths. *)
let agg name =
  match Hashtbl.find_opt aggs name with
  | Some a -> a
  | None ->
      let a = { a_name = name; calls = 0; total = 0.0; self = 0.0 } in
      Hashtbl.replace aggs name a;
      a

let parent_id () = match !stack with f :: _ -> f.f_id | [] -> -1

let close fr t0 a =
  let t1 = now () in
  let dur = t1 -. t0 in
  stack := (match !stack with _ :: rest -> rest | [] -> []);
  (match !stack with p :: _ -> p.child <- p.child +. dur | [] -> ());
  a.calls <- a.calls + 1;
  a.total <- a.total +. dur;
  a.self <- a.self +. (dur -. fr.child);
  t1

(** [fine a f] runs [f ()] as an aggregated span of [a]. *)
let fine a f =
  if not !enabled then f ()
  else begin
    let fr = { f_id = -1; child = 0.0 } in
    stack := fr :: !stack;
    let t0 = now () in
    match f () with
    | v ->
        ignore (close fr t0 a);
        v
    | exception e ->
        ignore (close fr t0 a);
        raise e
  end

(** [coarse name f] runs [f ()] as an individually recorded span (also
    aggregated under [name]). *)
let coarse name f =
  if not !enabled then f ()
  else begin
    let a = agg name in
    let id = !next_id in
    incr next_id;
    let parent = parent_id () in
    let fr = { f_id = id; child = 0.0 } in
    stack := fr :: !stack;
    let t0 = now () in
    let finish () =
      let t1 = close fr t0 a in
      spans :=
        {
          id;
          parent;
          name;
          start = t0 -. !origin;
          stop = t1 -. !origin;
          self_s = t1 -. t0 -. fr.child;
        }
        :: !spans
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let self_s name = match Hashtbl.find_opt aggs name with Some a -> a.self | None -> 0.0
let calls name = match Hashtbl.find_opt aggs name with Some a -> a.calls | None -> 0
let total_s name = match Hashtbl.find_opt aggs name with Some a -> a.total | None -> 0.0

(** Write the coarse spans and the per-name aggregates as JSON. *)
let write path =
  let oc = open_out path in
  Printf.fprintf oc "{\"spans\":[";
  List.iteri
    (fun i s ->
      Printf.fprintf oc "%s\n{\"id\":%d,\"parent\":%d,\"name\":%S,\"start\":%.9f,\"end\":%.9f,\"self\":%.9f}"
        (if i > 0 then "," else "")
        s.id s.parent s.name s.start s.stop s.self_s)
    (List.rev !spans);
  Printf.fprintf oc "],\n\"aggregates\":[";
  let rows = Hashtbl.fold (fun _ a acc -> a :: acc) aggs [] in
  let rows = List.sort (fun a b -> compare a.a_name b.a_name) rows in
  List.iteri
    (fun i a ->
      Printf.fprintf oc "%s\n{\"name\":%S,\"calls\":%d,\"total\":%.9f,\"self\":%.9f}"
        (if i > 0 then "," else "")
        a.a_name a.calls a.total a.self)
    rows;
  Printf.fprintf oc "]}\n";
  close_out oc
