(* audit_fleet: the static auditor over a seeded fleet of
   [Firmware.fleet] variants plus the shipped and corpus images.  Each
   image gets a cold [Audit.run_stats] (a fresh private summary cache, so
   every compartment is analyzed); its summaries then join a cache shared
   by the pass.  The image's smallest compartment is patched and the
   image re-audited warm through the shared cache.  Finally the shipped
   images' jit plans go through [Planverify.collect]/[verify_plan].
   Images are built when needed and dropped after their warm audit.  The
   seed picks the fleet variants and each variant's patch. *)

open Common
module Loader = Cheriot_rtos.Loader
module Machine = Cheriot_isa.Machine
module Asm = Cheriot_isa.Asm
module Insn = Cheriot_isa.Insn
module Encode = Cheriot_isa.Encode
module Sram = Cheriot_mem.Sram
module Firmware = Cheriot_workloads.Firmware
module Audit = Cheriot_analysis.Audit
module Summary = Cheriot_analysis.Summary
module Linkflow = Cheriot_analysis.Linkflow
module Rules = Cheriot_analysis.Rules
module Corpus = Cheriot_analysis.Corpus
module Planverify = Cheriot_analysis.Planverify

let fleet_images ~minimal = if minimal then 4 else 200

(* The sensor's [Li a0, variant] is [lui a0, 0; addi a0, a0, variant],
   so every variant below 2048 differs from the others in one word. *)
let variants = (0, 2047)

(* --- images and patches ---------------------------------------------------- *)

type image = {
  name : string;  (** report name *)
  build : unit -> Loader.t;
  cold_id : string;
  patch : Loader.t -> unit;  (** the one-compartment patch *)
  warm_id : string;
}

let code_bytes ((_, b) : string * Loader.built) = Asm.bytes_size b.Loader.image

(* Bump the first small [addi] of the smallest compartment that has one. *)
let patch_smallest (t : Loader.t) =
  let by_size =
    List.stable_sort (fun a b -> compare (code_bytes a) (code_bytes b)) t.Loader.compartments
  in
  let patch_in ((_, b) : string * Loader.built) =
    let o = b.Loader.image.Asm.origin in
    let limit = o + Asm.bytes_size b.Loader.image in
    let rec go a =
      a < limit
      &&
      match Encode.decode (Sram.read32 t.Loader.sram a) with
      | Some (Insn.Op_imm (Insn.Add, rd, rs1, imm)) when rd <> 0 && imm >= 0 && imm < 2000 ->
          Sram.write32 t.Loader.sram a (Encode.encode (Insn.Op_imm (Insn.Add, rd, rs1, imm + 1)));
          true
      | _ -> go (a + 4)
    in
    go o
  in
  ignore (List.exists patch_in by_size)

(* Retarget a fleet image's sensor from [variant] to [variant']: the image
   becomes [Firmware.fleet ~variant:variant'], word for word. *)
let patch_variant ~variant ~variant' (t : Loader.t) =
  let b = Loader.find t "sensor" in
  let a = Asm.label b.Loader.image "main" + 4 in
  let a0 = Insn.reg_a0 in
  (match Encode.decode (Sram.read32 t.Loader.sram a) with
  | Some (Insn.Op_imm (Insn.Add, rd, rs1, imm)) when rd = a0 && rs1 = a0 && imm = variant -> ()
  | _ -> failwith "fleet image: sensor variant word not found");
  Sram.write32 t.Loader.sram a (Encode.encode (Insn.Op_imm (Insn.Add, a0, a0, variant')))

let fleet_id v = Printf.sprintf "audit_fleet/fleet/%d" v

let fixed_images () =
  List.map
    (fun (n, build) -> ("shipped", n, build))
    Firmware.shipped
  @ List.map (fun (e : Corpus.entry) -> ("corpus", e.name, e.build)) Corpus.entries

let fixed_image (kind, n, build) =
  {
    name = n;
    build;
    cold_id = Printf.sprintf "audit_fleet/%s/%s/cold" kind n;
    patch = patch_smallest;
    warm_id = Printf.sprintf "audit_fleet/%s/%s/warm" kind n;
  }

let fleet_image ~variant ~variant' =
  {
    name = "fleet";
    build = (fun () -> Firmware.fleet ~variant ());
    cold_id = fleet_id variant;
    patch = patch_variant ~variant ~variant';
    warm_id = fleet_id variant';
  }

let images ~seed ~minimal =
  let st = Random.State.make [| seed |] in
  let lo, hi = variants in
  let fleet =
    List.init (fleet_images ~minimal) (fun _ ->
        let variant = lo + Random.State.int st (hi - lo + 1) in
        let variant' = lo + ((variant - lo + 1 + Random.State.int st (hi - lo)) mod (hi - lo + 1)) in
        fleet_image ~variant ~variant')
  in
  let fixed = List.map fixed_image (fixed_images ()) in
  let fixed =
    if minimal then List.filteri (fun i _ -> i < 3 || i mod 8 = 0) fixed else fixed
  in
  fixed @ fleet

(* The sorted report bytes, as the pinned digest plus their shape. *)
let render name findings (st : Audit.stats) ~report =
  let json = report [ (name, Rules.sort_findings findings) ] in
  Printf.sprintf "compartments=%d findings=%d report=%s" st.Audit.compartments
    (List.length findings)
    (Digest.to_hex (Digest.string json))

let plan_id n = Printf.sprintf "audit_fleet/plans/%s" n

let plan_machine build =
  let t = build () in
  let m = t.Loader.machine in
  m.Machine.hot_threshold <- 2;
  m.Machine.hot_adaptive <- false;
  m

let render_plans ?(verify = Planverify.verify_plan) ps =
  let unsound =
    List.length (List.filter (fun p -> verify p <> Planverify.Sound) ps)
  in
  Printf.sprintf "plans=%d unsound=%d" (List.length ps) unsound

let merge ~into (c : Summary.cache) = Hashtbl.iter (fun _ s -> Summary.add into s) c.Summary.tbl

let audit_out ~kind name (fs, st) = { out = render name fs st ~report:Rules.report_to_json; kind; cycles = 0; insns = 0 }

let ops ~seed ~minimal =
  let shared = Summary.create_cache () in
  let image_ops img =
    let cur = ref None in
    let take () = match !cur with Some t -> t | None -> failwith "image not built" in
    [
      op img.cold_id
        (fun () -> cur := Some (img.build ()))
        (fun () ->
          let priv = Summary.create_cache () in
          let r = Audit.run_stats ~cache:priv (take ()) in
          merge ~into:shared priv;
          audit_out ~kind:Cold_audit img.name r);
      op img.warm_id
        (fun () -> img.patch (take ()))
        (fun () ->
          let t = take () in
          cur := None;
          let ((_, st) as r) = Audit.run_stats ~cache:shared t in
          if st.Audit.cache_misses > 1 then
            failwith "warm re-audit re-analyzed more than the patched compartment";
          audit_out ~kind:Warm_audit img.name r);
    ]
  in
  let plan_op (n, build) =
    op (plan_id n)
      (fun () -> plan_machine build)
      (fun m ->
        { out = render_plans (Planverify.collect m); kind = Plan_check; cycles = 0; insns = 0 })
  in
  List.concat_map image_ops (images ~seed ~minimal) @ List.map plan_op Firmware.shipped

(* --- traced replica: [Audit.run_stats] step for step ----------------------- *)

let run_stats_traced ~(cache : Summary.cache) (t : Loader.t) =
  let link_acc = Audit.acc_create () in
  Span.fine (Span.agg "audit.audit_linkage") (fun () -> Audit.audit_linkage link_acc t);
  let a_key = Span.agg "audit.summary_key" and a_find = Span.agg "summary.find" in
  let a_an = Span.agg "audit.analyze_compartment" in
  let hits = ref 0 and misses = ref 0 in
  let sums =
    List.map
      (fun cb ->
        let key =
          Span.fine a_key (fun () ->
              Audit.summary_key ~call_summaries:true ~field_sensitive:true t cb)
        in
        match Span.fine a_find (fun () -> Summary.find cache key) with
        | Some s ->
            incr hits;
            s
        | None ->
            incr misses;
            let s =
              Span.fine a_an (fun () ->
                  Audit.analyze_compartment ~call_summaries:true ~field_sensitive:true ~key t cb)
            in
            Summary.add cache s;
            s)
      t.Loader.compartments
  in
  let flows = Span.fine (Span.agg "linkflow.analyze") (fun () -> Linkflow.analyze t sums) in
  let findings =
    List.rev link_acc.Audit.findings
    @ List.concat_map (fun (s : Summary.t) -> s.Summary.sm_findings) sums
    @ flows
  in
  ( findings,
    { Audit.compartments = List.length t.Loader.compartments; cache_hits = !hits; cache_misses = !misses } )

let replica ~seed ~minimal ~(check : check) =
  let report = Span.agg "rules.report_to_json" in
  let report imgs = Span.fine report (fun () -> Rules.report_to_json imgs) in
  let shared = Summary.create_cache () in
  let hits = ref 0 and lookups = ref 0 in
  List.iter
    (fun img ->
      Span.coarse "image" (fun () ->
          let t = img.build () in
          let priv = Summary.create_cache () in
          let fs, st = run_stats_traced ~cache:priv t in
          merge ~into:shared priv;
          check img.cold_id (render img.name fs st ~report);
          img.patch t;
          let fs, st = run_stats_traced ~cache:shared t in
          hits := !hits + st.Audit.cache_hits;
          lookups := !lookups + st.Audit.compartments;
          check img.warm_id (render img.name fs st ~report)))
    (images ~seed ~minimal);
  let collect = Span.agg "planverify.collect" and verify = Span.agg "planverify.verify_plan" in
  let plans = ref 0 in
  List.iter
    (fun (n, build) ->
      Span.coarse "plans" (fun () ->
          let m = plan_machine build in
          let ps = Span.fine collect (fun () -> Planverify.collect m) in
          plans := !plans + List.length ps;
          check (plan_id n)
            (render_plans ~verify:(fun p -> Span.fine verify (fun () -> Planverify.verify_plan p)) ps)))
    Firmware.shipped;
  [ ("summary.hit_ratio", ratio !hits !lookups); ("planverify.plans", float_of_int !plans) ]

(* --- pins: cold audits of every fixed image, its patched twin and every
   fleet variant ------------------------------------------------------------- *)

let pins () =
  let cold name t =
    let fs, st = Audit.run_stats t in
    render name fs st ~report:Rules.report_to_json
  in
  let fixed =
    List.concat_map
      (fun spec ->
        let img = fixed_image spec in
        let c = cold img.name (img.build ()) in
        let t = img.build () in
        img.patch t;
        [ (img.cold_id, c); (img.warm_id, cold img.name t) ])
      (fixed_images ())
  in
  let lo, hi = variants in
  let fleet =
    List.init (hi - lo + 1) (fun i ->
        let v = lo + i in
        (fleet_id v, cold "fleet" (Firmware.fleet ~variant:v ())))
  in
  let plans =
    List.map (fun (n, build) -> (plan_id n, render_plans (Planverify.collect (plan_machine build)))) Firmware.shipped
  in
  fixed @ fleet @ plans

let workload =
  { name = "audit_fleet"; ops; replica; pins; domains = [ ("audit_fleet/fleet", fst variants, snd variants) ] }
