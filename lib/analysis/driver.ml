(* Reusable auditor driver: the logic behind `cheriot_audit`, factored
   out of the binary so the exit-code contract and report determinism
   are unit-testable.

   Exit-code contract (tested in test_audit):
     0  clean (no findings; corpus detected exactly)
     1  findings on shipped images, or a corpus exactness failure
     2  analysis error, unknown image name, or unknown rule id

   Findings are sorted by (compartment, pc, rule id) before JSON
   emission, so reports are byte-stable across runs and refactors of
   emission order. *)

module Loader = Cheriot_rtos.Loader
module Machine = Cheriot_isa.Machine
module Asm = Cheriot_isa.Asm

type images = (string * (unit -> Loader.t)) list

(* `--rule` accepts plan ids too, so `rules` output is uniformly usable
   as filter arguments across subcommands. *)
let known_rule rule =
  List.mem_assoc rule Rules.catalogue || List.mem_assoc rule Rules.plan_catalogue

let filter_rule rule fs =
  match rule with
  | None -> fs
  | Some r -> List.filter (fun (f : Rules.finding) -> f.Rules.rule = r) fs

(* The whole catalogue, or only the image [name]. *)
let select (images : images) name =
  match name with
  | None -> Ok images
  | Some n -> (
      match List.assoc_opt n images with
      | Some build -> Ok [ (n, build) ]
      | None -> Error (Printf.sprintf "unknown image %S" n))

(* [shipped ~images ?name ?rule ()] audits the shipped catalogue (or the
   single image [name]), prints the JSON report, and returns the exit
   code. *)
let shipped ~images ?name ?rule () =
  match (select images name, rule) with
  | Error e, _ ->
      Printf.eprintf "shipped: %s\n%!" e;
      2
  | _, Some r when not (known_rule r) ->
      Printf.eprintf "shipped: unknown rule %S\n%!" r;
      2
  | Ok imgs, _ -> (
      match
        List.map
          (fun (n, build) ->
            (n, filter_rule rule (Rules.sort_findings (Audit.run (build ())))))
          imgs
      with
      | report ->
          print_endline (Rules.report_to_json report);
          let total =
            List.fold_left (fun a (_, fs) -> a + List.length fs) 0 report
          in
          if total = 0 then begin
            Printf.eprintf "shipped: %d images clean\n%!" (List.length report);
            0
          end
          else begin
            Printf.eprintf "shipped: %d findings on shipped images\n%!" total;
            1
          end
      | exception e ->
          Printf.eprintf "shipped: analysis error: %s\n%!"
            (Printexc.to_string e);
          2)

(* [corpus ?rule ()] checks every corpus image (or only those expecting
   [rule]) trips exactly its expected rule. *)
let corpus ?rule () =
  match rule with
  | Some r when not (known_rule r) ->
      Printf.eprintf "corpus: unknown rule %S\n%!" r;
      2
  | _ -> (
      let entries =
        match rule with
        | None -> Corpus.entries
        | Some r ->
            List.filter (fun (e : Corpus.entry) -> e.Corpus.rule = r)
              Corpus.entries
      in
      let check failures (e : Corpus.entry) =
        let findings = Audit.run (e.Corpus.build ()) in
        let hit =
          List.exists (fun (f : Rules.finding) -> f.Rules.rule = e.Corpus.rule)
            findings
        in
        let spurious =
          List.filter (fun (f : Rules.finding) -> f.Rules.rule <> e.Corpus.rule)
            findings
        in
        if hit && spurious = [] then begin
          Printf.eprintf "corpus: PASS %-26s -> %s\n%!" e.Corpus.name
            e.Corpus.rule;
          failures
        end
        else begin
          Printf.eprintf "corpus: FAIL %-26s expected %s\n%!" e.Corpus.name
            e.Corpus.rule;
          if not hit then Printf.eprintf "         missed (false negative)\n%!";
          List.iter
            (fun f ->
              Printf.eprintf "         spurious: %s\n%!"
                (Format.asprintf "%a" Rules.pp_finding f))
            spurious;
          failures + 1
        end
      in
      match List.fold_left check 0 entries with
      | 0 ->
          Printf.eprintf "corpus: %d/%d images detected exactly\n%!"
            (List.length entries) (List.length entries);
          0
      | _ -> 1
      | exception e ->
          Printf.eprintf "corpus: analysis error: %s\n%!"
            (Printexc.to_string e);
          2)

(* [all]: shipped + corpus; the worst exit code wins. *)
let all ~images ?rule () =
  let a = shipped ~images ?rule () in
  let b = corpus ?rule () in
  max a b

let rules () =
  List.iter (fun (id, doc) -> Printf.printf "%-26s %s\n" id doc) Rules.catalogue;
  List.iter (fun (id, doc) -> Printf.printf "%-26s %s\n" id doc)
    Rules.plan_catalogue;
  0

(* --- plan-soundness gate (Planverify, DESIGN.md §14) -------------------- *)

(* A counterexample is pinned to the compartment whose code region holds
   the block; switcher/trap-stub blocks report as "system". *)
let plan_compartment (t : Loader.t) (p : Planverify.plan) =
  let pc = p.Planverify.p_block.Machine.b_start in
  match
    List.find_opt
      (fun ((_, b) : string * Loader.built) ->
        let o = b.Loader.image.Asm.origin in
        pc >= o && pc < o + Asm.bytes_size b.Loader.image)
      t.Loader.compartments
  with
  | Some (name, _) -> name
  | None -> "system"

(* [plans ~images ?name ?rule ()] boots each shipped image, runs it
   under the jit tier (forced hot so every reachable block compiles),
   collects every emitted plan and verifies it.  Same report shape and
   exit-code contract as [shipped]; [rule] filters the report the same
   way. *)
let plans ~images ?name ?rule () =
  match (select images name, rule) with
  | Error e, _ ->
      Printf.eprintf "plans: %s\n%!" e;
      2
  | _, Some r when not (known_rule r) ->
      Printf.eprintf "plans: unknown rule %S\n%!" r;
      2
  | Ok imgs, _ -> (
      let verified = ref 0 in
      let audit (n, build) =
        let t = build () in
        let m = t.Loader.machine in
        m.Machine.hot_threshold <- 2;
        m.Machine.hot_adaptive <- false;
        let ps = Planverify.collect m in
        verified := !verified + List.length ps;
        let findings =
          List.filter_map
            (fun p ->
              match Planverify.verify_plan p with
              | Planverify.Sound -> None
              | Planverify.Unsound cx ->
                  Some
                    (Planverify.finding_of
                       ~compartment:(plan_compartment t p) p cx))
            ps
        in
        (n, filter_rule rule (Rules.sort_findings findings))
      in
      match List.map audit imgs with
      | report ->
          print_endline (Rules.report_to_json report);
          let total =
            List.fold_left (fun a (_, fs) -> a + List.length fs) 0 report
          in
          if total = 0 then begin
            Printf.eprintf "plans: %d images, %d plans proved sound\n%!"
              (List.length report) !verified;
            0
          end
          else begin
            Printf.eprintf "plans: %d unsound plans on shipped images\n%!"
              total;
            1
          end
      | exception e ->
          Printf.eprintf "plans: analysis error: %s\n%!" (Printexc.to_string e);
          2)

(* [plan_mutants ()]: every seeded optimizer bug must be refuted with
   exactly its expected plan-* rule — the corpus exactness gate for the
   verifier itself. *)
let plan_mutants () =
  let check failures (e : Planmutants.entry) =
    let cheri, insns, chks, guards, defer = e.Planmutants.pm_build () in
    match Planverify.verify ~cheri ?defer insns chks guards with
    | Planverify.Unsound cx when cx.Planverify.cx_rule = e.Planmutants.pm_rule ->
        Printf.eprintf "plan-mutants: PASS %-26s -> %s\n%!"
          e.Planmutants.pm_name cx.Planverify.cx_rule;
        failures
    | Planverify.Unsound cx ->
        Printf.eprintf
          "plan-mutants: FAIL %-26s expected %s, refuted as %s (%s)\n%!"
          e.Planmutants.pm_name e.Planmutants.pm_rule cx.Planverify.cx_rule
          cx.Planverify.cx_detail;
        failures + 1
    | Planverify.Sound ->
        Printf.eprintf
          "plan-mutants: FAIL %-26s expected %s, proved Sound (false \
           negative)\n%!"
          e.Planmutants.pm_name e.Planmutants.pm_rule;
        failures + 1
  in
  match List.fold_left check 0 Planmutants.entries with
  | 0 ->
      Printf.eprintf "plan-mutants: %d/%d mutants refuted exactly\n%!"
        (List.length Planmutants.entries)
        (List.length Planmutants.entries);
      0
  | _ -> 1
  | exception e ->
      Printf.eprintf "plan-mutants: analysis error: %s\n%!"
        (Printexc.to_string e);
      2

(* [plans_all]: shipped plans + mutants; the worst exit code wins. *)
let plans_all ~images ?name ?rule () =
  let a = plans ~images ?name ?rule () in
  let b = plan_mutants () in
  max a b

(* --- incremental re-audit (Summary cache, DESIGN.md §15) ---------------- *)

module Encode = Cheriot_isa.Encode
module Insn = Cheriot_isa.Insn
module Sram = Cheriot_mem.Sram

(* [patch_first_opimm t] simulates a one-compartment recompile: scanning
   compartments in link order, the first code word that decodes to a
   small [Op_imm Add] gets its immediate bumped by one.  Deterministic,
   so patching two fresh builds of the same image yields byte-identical
   SRAM.  Returns the patched compartment's name. *)
let patch_first_opimm (t : Loader.t) =
  let rec scan = function
    | [] -> None
    | ((name, b) : string * Loader.built) :: rest ->
        let o = b.Loader.image.Asm.origin in
        let limit = o + Asm.bytes_size b.Loader.image in
        let rec go a =
          if a >= limit then None
          else
            match Encode.decode (Sram.read32 t.Loader.sram a) with
            | Some (Insn.Op_imm (Insn.Add, rd, rs1, imm))
              when rd <> 0 && imm >= 0 && imm < 2000 ->
                Sram.write32 t.Loader.sram a
                  (Encode.encode (Insn.Op_imm (Insn.Add, rd, rs1, imm + 1)));
                Some name
            | _ -> go (a + 4)
        in
        (match go o with Some n -> Some n | None -> scan rest)
  in
  scan t.Loader.compartments

(* [incremental ~images ?name ()] exercises the summary cache end to
   end, per image: prime the cache on a cold audit, apply the
   one-compartment patch to a fresh build, re-audit warm (reusing every
   summary whose content hash is unchanged) and from scratch, and
   demand (a) the two sorted reports are byte-identical and (b) the
   cache was reused for exactly the untouched compartments.  Exit 0
   only when both hold for every image. *)
let incremental ~images ?name () =
  match select images name with
  | Error e ->
      Printf.eprintf "incremental: %s\n%!" e;
      2
  | Ok imgs -> (
      let audit (n, build) =
        let cache = Summary.create_cache () in
        ignore (Audit.run_stats ~cache (build ()));
        let patched = build () in
        let pname = patch_first_opimm patched in
        let warm, st = Audit.run_stats ~cache patched in
        let scratch = build () in
        ignore (patch_first_opimm scratch);
        let cold = Audit.run scratch in
        let warm_json =
          Rules.report_to_json [ (n, Rules.sort_findings warm) ]
        in
        let cold_json =
          Rules.report_to_json [ (n, Rules.sort_findings cold) ]
        in
        let identical = String.equal warm_json cold_json in
        let expected_hits =
          st.Audit.compartments - (match pname with Some _ -> 1 | None -> 0)
        in
        let reused = st.Audit.cache_hits = expected_hits in
        Printf.eprintf
          "incremental: %-12s %d compartments, patched %s: %d reused / %d \
           re-analyzed, reports %s\n%!"
          n st.Audit.compartments
          (match pname with Some c -> c | None -> "none")
          st.Audit.cache_hits st.Audit.cache_misses
          (if identical then "identical" else "DIVERGED");
        ( Printf.sprintf
            "{\"image\":\"%s\",\"compartments\":%d,\"patched\":%s,\
             \"cache_hits\":%d,\"cache_misses\":%d,\"identical\":%b}"
            (Rules.json_escape n) st.Audit.compartments
            (match pname with
            | Some c -> Printf.sprintf "\"%s\"" (Rules.json_escape c)
            | None -> "null")
            st.Audit.cache_hits st.Audit.cache_misses identical,
          identical && reused )
      in
      match List.map audit imgs with
      | results ->
          let ok = List.for_all snd results in
          Printf.printf "{\"mode\":\"incremental\",\"images\":[%s],\"ok\":%b}\n"
            (String.concat "," (List.map fst results))
            ok;
          if ok then 0 else 1
      | exception e ->
          Printf.eprintf "incremental: analysis error: %s\n%!"
            (Printexc.to_string e);
          2)
