open Orianna_linalg
open Orianna_isa
open Orianna_util
module Compile = Orianna_compiler.Compile
module App = Orianna_apps.App

(* A symbolic-only program (no native kernels): the sphere-style pose
   graph compiles purely through the MO-DFG path. *)
let symbolic_program () =
  let open Orianna_fg in
  let open Orianna_factors in
  let open Orianna_lie in
  let g = Graph.create () in
  let rng = Rng.of_int 8 in
  let p0 = Pose3.random rng ~scale:1.0 in
  let p1 = Pose3.random rng ~scale:1.0 in
  Graph.add_variable g "x0" (Var.Pose3 p0);
  Graph.add_variable g "x1" (Var.Pose3 p1);
  Graph.add_factor g (Pose_factors.prior3 ~name:"prior" ~var:"x0" ~z:p0 ~sigma:0.01);
  Graph.add_factor g
    (Pose_factors.between3 ~name:"odo" ~a:"x0" ~b:"x1" ~z:(Pose3.ominus p1 p0) ~sigma:0.05);
  Graph.add_factor g (Pose_factors.gps3 ~name:"gps" ~var:"x1" ~z:(Pose3.translation p1) ~sigma:0.1);
  Compile.compile g

(* A program with native kernels (camera factors etc.). *)
let kernel_program () = Compile.compile_application (App.quadrotor.App.graphs (Rng.of_int 4))

let test_encode_roundtrip_structure () =
  let p = symbolic_program () in
  let p' = Encode.decode (Encode.encode p) in
  Alcotest.(check int) "length" (Program.length p) (Program.length p');
  Alcotest.(check bool) "outputs" true (p.Program.outputs = p'.Program.outputs);
  Array.iter2
    (fun (a : Instr.t) (b : Instr.t) ->
      Alcotest.(check string) "opcode" (Instr.opcode_name a.Instr.op) (Instr.opcode_name b.Instr.op);
      Alcotest.(check bool) "srcs" true (a.Instr.srcs = b.Instr.srcs);
      Alcotest.(check bool) "shape" true (a.Instr.rows = b.Instr.rows && a.Instr.cols = b.Instr.cols);
      Alcotest.(check bool) "phase" true (a.Instr.phase = b.Instr.phase))
    p.Program.instrs p'.Program.instrs

let test_encode_roundtrip_semantics () =
  (* The decoded program computes the same deltas. *)
  let p = symbolic_program () in
  let p' = Encode.decode (Encode.encode p) in
  let a = Program.run p and b = Program.run p' in
  List.iter
    (fun (name, va) ->
      if not (Vec.equal ~eps:1e-12 va (List.assoc name b)) then
        Alcotest.failf "solution mismatch at %s" name)
    a

let test_encode_kernel_needs_registry () =
  let p = kernel_program () in
  let names = Encode.kernel_names p in
  Alcotest.(check bool) "has kernels" true (names <> []);
  let encoded = Encode.encode p in
  Alcotest.(check bool) "default registry rejects" true
    (try
       ignore (Encode.decode encoded);
       false
     with Encode.Decode_error _ -> true);
  (* Build a registry from the original program and round-trip. *)
  let registry = Hashtbl.create 16 in
  Array.iter
    (fun (i : Instr.t) ->
      match i.Instr.op with
      | Instr.Kernel k -> Hashtbl.replace registry k.Instr.kname k
      | _ -> ())
    p.Program.instrs;
  let resolve name =
    match Hashtbl.find_opt registry name with
    | Some k -> k
    | None -> raise (Encode.Decode_error ("missing " ^ name))
  in
  let p' = Encode.decode ~resolve encoded in
  let a = Program.run p and b = Program.run p' in
  List.iter
    (fun (name, va) ->
      if not (Vec.equal ~eps:1e-12 va (List.assoc name b)) then
        Alcotest.failf "solution mismatch at %s" name)
    a

let test_encode_rejects_garbage () =
  List.iter
    (fun bad ->
      Alcotest.(check bool) "rejected" true
        (try
           ignore (Encode.decode bad);
           false
         with Encode.Decode_error _ -> true))
    [ ""; "XXXX"; "ORIA"; Encode.encode (symbolic_program ()) ^ "junk" ]

let test_encode_compact () =
  (* Sanity on size: well under a naive text dump. *)
  let p = symbolic_program () in
  let bytes = String.length (Encode.encode p) in
  Alcotest.(check bool) (Printf.sprintf "%d bytes for %d instrs" bytes (Program.length p)) true
    (bytes < Program.length p * 200)

(* ---------- buffer occupancy ---------- *)

let test_buffer_occupancy_sane () =
  let p = kernel_program () in
  let accel = Orianna_hw.Accel.base () in
  let r = Orianna_sim.Schedule.run ~accel ~policy:Orianna_sim.Schedule.Ooo_full p in
  let o = Orianna_sim.Buffer_model.analyze p r in
  Alcotest.(check bool) "peak positive" true (o.Orianna_sim.Buffer_model.peak_words > 0);
  Alcotest.(check bool) "peak <= total" true
    (o.Orianna_sim.Buffer_model.peak_words <= o.Orianna_sim.Buffer_model.total_words_produced);
  Alcotest.(check bool) "average <= peak" true
    (o.Orianna_sim.Buffer_model.average_words <= float_of_int o.Orianna_sim.Buffer_model.peak_words)

let test_buffer_generated_design_fits () =
  (* The generated design provisions enough BRAM for its working set. *)
  let p = Compile.compile_application (App.mobile_robot.App.graphs (Rng.of_int 5)) in
  let accel = (Orianna.Pipeline.generate p).Orianna_hw.Dse.best in
  let r = Orianna_sim.Schedule.run ~accel ~policy:Orianna_sim.Schedule.Ooo_full p in
  Alcotest.(check bool) "fits" true (Orianna_sim.Buffer_model.fits accel p r)

(* ---------- Program.hash ---------- *)

let test_hash_roundtrip_stable () =
  (* The serving cache's fallback content key must survive the wire:
     hash over the canonical encoding, excluding the debug tag. *)
  let check p =
    let p' = Encode.decode (Encode.encode p) in
    Alcotest.(check int32) "hash survives encode/decode" (Program.hash p) (Program.hash p')
  in
  check (symbolic_program ());
  let p = kernel_program () in
  let registry = Hashtbl.create 16 in
  Array.iter
    (fun (i : Instr.t) ->
      match i.Instr.op with
      | Instr.Kernel k -> Hashtbl.replace registry k.Instr.kname k
      | _ -> ())
    p.Program.instrs;
  let resolve name =
    match Hashtbl.find_opt registry name with
    | Some k -> k
    | None -> raise (Encode.Decode_error ("missing " ^ name))
  in
  let p' = Encode.decode ~resolve (Encode.encode p) in
  Alcotest.(check int32) "kernel program too" (Program.hash p) (Program.hash p')

(* [payload] followed by a valid "CRC0" integrity trailer, so the
   image passes [verify] whatever the payload claims. *)
let with_trailer payload =
  let b = Buffer.create (String.length payload + 8) in
  Buffer.add_string b payload;
  Buffer.add_string b "CRC0";
  Buffer.add_int32_le b (Int32.of_int (Checksum.crc32 payload));
  Buffer.contents b

let test_decode_hostile_matrix_header () =
  (* One Load whose matrix header claims 0xFFFF x 0xFFFF doubles
     (34 GB) with no data behind it: a structured error, not an
     allocation. *)
  let b = Buffer.create 32 in
  let u16 v = Buffer.add_uint16_le b v and u32 v = Buffer.add_int32_le b (Int32.of_int v) in
  Buffer.add_string b "ORIA";
  u16 1;
  u32 1;
  u32 0;
  List.iter (Buffer.add_uint8 b) [ 0; 0 ];
  List.iter u16 [ 0; 1; 1; 0; 0xFFFF; 0xFFFF ];
  let image = with_trailer (Buffer.contents b) in
  List.iter
    (fun (what, decode) ->
      match decode image with
      | _ -> Alcotest.failf "%s accepted a 65535 x 65535 matrix with no data" what
      | exception Encode.Decode_error _ -> ())
    [
      ("decode", fun i -> Encode.decode (String.sub i 0 (String.length i - 8)));
      ("decode_checksummed", fun i -> Encode.decode_checksummed i);
    ]

(* Seeded corruption of a valid image: overwritten bytes, 0xFFFF
   fields, truncation and spliced garbage.  Whatever the damage, the
   decoders either return a program or raise [Decode_error]; the
   checksummed path gets a recomputed trailer so the damage reaches
   the decoder. *)
let mutate rng image =
  let b = Bytes.of_string image in
  let n = Bytes.length b in
  let b =
    ref
      (match Rng.int rng 4 with
      | 0 -> Bytes.sub b 0 (Rng.int rng n)
      | 1 -> Bytes.cat b (Bytes.init (1 + Rng.int rng 16) (fun _ -> Char.chr (Rng.int rng 256)))
      | _ -> b)
  in
  for _ = 1 to 1 + Rng.int rng 4 do
    let n = Bytes.length !b in
    if n >= 2 then begin
      let i = Rng.int rng (n - 1) in
      if Rng.int rng 2 = 0 then Bytes.set_uint16_le !b i 0xFFFF
      else Bytes.set_uint8 !b i (Rng.int rng 256)
    end
  done;
  Bytes.to_string !b

let prop_decode_mutations =
  let image = Encode.encode (symbolic_program ()) in
  QCheck.Test.make ~name:"encode: mutated images raise only Decode_error" ~count:3000
    QCheck.(make ~print:Print.int Gen.(int_bound 1_000_000))
    (fun seed ->
      let bad = mutate (Rng.of_int seed) image in
      let survives decode =
        match decode () with _ -> true | exception Encode.Decode_error _ -> true
      in
      survives (fun () -> Encode.decode bad)
      && survives (fun () -> Encode.decode_checksummed (with_trailer bad)))

let test_hash_deterministic_and_discriminating () =
  let a = symbolic_program () and b = kernel_program () in
  Alcotest.(check int32) "recompile hashes identically" (Program.hash (symbolic_program ()))
    (Program.hash a);
  Alcotest.(check bool) "different programs differ" true (Program.hash a <> Program.hash b)

let test_buffer_spill_monotone () =
  let p = symbolic_program () in
  let accel = Orianna_hw.Accel.base () in
  let r = Orianna_sim.Schedule.run ~accel ~policy:Orianna_sim.Schedule.Ooo_full p in
  let s0 = Orianna_sim.Buffer_model.spill_words ~capacity:0 p r in
  let s10 = Orianna_sim.Buffer_model.spill_words ~capacity:10 p r in
  let huge = Orianna_sim.Buffer_model.spill_words ~capacity:1_000_000 p r in
  Alcotest.(check bool) "monotone" true (s0 >= s10 && s10 >= huge);
  Alcotest.(check int) "no spill when huge" 0 huge;
  Alcotest.(check bool) "spill when zero" true (s0 > 0)

let () =
  Alcotest.run "isa"
    [
      ( "encode",
        [
          Alcotest.test_case "roundtrip structure" `Quick test_encode_roundtrip_structure;
          Alcotest.test_case "roundtrip semantics" `Quick test_encode_roundtrip_semantics;
          Alcotest.test_case "kernel registry" `Quick test_encode_kernel_needs_registry;
          Alcotest.test_case "rejects garbage" `Quick test_encode_rejects_garbage;
          Alcotest.test_case "compact" `Quick test_encode_compact;
          Alcotest.test_case "hash roundtrip" `Quick test_hash_roundtrip_stable;
          Alcotest.test_case "hash discriminates" `Quick test_hash_deterministic_and_discriminating;
          Alcotest.test_case "hostile matrix header" `Quick test_decode_hostile_matrix_header;
          QCheck_alcotest.to_alcotest prop_decode_mutations;
        ] );
      ( "buffer",
        [
          Alcotest.test_case "occupancy sane" `Quick test_buffer_occupancy_sane;
          Alcotest.test_case "generated fits" `Slow test_buffer_generated_design_fits;
          Alcotest.test_case "spill monotone" `Quick test_buffer_spill_monotone;
        ] );
    ]
