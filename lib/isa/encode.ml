open Orianna_linalg

exception Decode_error of string

let magic = "ORIA"
let version = 1

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)

let w8 buf v = Buffer.add_char buf (Char.chr (v land 0xFF))

let w16 buf v =
  if v < 0 || v > 0xFFFF then invalid_arg "Encode: u16 overflow";
  w8 buf (v land 0xFF);
  w8 buf ((v lsr 8) land 0xFF)

let w32 buf v =
  if v < 0 then invalid_arg "Encode: u32 overflow";
  w8 buf (v land 0xFF);
  w8 buf ((v lsr 8) land 0xFF);
  w8 buf ((v lsr 16) land 0xFF);
  w8 buf ((v lsr 24) land 0xFF)

let wf64 buf x = Buffer.add_int64_le buf (Int64.bits_of_float x)

let wstring buf s =
  w16 buf (String.length s);
  Buffer.add_string buf s

let wmat buf m =
  let rows, cols = Mat.dims m in
  w16 buf rows;
  w16 buf cols;
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      wf64 buf (Mat.get m i j)
    done
  done

let opcode_tag = function
  | Instr.Load _ -> 0
  | Instr.Vadd -> 1
  | Instr.Vsub -> 2
  | Instr.Scale _ -> 3
  | Instr.Neg -> 4
  | Instr.Transpose -> 5
  | Instr.Gemm -> 6
  | Instr.Gemv -> 7
  | Instr.Logm -> 8
  | Instr.Expm -> 9
  | Instr.Skew -> 10
  | Instr.Jr -> 11
  | Instr.Jrinv -> 12
  | Instr.Assemble _ -> 13
  | Instr.Extract _ -> 14
  | Instr.Qr -> 15
  | Instr.Backsolve -> 16
  | Instr.Kernel _ -> 17

let phase_tag = function Instr.Construct -> 0 | Instr.Decompose -> 1 | Instr.Backsub -> 2

let encode (p : Program.t) =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf magic;
  w16 buf version;
  w32 buf (Array.length p.Program.instrs);
  w32 buf (List.length p.Program.outputs);
  Array.iter
    (fun (ins : Instr.t) ->
      w8 buf (opcode_tag ins.Instr.op);
      w8 buf (phase_tag ins.Instr.phase);
      w16 buf ins.Instr.algo;
      w16 buf ins.Instr.rows;
      w16 buf ins.Instr.cols;
      w16 buf (Array.length ins.Instr.srcs);
      Array.iter (w32 buf) ins.Instr.srcs;
      (match ins.Instr.op with
      | Instr.Load m -> wmat buf m
      | Instr.Scale s -> wf64 buf s
      | Instr.Extract { row; col; rows; cols } ->
          w16 buf row;
          w16 buf col;
          w16 buf rows;
          w16 buf cols
      | Instr.Assemble places ->
          w16 buf (List.length places);
          List.iter
            (fun (r, c) ->
              w16 buf r;
              w16 buf c)
            places
      | Instr.Kernel k ->
          wstring buf k.Instr.kname;
          w32 buf k.Instr.flops
      | Instr.Vadd | Instr.Vsub | Instr.Neg | Instr.Transpose | Instr.Gemm | Instr.Gemv
      | Instr.Logm | Instr.Expm | Instr.Skew | Instr.Jr | Instr.Jrinv | Instr.Qr
      | Instr.Backsolve ->
          ()))
    p.Program.instrs;
  List.iter
    (fun (name, reg) ->
      wstring buf name;
      w32 buf reg)
    p.Program.outputs;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)

type reader = { data : string; mutable pos : int }

let need r n =
  if r.pos + n > String.length r.data then raise (Decode_error "truncated stream")

let r8 r =
  need r 1;
  let v = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  v

let r16 r =
  let a = r8 r in
  let b = r8 r in
  a lor (b lsl 8)

let r32 r =
  let a = r16 r in
  let b = r16 r in
  a lor (b lsl 16)

let rf64 r =
  need r 8;
  let v = String.get_int64_le r.data r.pos in
  r.pos <- r.pos + 8;
  Int64.float_of_bits v

let rstring r =
  let n = r16 r in
  need r n;
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

let rmat r =
  let rows = r16 r in
  let cols = r16 r in
  (* Bound the allocation by the bytes that remain: a hostile header
     may claim up to 65535 x 65535 entries (34 GB). *)
  need r (rows * cols * 8);
  let m = Mat.create rows cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      Mat.set m i j (rf64 r)
    done
  done;
  m

let default_resolve name = raise (Decode_error ("unresolved kernel " ^ name))

let decode ?(resolve = default_resolve) data =
  let r = { data; pos = 0 } in
  need r 4;
  if String.sub data 0 4 <> magic then raise (Decode_error "bad magic");
  r.pos <- 4;
  let v = r16 r in
  if v <> version then raise (Decode_error (Printf.sprintf "unsupported version %d" v));
  let count = r32 r in
  let out_count = r32 r in
  let b = Program.Builder.create () in
  for _ = 1 to count do
    let tag = r8 r in
    let phase =
      match r8 r with
      | 0 -> Instr.Construct
      | 1 -> Instr.Decompose
      | 2 -> Instr.Backsub
      | n -> raise (Decode_error (Printf.sprintf "bad phase %d" n))
    in
    let algo = r16 r in
    let rows = r16 r in
    let cols = r16 r in
    let nsrcs = r16 r in
    let srcs = Array.init nsrcs (fun _ -> r32 r) in
    let op =
      match tag with
      | 0 -> Instr.Load (rmat r)
      | 1 -> Instr.Vadd
      | 2 -> Instr.Vsub
      | 3 -> Instr.Scale (rf64 r)
      | 4 -> Instr.Neg
      | 5 -> Instr.Transpose
      | 6 -> Instr.Gemm
      | 7 -> Instr.Gemv
      | 8 -> Instr.Logm
      | 9 -> Instr.Expm
      | 10 -> Instr.Skew
      | 11 -> Instr.Jr
      | 12 -> Instr.Jrinv
      | 13 ->
          let n = r16 r in
          Instr.Assemble
            (List.init n (fun _ ->
                 let row = r16 r in
                 let col = r16 r in
                 (row, col)))
      | 14 ->
          let row = r16 r in
          let col = r16 r in
          let brows = r16 r in
          let bcols = r16 r in
          Instr.Extract { row; col; rows = brows; cols = bcols }
      | 15 -> Instr.Qr
      | 16 -> Instr.Backsolve
      | 17 ->
          let name = rstring r in
          let flops = r32 r in
          let k = resolve name in
          if k.Instr.flops <> flops then
            raise (Decode_error ("kernel flops mismatch for " ^ name));
          Instr.Kernel k
      | n -> raise (Decode_error (Printf.sprintf "bad opcode %d" n))
    in
    (try ignore (Program.Builder.emit b ~op ~srcs ~rows ~cols ~phase ~algo ~tag:"")
     with Failure msg -> raise (Decode_error msg))
  done;
  let outputs =
    List.init out_count (fun _ ->
        let name = rstring r in
        let reg = r32 r in
        (name, reg))
  in
  if r.pos <> String.length data then raise (Decode_error "trailing bytes");
  let p = Program.Builder.finish b ~outputs in
  (try Program.validate p with Failure msg -> raise (Decode_error msg));
  p

(* ------------------------------------------------------------------ *)
(* Integrity trailer                                                   *)

let trailer_magic = "CRC0"
let trailer_length = 8

let encode_checksummed p =
  let payload = encode p in
  let buf = Buffer.create (String.length payload + trailer_length) in
  Buffer.add_string buf payload;
  Buffer.add_string buf trailer_magic;
  w32 buf (Orianna_util.Checksum.crc32 payload);
  Buffer.contents buf

let verify data =
  let n = String.length data in
  if n < trailer_length then Error "image shorter than the integrity trailer"
  else begin
    let payload = String.sub data 0 (n - trailer_length) in
    let trailer = String.sub data (n - trailer_length) trailer_length in
    if String.sub trailer 0 4 <> trailer_magic then Error "missing CRC trailer"
    else begin
      let stored = ref 0 in
      for i = 7 downto 4 do
        stored := (!stored lsl 8) lor Char.code trailer.[i]
      done;
      let computed = Orianna_util.Checksum.crc32 payload in
      if computed <> !stored then
        Error
          (Printf.sprintf "instruction-stream checksum mismatch: stored %08x, computed %08x"
             !stored computed)
      else Ok payload
    end
  end

let decode_checksummed ?resolve data =
  match verify data with
  | Ok payload -> decode ?resolve payload
  | Error msg -> raise (Decode_error msg)

let kernel_names (p : Program.t) =
  let seen = Hashtbl.create 8 in
  Array.to_list p.Program.instrs
  |> List.filter_map (fun (i : Instr.t) ->
         match i.Instr.op with
         | Instr.Kernel k when not (Hashtbl.mem seen k.Instr.kname) ->
             Hashtbl.add seen k.Instr.kname ();
             Some k.Instr.kname
         | _ -> None)
