open Orianna_linalg
open Orianna_lie

type t = { instrs : Instr.t array; outputs : (string * int) list }

module Builder = struct
  type program = t

  (* [shapes] holds register [i]'s rows at [2i] and cols at [2i + 1]:
     every optimizer pass rebuilds its stream through [emit], so it
     stays a flat array rather than a table. *)
  type b = { mutable rev : Instr.t list; mutable count : int; mutable shapes : int array }

  let create () = { rev = []; count = 0; shapes = Array.make 512 0 }

  let emit b ~op ~srcs ~rows ~cols ~phase ~algo ~tag =
    for k = 0 to Array.length srcs - 1 do
      let s = srcs.(k) in
      if s < 0 || s >= b.count then
        failwith (Printf.sprintf "Program.Builder.emit: source i%d out of range" s)
    done;
    let id = b.count in
    if (2 * id) + 1 >= Array.length b.shapes then begin
      let shapes = Array.make (2 * Array.length b.shapes) 0 in
      Array.blit b.shapes 0 shapes 0 (Array.length b.shapes);
      b.shapes <- shapes
    end;
    b.shapes.(2 * id) <- rows;
    b.shapes.((2 * id) + 1) <- cols;
    b.count <- id + 1;
    b.rev <- { Instr.id; op; srcs; rows; cols; phase; algo; tag } :: b.rev;
    id

  let shape b id =
    if id < 0 || id >= b.count then
      failwith (Printf.sprintf "Program.Builder.shape: unknown register i%d" id);
    (b.shapes.(2 * id), b.shapes.((2 * id) + 1))

  let finish b ~outputs = { instrs = Array.of_list (List.rev b.rev); outputs }
end

let length t = Array.length t.instrs

(* Canonical byte serialization for {!hash}: the semantic content of
   the stream — opcodes with their payloads, shapes, phases, algorithm
   ids, dependencies and outputs — but {e not} the human-readable
   [tag], which the binary wire format ([Encode]) also drops.  Hashes
   therefore survive an encode/decode round trip. *)
let hash t =
  let buf = Buffer.create 4096 in
  let w8 v = Buffer.add_char buf (Char.chr (v land 0xFF)) in
  let w32 v =
    w8 v;
    w8 (v lsr 8);
    w8 (v lsr 16);
    w8 (v lsr 24)
  in
  let wf64 x = Buffer.add_int64_le buf (Int64.bits_of_float x) in
  let wstring s =
    w32 (String.length s);
    Buffer.add_string buf s
  in
  let wmat m =
    let rows, cols = Mat.dims m in
    w32 rows;
    w32 cols;
    for i = 0 to rows - 1 do
      for j = 0 to cols - 1 do
        wf64 (Mat.get m i j)
      done
    done
  in
  let opcode_tag : Instr.opcode -> int = function
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
  in
  let phase_tag = function Instr.Construct -> 0 | Instr.Decompose -> 1 | Instr.Backsub -> 2 in
  Buffer.add_string buf "ORIAH1";
  w32 (Array.length t.instrs);
  w32 (List.length t.outputs);
  Array.iter
    (fun (ins : Instr.t) ->
      w8 (opcode_tag ins.Instr.op);
      w8 (phase_tag ins.Instr.phase);
      w32 ins.Instr.algo;
      w32 ins.Instr.rows;
      w32 ins.Instr.cols;
      w32 (Array.length ins.Instr.srcs);
      Array.iter w32 ins.Instr.srcs;
      match ins.Instr.op with
      | Instr.Load m -> wmat m
      | Instr.Scale s -> wf64 s
      | Instr.Assemble places ->
          w32 (List.length places);
          List.iter
            (fun (r, c) ->
              w32 r;
              w32 c)
            places
      | Instr.Extract { row; col; rows; cols } ->
          w32 row;
          w32 col;
          w32 rows;
          w32 cols
      | Instr.Kernel k ->
          wstring k.Instr.kname;
          w32 k.Instr.flops
      | _ -> ())
    t.instrs;
  List.iter
    (fun (name, reg) ->
      wstring name;
      w32 reg)
    t.outputs;
  Int32.of_int (Orianna_util.Checksum.crc32 (Buffer.contents buf) land 0xFFFFFFFF)

let validate t =
  Array.iteri
    (fun i (ins : Instr.t) ->
      if ins.Instr.id <> i then failwith "Program.validate: id mismatch";
      Array.iter
        (fun s ->
          if s >= i || s < 0 then
            failwith (Printf.sprintf "Program.validate: instruction i%d reads future register i%d" i s))
        ins.Instr.srcs)
    t.instrs;
  List.iter
    (fun (name, reg) ->
      if reg < 0 || reg >= Array.length t.instrs then
        failwith ("Program.validate: output " ^ name ^ " out of range"))
    t.outputs

(* Evaluate one instruction given its source {e values} (positionally
   aligned with [ins.srcs]).  Shared by {!execute} and the optimizer's
   superword pass, whose batched kernels must reproduce the member
   ops' semantics bit-for-bit. *)
let eval_op (ins : Instr.t) (args : Mat.t array) =
  let src k = args.(k) in
  match ins.Instr.op with
  | Instr.Load m -> m
  | Instr.Vadd -> Mat.add (src 0) (src 1)
  | Instr.Vsub -> Mat.sub (src 0) (src 1)
  | Instr.Scale s -> Mat.scale s (src 0)
  | Instr.Neg -> Mat.neg (src 0)
  | Instr.Transpose -> Mat.transpose (src 0)
  | Instr.Gemm | Instr.Gemv -> Mat.mul (src 0) (src 1)
  | Instr.Logm ->
      let r = src 0 in
      if fst (Mat.dims r) = 2 then Mat.of_rows [| [| So2.log r |] |] else Mat.of_vec (So3.log r)
  | Instr.Expm ->
      let v = src 0 in
      if fst (Mat.dims v) = 1 then So2.exp (Mat.get v 0 0) else So3.exp (Mat.to_vec v)
  | Instr.Skew ->
      let v = src 0 in
      if fst (Mat.dims v) = 1 then So2.hat (Mat.get v 0 0) else So3.hat (Mat.to_vec v)
  | Instr.Jr ->
      let v = src 0 in
      if fst (Mat.dims v) = 1 then Mat.identity 1 else So3.jr (Mat.to_vec v)
  | Instr.Jrinv ->
      let v = src 0 in
      if fst (Mat.dims v) = 1 then Mat.identity 1 else So3.jr_inv (Mat.to_vec v)
  | Instr.Assemble places ->
      let out = Mat.create ins.Instr.rows ins.Instr.cols in
      List.iteri (fun k (r, c) -> Mat.set_block out r c args.(k)) places;
      out
  | Instr.Extract { row; col; rows; cols } -> Mat.block (src 0) row col rows cols
  | Instr.Qr -> Qr.triangularize (src 0)
  | Instr.Backsolve -> Mat.of_vec (Tri.solve_upper (src 0) (Mat.to_vec (src 1)))
  | Instr.Kernel k -> k.Instr.apply args

let execute t =
  let values = Array.make (Array.length t.instrs) (Mat.create 0 0) in
  Array.iter
    (fun (ins : Instr.t) ->
      let result = eval_op ins (Array.map (fun s -> values.(s)) ins.Instr.srcs) in
      let r, c = Mat.dims result in
      if r <> ins.Instr.rows || c <> ins.Instr.cols then
        failwith
          (Printf.sprintf "Program.execute: i%d (%s) produced %dx%d, declared %dx%d" ins.Instr.id
             (Instr.opcode_name ins.Instr.op) r c ins.Instr.rows ins.Instr.cols);
      values.(ins.Instr.id) <- result)
    t.instrs;
  values

let deltas t values =
  List.map (fun (name, reg) -> (name, Mat.to_vec values.(reg))) t.outputs

let run t = deltas t (execute t)

type stats = {
  instructions : int;
  by_opcode : (string * int) list;
  by_phase : (Instr.phase * int) list;
  flops_total : int;
  flops_by_phase : (Instr.phase * int) list;
  critical_path : int;
  max_width : int;
}

let stats t =
  let by_op = Hashtbl.create 16 in
  let by_phase = Hashtbl.create 4 in
  let flops_by_phase = Hashtbl.create 4 in
  let bump tbl key v = Hashtbl.replace tbl key (v + Option.value ~default:0 (Hashtbl.find_opt tbl key)) in
  let src_shape id = (t.instrs.(id).Instr.rows, t.instrs.(id).Instr.cols) in
  let depth = Array.make (Array.length t.instrs) 0 in
  let width = Hashtbl.create 64 in
  let total_flops = ref 0 in
  Array.iter
    (fun (ins : Instr.t) ->
      bump by_op (Instr.opcode_name ins.Instr.op) 1;
      bump by_phase ins.Instr.phase 1;
      let f = Instr.flops ins ~src_shape in
      total_flops := !total_flops + f;
      bump flops_by_phase ins.Instr.phase f;
      let d =
        Array.fold_left (fun acc s -> max acc (depth.(s) + 1)) 0 ins.Instr.srcs
      in
      depth.(ins.Instr.id) <- d;
      bump width d 1)
    t.instrs;
  let critical_path = Array.fold_left max 0 depth + if Array.length t.instrs > 0 then 1 else 0 in
  let max_width = Hashtbl.fold (fun _ v acc -> max v acc) width 0 in
  {
    instructions = Array.length t.instrs;
    by_opcode = Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_op [] |> List.sort compare;
    by_phase = Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_phase [] |> List.sort compare;
    flops_total = !total_flops;
    flops_by_phase =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) flops_by_phase [] |> List.sort compare;
    critical_path;
    max_width;
  }

let op_sizes t ?phase () =
  Array.to_list t.instrs
  |> List.filter_map (fun (ins : Instr.t) ->
         let keep_phase = match phase with None -> true | Some p -> ins.Instr.phase = p in
         if keep_phase && not (Instr.is_data_movement ins.Instr.op) then
           Some (ins.Instr.rows, ins.Instr.cols)
         else None)

let concat programs =
  let b = Builder.create () in
  let outputs = ref [] in
  List.iter
    (fun p ->
      let base = Hashtbl.create (Array.length p.instrs) in
      Array.iter
        (fun (ins : Instr.t) ->
          let srcs = Array.map (fun s -> Hashtbl.find base s) ins.Instr.srcs in
          let id =
            Builder.emit b ~op:ins.Instr.op ~srcs ~rows:ins.Instr.rows ~cols:ins.Instr.cols
              ~phase:ins.Instr.phase ~algo:ins.Instr.algo ~tag:ins.Instr.tag
          in
          Hashtbl.add base ins.Instr.id id)
        p.instrs;
      List.iter
        (fun (name, reg) ->
          if List.mem_assoc name !outputs then
            invalid_arg ("Program.concat: duplicate output " ^ name);
          outputs := (name, Hashtbl.find base reg) :: !outputs)
        p.outputs)
    programs;
  Builder.finish b ~outputs:(List.rev !outputs)

let pp ppf t =
  Format.fprintf ppf "@[<v>program: %d instructions@," (Array.length t.instrs);
  Array.iter (fun i -> Format.fprintf ppf "  %a@," Instr.pp i) t.instrs;
  List.iter (fun (n, r) -> Format.fprintf ppf "  out %s = i%d@," n r) t.outputs;
  Format.fprintf ppf "@]"

let pp_stats ppf s =
  Format.fprintf ppf "@[<v>%d instructions, %d flops, critical path %d, max width %d@,"
    s.instructions s.flops_total s.critical_path s.max_width;
  List.iter (fun (op, n) -> Format.fprintf ppf "  %-10s %d@," op n) s.by_opcode;
  List.iter
    (fun (ph, n) -> Format.fprintf ppf "  phase %-10s %d instrs@," (Instr.phase_name ph) n)
    s.by_phase;
  Format.fprintf ppf "@]"
