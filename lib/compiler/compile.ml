open Orianna_linalg
open Orianna_lie
open Orianna_fg
open Orianna_isa
module Expr = Orianna_ir.Expr
module Value = Orianna_ir.Value
module Modfg = Orianna_ir.Modfg
module B = Program.Builder
module Obs = Orianna_obs.Obs
module Error = Orianna_util.Error

let src = Logs.Src.create "orianna.compiler" ~doc:"Factor graph to ISA lowering"

module Log = (val Logs.src_log src : Logs.LOG)

(* ------------------------------------------------------------------ *)
(* Emission context with local value numbering: pure operations on the
   same sources share one instruction (the datapath CSE of Sec. 6).   *)

type ctx = { b : B.b; algo : int; cse : bool; cache : (string, int) Hashtbl.t }

let shape_of_ty = function
  | Value.Trot n -> (n, n)
  | Value.Tvec n -> (n, 1)

let cache_key op srcs =
  let payload =
    match op with
    | Instr.Scale s -> Printf.sprintf "SCALE:%h" s
    | Instr.Extract { row; col; rows; cols } -> Printf.sprintf "EXTRACT:%d:%d:%d:%d" row col rows cols
    | Instr.Vadd | Instr.Vsub | Instr.Neg | Instr.Transpose | Instr.Gemm | Instr.Gemv
    | Instr.Logm | Instr.Expm | Instr.Skew | Instr.Jr | Instr.Jrinv | Instr.Qr | Instr.Backsolve ->
        Instr.opcode_name op
    | Instr.Load _ | Instr.Assemble _ | Instr.Kernel _ -> ""
  in
  if payload = "" then None
  else Some (payload ^ "|" ^ String.concat "," (Array.to_list (Array.map string_of_int srcs)))

let emit ctx ~op ~srcs ~rows ~cols ~phase ~tag =
  match (if ctx.cse then cache_key op srcs else None) with
  | None -> B.emit ctx.b ~op ~srcs ~rows ~cols ~phase ~algo:ctx.algo ~tag
  | Some key -> (
      match Hashtbl.find_opt ctx.cache key with
      | Some reg ->
          Obs.count "compile.cse_hits";
          reg
      | None ->
          let reg = B.emit ctx.b ~op ~srcs ~rows ~cols ~phase ~algo:ctx.algo ~tag in
          Hashtbl.add ctx.cache key reg;
          reg)

let load ctx ~m ~phase ~tag =
  let rows, cols = Mat.dims m in
  B.emit ctx.b ~op:(Instr.Load m) ~srcs:[||] ~rows ~cols ~phase ~algo:ctx.algo ~tag

(* ------------------------------------------------------------------ *)
(* Variable inputs                                                     *)

type var_regs =
  | Pose_regs of { rot : int; trans : int; rot_dim : int; trans_dim : int }
  | Se3_regs of { reg : int }
  | Vec_regs of { reg : int; dim : int }

let load_variable ctx graph v =
  match Graph.value graph v with
  | Var.Pose2 p ->
      let rot = load ctx ~m:(Pose2.rotation p) ~phase:Instr.Construct ~tag:("in:R(" ^ v ^ ")") in
      let trans =
        load ctx ~m:(Mat.of_vec (Pose2.translation p)) ~phase:Instr.Construct ~tag:("in:t(" ^ v ^ ")")
      in
      Pose_regs { rot; trans; rot_dim = 1; trans_dim = 2 }
  | Var.Pose3 p ->
      let rot = load ctx ~m:(Pose3.rotation p) ~phase:Instr.Construct ~tag:("in:R(" ^ v ^ ")") in
      let trans =
        load ctx ~m:(Mat.of_vec (Pose3.translation p)) ~phase:Instr.Construct ~tag:("in:t(" ^ v ^ ")")
      in
      Pose_regs { rot; trans; rot_dim = 3; trans_dim = 3 }
  | Var.Se3 x ->
      let reg = load ctx ~m:(Se3.to_matrix x) ~phase:Instr.Construct ~tag:("in:T(" ^ v ^ ")") in
      Se3_regs { reg }
  | Var.Vector vec ->
      let reg = load ctx ~m:(Mat.of_vec vec) ~phase:Instr.Construct ~tag:("in:v(" ^ v ^ ")") in
      Vec_regs { reg; dim = Vec.dim vec }

let leaf_reg var_regs leaf =
  match (leaf, var_regs) with
  | Expr.Rot_of _, Pose_regs { rot; _ } -> rot
  | Expr.Trans_of _, Pose_regs { trans; _ } -> trans
  | Expr.Vec_of _, Vec_regs { reg; _ } -> reg
  | _ -> Error.fail Error.Compile ~context:[ "leaf_reg" ] "leaf kind does not match variable kind"

let leaf_var = function Expr.Rot_of v | Expr.Trans_of v | Expr.Vec_of v -> v

(* ------------------------------------------------------------------ *)
(* Adjoint representation for backward propagation.  A [Sel] is a
   scaled block of identity rows — kept symbolic so the seed of the
   chain rule costs nothing until a real Jacobian shows up.           *)

type adj =
  | Sel of { off : int; dim : int; scale : float; err : int }
  | Reg of { reg : int; rows : int; cols : int }

let sel_matrix ~off ~dim ~scale ~err =
  Mat.init err dim (fun i j -> if i = off + j then scale else 0.0)

let materialize ctx ~phase ~tag = function
  | Reg { reg; _ } -> reg
  | Sel { off; dim; scale; err } -> load ctx ~m:(sel_matrix ~off ~dim ~scale ~err) ~phase ~tag

(* The local Jacobian of one MO-DFG edge, as codegen actions. *)
type local_jac =
  | J_ident
  | J_neg_ident
  | J_scale of float
  | J_reg of int * int * int  (** register, rows, cols *)

let apply_local ctx ~phase ~tag adjoint = function
  | J_ident -> adjoint
  | J_neg_ident -> (
      match adjoint with
      | Sel s -> Sel { s with scale = -.s.scale }
      | Reg { reg; rows; cols } ->
          Reg { reg = emit ctx ~op:Instr.Neg ~srcs:[| reg |] ~rows ~cols ~phase ~tag; rows; cols })
  | J_scale s -> (
      match adjoint with
      | Sel sel -> Sel { sel with scale = s *. sel.scale }
      | Reg { reg; rows; cols } ->
          Reg
            { reg = emit ctx ~op:(Instr.Scale s) ~srcs:[| reg |] ~rows ~cols ~phase ~tag; rows; cols })
  | J_reg (j, jr, jc) -> (
      match adjoint with
      | Sel { off; dim; scale; err } ->
          (* Selector times J just places (scale * J) at row [off]. *)
          assert (dim = jr);
          let j =
            if scale = 1.0 then j
            else emit ctx ~op:(Instr.Scale scale) ~srcs:[| j |] ~rows:jr ~cols:jc ~phase ~tag
          in
          let reg =
            emit ctx
              ~op:(Instr.Assemble [ (off, 0) ])
              ~srcs:[| j |] ~rows:err ~cols:jc ~phase ~tag
          in
          Reg { reg; rows = err; cols = jc }
      | Reg { reg; rows; _ } ->
          Reg
            {
              reg = emit ctx ~op:Instr.Gemm ~srcs:[| reg; j |] ~rows ~cols:jc ~phase ~tag;
              rows;
              cols = jc;
            })

let add_adjoint ctx ~phase ~tag a b =
  let ra = materialize ctx ~phase ~tag a in
  let rb = materialize ctx ~phase ~tag b in
  let rows, cols = B.shape ctx.b ra in
  Reg { reg = emit ctx ~op:Instr.Vadd ~srcs:[| ra; rb |] ~rows ~cols ~phase ~tag; rows; cols }

(* ------------------------------------------------------------------ *)
(* Symbolic factor lowering: forward (error) + backward (Jacobians).   *)

type lin = {
  lvars : string list;
  lblocks : (string * int) list;  (** whitened Jacobian register per variable *)
  lrhs : int;  (** register holding -whitened error, rows x 1 *)
  lrows : int;
}

let forward_pass ctx ~tag ~regs_of_var g =
  let nodes = Modfg.nodes g in
  let regs = Array.make (Array.length nodes) (-1) in
  Array.iter
    (fun (n : Modfg.node) ->
      let rows, cols = shape_of_ty n.ty in
      let arg k = regs.(n.args.(k)) in
      let reg =
        match n.op with
        | Modfg.In_leaf leaf -> leaf_reg (regs_of_var (leaf_var leaf)) leaf
        | Modfg.In_const (Value.Rot m) -> load ctx ~m ~phase:Instr.Construct ~tag
        | Modfg.In_const (Value.Vc v) -> load ctx ~m:(Mat.of_vec v) ~phase:Instr.Construct ~tag
        | Modfg.Op_vadd ->
            emit ctx ~op:Instr.Vadd ~srcs:[| arg 0; arg 1 |] ~rows ~cols ~phase:Instr.Construct ~tag
        | Modfg.Op_vsub ->
            emit ctx ~op:Instr.Vsub ~srcs:[| arg 0; arg 1 |] ~rows ~cols ~phase:Instr.Construct ~tag
        | Modfg.Op_vscale s ->
            emit ctx ~op:(Instr.Scale s) ~srcs:[| arg 0 |] ~rows ~cols ~phase:Instr.Construct ~tag
        | Modfg.Op_rt ->
            emit ctx ~op:Instr.Transpose ~srcs:[| arg 0 |] ~rows ~cols ~phase:Instr.Construct ~tag
        | Modfg.Op_rr ->
            emit ctx ~op:Instr.Gemm ~srcs:[| arg 0; arg 1 |] ~rows ~cols ~phase:Instr.Construct ~tag
        | Modfg.Op_rv ->
            emit ctx ~op:Instr.Gemv ~srcs:[| arg 0; arg 1 |] ~rows ~cols ~phase:Instr.Construct ~tag
        | Modfg.Op_log ->
            emit ctx ~op:Instr.Logm ~srcs:[| arg 0 |] ~rows ~cols ~phase:Instr.Construct ~tag
        | Modfg.Op_exp ->
            emit ctx ~op:Instr.Expm ~srcs:[| arg 0 |] ~rows ~cols ~phase:Instr.Construct ~tag
      in
      regs.(n.id) <- reg)
    nodes;
  regs

(* Backward local Jacobians, mirroring Modfg.local_jacobian but as
   instruction emission. *)
let local_jacobian ctx ~tag ~regs (nodes : Modfg.node array) (n : Modfg.node) k =
  let phase = Instr.Construct in
  let arg_node i = nodes.(n.args.(i)) in
  let arg_reg i = regs.(n.args.(i)) in
  let rot_dim () =
    match (arg_node 0).ty with Value.Trot d -> d | Value.Tvec _ -> assert false
  in
  match n.op with
  | Modfg.In_leaf _ | Modfg.In_const _ -> assert false
  | Modfg.Op_vadd -> J_ident
  | Modfg.Op_vsub -> if k = 0 then J_ident else J_neg_ident
  | Modfg.Op_vscale s -> J_scale s
  | Modfg.Op_rt ->
      if rot_dim () = 2 then J_neg_ident
      else
        J_reg (emit ctx ~op:Instr.Neg ~srcs:[| arg_reg 0 |] ~rows:3 ~cols:3 ~phase ~tag, 3, 3)
  | Modfg.Op_rr ->
      if rot_dim () = 2 then J_ident
      else if k = 0 then
        J_reg (emit ctx ~op:Instr.Transpose ~srcs:[| arg_reg 1 |] ~rows:3 ~cols:3 ~phase ~tag, 3, 3)
      else J_ident
  | Modfg.Op_rv ->
      if k = 1 then
        let d = rot_dim () in
        J_reg (arg_reg 0, d, d)
      else if rot_dim () = 2 then begin
        (* d(Rv)/dtheta = R (P v) with P the quarter-turn matrix. *)
        let p = load ctx ~m:(Mat.of_rows [| [| 0.0; -1.0 |]; [| 1.0; 0.0 |] |]) ~phase ~tag in
        let pv = emit ctx ~op:Instr.Gemv ~srcs:[| p; arg_reg 1 |] ~rows:2 ~cols:1 ~phase ~tag in
        J_reg (emit ctx ~op:Instr.Gemv ~srcs:[| arg_reg 0; pv |] ~rows:2 ~cols:1 ~phase ~tag, 2, 1)
      end
      else begin
        (* d(Rv)/dphi = -(R v^). *)
        let sk = emit ctx ~op:Instr.Skew ~srcs:[| arg_reg 1 |] ~rows:3 ~cols:3 ~phase ~tag in
        let rv = emit ctx ~op:Instr.Gemm ~srcs:[| arg_reg 0; sk |] ~rows:3 ~cols:3 ~phase ~tag in
        J_reg (emit ctx ~op:Instr.Neg ~srcs:[| rv |] ~rows:3 ~cols:3 ~phase ~tag, 3, 3)
      end
  | Modfg.Op_log ->
      if Value.tangent_dim n.ty = 1 then J_ident
      else J_reg (emit ctx ~op:Instr.Jrinv ~srcs:[| regs.(n.id) |] ~rows:3 ~cols:3 ~phase ~tag, 3, 3)
  | Modfg.Op_exp ->
      if Value.tangent_dim n.ty = 1 then J_ident
      else J_reg (emit ctx ~op:Instr.Jr ~srcs:[| arg_reg 0 |] ~rows:3 ~cols:3 ~phase ~tag, 3, 3)

let backward_pass ctx ~tag ~regs g =
  let phase = Instr.Construct in
  let nodes = Modfg.nodes g in
  let err = Modfg.error_dim g in
  let adj : adj option array = Array.make (Array.length nodes) None in
  let accumulate id contrib =
    adj.(id) <-
      Some (match adj.(id) with None -> contrib | Some prev -> add_adjoint ctx ~phase ~tag prev contrib)
  in
  (* Seed the outputs. *)
  let offset = ref 0 in
  Array.iter
    (fun out ->
      let dim = Value.tangent_dim nodes.(out).ty in
      accumulate out (Sel { off = !offset; dim; scale = 1.0; err });
      offset := !offset + dim)
    (Modfg.outputs g);
  for i = Array.length nodes - 1 downto 0 do
    let node = nodes.(i) in
    match (adj.(i), node.op) with
    | None, _ | Some _, (Modfg.In_leaf _ | Modfg.In_const _) -> ()
    | ( Some a,
        ( Modfg.Op_vadd | Modfg.Op_vsub | Modfg.Op_vscale _ | Modfg.Op_rt | Modfg.Op_rr
        | Modfg.Op_rv | Modfg.Op_log | Modfg.Op_exp ) ) ->
        Array.iteri
          (fun k argid ->
            let j = local_jacobian ctx ~tag ~regs nodes node k in
            accumulate argid (apply_local ctx ~phase ~tag a j))
          node.args
  done;
  (* Jacobian register per leaf (zero block for cancelled leaves). *)
  List.map
    (fun (leaf, id) ->
      let td = Value.tangent_dim nodes.(id).ty in
      let reg =
        match adj.(id) with
        | Some a -> materialize ctx ~phase ~tag a
        | None -> load ctx ~m:(Mat.create err td) ~phase ~tag
      in
      (leaf, reg))
    (Modfg.leaves g)

let whiten_and_pack ctx ~tag ~factor ~err_reg ~var_blocks =
  let phase = Instr.Construct in
  let sigmas = Factor.sigmas factor in
  let err = Vec.dim sigmas in
  let uniform = Array.for_all (fun s -> s = sigmas.(0)) sigmas in
  let whiten reg cols =
    if uniform then
      emit ctx ~op:(Instr.Scale (1.0 /. sigmas.(0))) ~srcs:[| reg |] ~rows:err ~cols ~phase ~tag
    else begin
      let w = Mat.init err err (fun i j -> if i = j then 1.0 /. sigmas.(i) else 0.0) in
      let wreg = load ctx ~m:w ~phase ~tag in
      emit ctx ~op:Instr.Gemm ~srcs:[| wreg; reg |] ~rows:err ~cols ~phase ~tag
    end
  in
  let blocks = List.map (fun (v, reg, cols) -> (v, whiten reg cols)) var_blocks in
  let werr = whiten err_reg 1 in
  let rhs = emit ctx ~op:Instr.Neg ~srcs:[| werr |] ~rows:err ~cols:1 ~phase ~tag in
  { lvars = List.map (fun (v, _, _) -> v) var_blocks; lblocks = blocks; lrhs = rhs; lrows = err }

let lower_symbolic ctx graph ~regs_of_var factor g =
  let tag = Factor.name factor in
  let regs = forward_pass ctx ~tag ~regs_of_var g in
  let err = Modfg.error_dim g in
  (* Stack the error components into one rows x 1 register. *)
  let outputs = Modfg.outputs g in
  let err_reg =
    if Array.length outputs = 1 then regs.(outputs.(0))
    else begin
      let srcs = Array.map (fun o -> regs.(o)) outputs in
      let nodes = Modfg.nodes g in
      let places = ref [] in
      let off = ref 0 in
      Array.iter
        (fun o ->
          let d = Value.tangent_dim nodes.(o).ty in
          places := (!off, 0) :: !places;
          off := !off + d)
        outputs;
      emit ctx
        ~op:(Instr.Assemble (List.rev !places))
        ~srcs ~rows:err ~cols:1 ~phase:Instr.Construct ~tag
    end
  in
  let leaf_jacs = backward_pass ctx ~tag ~regs g in
  (* Combine a pose variable's rotation and translation leaves into one
     block in tangent order. *)
  let var_blocks =
    List.map
      (fun v ->
        let value = Graph.value graph v in
        let vdim = Var.dim value in
        let rdim = Var.rot_dim value in
        let mine = List.filter (fun (leaf, _) -> leaf_var leaf = v) leaf_jacs in
        match mine with
        | [ (Expr.Vec_of _, reg) ] -> (v, reg, vdim)
        | _ ->
            let srcs = ref [] and places = ref [] in
            List.iter
              (fun (leaf, reg) ->
                match leaf with
                | Expr.Rot_of _ ->
                    srcs := reg :: !srcs;
                    places := (0, 0) :: !places
                | Expr.Trans_of _ ->
                    srcs := reg :: !srcs;
                    places := (0, rdim) :: !places
                | Expr.Vec_of _ -> ())
              mine;
            let reg =
              if !srcs = [] then load ctx ~m:(Mat.create err vdim) ~phase:Instr.Construct ~tag:(Factor.name factor)
              else
                emit ctx
                  ~op:(Instr.Assemble (List.rev !places))
                  ~srcs:(Array.of_list (List.rev !srcs))
                  ~rows:err ~cols:vdim ~phase:Instr.Construct ~tag:(Factor.name factor)
            in
            (v, reg, vdim))
      (Factor.vars factor)
  in
  whiten_and_pack ctx ~tag ~factor ~err_reg ~var_blocks

(* ------------------------------------------------------------------ *)
(* Native factor lowering: a kernel instruction + extracts.            *)

let rebuild_value template mats pos =
  match template with
  | Var.Pose2 _ ->
      let r = mats.(pos) and t = mats.(pos + 1) in
      (Var.Pose2 (Pose2.create ~theta:(So2.log r) ~t:(Mat.to_vec t)), pos + 2)
  | Var.Pose3 _ ->
      let r = mats.(pos) and t = mats.(pos + 1) in
      (Var.Pose3 (Pose3.create ~r ~t:(Mat.to_vec t)), pos + 2)
  | Var.Se3 _ -> (Var.Se3 (Se3.of_matrix mats.(pos)), pos + 1)
  | Var.Vector _ -> (Var.Vector (Mat.to_vec mats.(pos)), pos + 1)

let lower_native ctx graph ~regs_of_var factor =
  let tag = Factor.name factor in
  let vars = Factor.vars factor in
  let err = Factor.error_dim factor in
  let dims = List.map (fun v -> Var.dim (Graph.value graph v)) vars in
  let total = List.fold_left ( + ) 0 dims in
  let srcs =
    List.concat_map
      (fun v ->
        match regs_of_var v with
        | Pose_regs { rot; trans; _ } -> [ rot; trans ]
        | Se3_regs { reg } -> [ reg ]
        | Vec_regs { reg; _ } -> [ reg ])
      vars
  in
  let templates = List.map (fun v -> (v, Graph.value graph v)) vars in
  let apply mats =
    (* Rebuild a lookup from the incoming registers. *)
    let assoc = ref [] in
    let pos = ref 0 in
    List.iter
      (fun (v, template) ->
        let value, next = rebuild_value template mats !pos in
        assoc := (v, value) :: !assoc;
        pos := next)
      templates;
    let lookup v = List.assoc v !assoc in
    let werr, blocks = Factor.linearize factor lookup in
    let out = Mat.create err (1 + total) in
    Mat.set_block out 0 0 (Mat.of_vec (Vec.neg werr));
    let col = ref 1 in
    List.iter2
      (fun v d ->
        (match List.assoc_opt v blocks with
        | Some b -> Mat.set_block out 0 !col b
        | None -> ());
        col := !col + d)
      vars dims;
    out
  in
  let flops = (err * total * 3) + (err * 10) in
  (* Kernel names are the deployment registry's keys: namespace them
     by algorithm so identically-named factors of different algorithms
     stay distinct. *)
  let kname = Printf.sprintf "a%d:%s" ctx.algo tag in
  let kreg =
    B.emit ctx.b
      ~op:(Instr.Kernel { Instr.kname; flops; apply })
      ~srcs:(Array.of_list srcs) ~rows:err ~cols:(1 + total) ~phase:Instr.Construct ~algo:ctx.algo
      ~tag
  in
  let rhs =
    emit ctx
      ~op:(Instr.Extract { row = 0; col = 0; rows = err; cols = 1 })
      ~srcs:[| kreg |] ~rows:err ~cols:1 ~phase:Instr.Construct ~tag
  in
  let col = ref 1 in
  let blocks =
    List.map2
      (fun v d ->
        let reg =
          emit ctx
            ~op:(Instr.Extract { row = 0; col = !col; rows = err; cols = d })
            ~srcs:[| kreg |] ~rows:err ~cols:d ~phase:Instr.Construct ~tag
        in
        col := !col + d;
        (v, reg))
      vars dims
  in
  { lvars = vars; lblocks = blocks; lrhs = rhs; lrows = err }

(* ------------------------------------------------------------------ *)
(* Elimination plan (Fig. 5) and back substitution (Fig. 6).           *)

type cond_regs = {
  cvar : string;
  cdim : int;
  cr : int;  (** d x d upper-triangular register *)
  cparents : (string * int) list;
  crhs : int;
}

let compile_elimination ctx ~order ~dims lins =
  let position = Hashtbl.create 16 in
  List.iteri (fun i v -> Hashtbl.add position v i) order;
  let work = ref lins in
  let conds = ref [] in
  List.iter
    (fun v ->
      let adjacent, rest = List.partition (fun l -> List.mem v l.lvars) !work in
      if adjacent = [] then raise (Elimination.Underconstrained v);
      let d = dims v in
      let others =
        List.concat_map (fun l -> l.lvars) adjacent
        |> List.sort_uniq compare
        |> List.filter (fun w -> w <> v)
        |> List.sort (fun a b -> compare (Hashtbl.find position a) (Hashtbl.find position b))
      in
      let offsets = Hashtbl.create 8 in
      let width = ref 0 in
      List.iter
        (fun w ->
          Hashtbl.add offsets w !width;
          width := !width + dims w)
        (v :: others);
      let w = !width in
      let m = List.fold_left (fun acc l -> acc + l.lrows) 0 adjacent in
      if m < d then raise (Elimination.Underconstrained v);
      let tag = "elim:" ^ v in
      (* Gather the adjacent factors' blocks into Abar = [A | b]. *)
      let srcs = ref [] and places = ref [] in
      let row = ref 0 in
      List.iter
        (fun l ->
          List.iter
            (fun (var, reg) ->
              srcs := reg :: !srcs;
              places := (!row, Hashtbl.find offsets var) :: !places)
            l.lblocks;
          srcs := l.lrhs :: !srcs;
          places := (!row, w) :: !places;
          row := !row + l.lrows)
        adjacent;
      let abar =
        emit ctx
          ~op:(Instr.Assemble (List.rev !places))
          ~srcs:(Array.of_list (List.rev !srcs))
          ~rows:m ~cols:(w + 1) ~phase:Instr.Decompose ~tag
      in
      let rbar =
        emit ctx ~op:Instr.Qr ~srcs:[| abar |] ~rows:m ~cols:(w + 1) ~phase:Instr.Decompose ~tag
      in
      let extract ~row ~col ~rows ~cols =
        emit ctx
          ~op:(Instr.Extract { row; col; rows; cols })
          ~srcs:[| rbar |] ~rows ~cols ~phase:Instr.Decompose ~tag
      in
      let cr = extract ~row:0 ~col:0 ~rows:d ~cols:d in
      let cparents =
        List.map (fun p -> (p, extract ~row:0 ~col:(Hashtbl.find offsets p) ~rows:d ~cols:(dims p))) others
      in
      let crhs = extract ~row:0 ~col:w ~rows:d ~cols:1 in
      conds := { cvar = v; cdim = d; cr; cparents; crhs } :: !conds;
      let leftover = min m w - d in
      let work' =
        if leftover <= 0 || others = [] then rest
        else begin
          let blocks =
            List.map
              (fun p -> (p, extract ~row:d ~col:(Hashtbl.find offsets p) ~rows:leftover ~cols:(dims p)))
              others
          in
          let rhs = extract ~row:d ~col:w ~rows:leftover ~cols:1 in
          { lvars = others; lblocks = blocks; lrhs = rhs; lrows = leftover } :: rest
        end
      in
      work := work')
    order;
  List.rev !conds

let compile_backsub ctx conds =
  let solution = Hashtbl.create 16 in
  List.iter
    (fun c ->
      let tag = "solve:" ^ c.cvar in
      let acc =
        List.fold_left
          (fun acc (p, block) ->
            let dp = Hashtbl.find solution p in
            let contrib =
              emit ctx ~op:Instr.Gemv ~srcs:[| block; dp |] ~rows:c.cdim ~cols:1
                ~phase:Instr.Backsub ~tag
            in
            emit ctx ~op:Instr.Vsub ~srcs:[| acc; contrib |] ~rows:c.cdim ~cols:1
              ~phase:Instr.Backsub ~tag)
          c.crhs c.cparents
      in
      let delta =
        emit ctx ~op:Instr.Backsolve ~srcs:[| c.cr; acc |] ~rows:c.cdim ~cols:1
          ~phase:Instr.Backsub ~tag
      in
      Hashtbl.add solution c.cvar delta)
    (List.rev conds);
  solution

(* ------------------------------------------------------------------ *)

(* One linearize-eliminate-substitute round over the given variable
   input registers; returns the per-variable delta registers. *)
let compile_round ctx graph ~regs_of_var ~order =
  let lins =
    Obs.with_span "compile.construct" @@ fun () ->
    List.map
      (fun f ->
        match Factor.modfg f (Graph.lookup graph) with
        | Some g ->
            Obs.count "compile.factors.symbolic";
            lower_symbolic ctx graph ~regs_of_var f g
        | None ->
            Obs.count "compile.factors.native";
            lower_native ctx graph ~regs_of_var f)
      (Graph.factors graph)
  in
  let conds =
    Obs.with_span "compile.eliminate" (fun () ->
        compile_elimination ctx ~order ~dims:(Graph.dims graph) lins)
  in
  Obs.with_span "compile.backsub" (fun () -> compile_backsub ctx conds)

(* Per-opcode emission counters over a finished stream — one place
   covers every lowering path. *)
let record_program_counters (p : Program.t) =
  if Obs.enabled () then begin
    Array.iter
      (fun (i : Instr.t) -> Obs.count ("compile.op." ^ Instr.opcode_name i.Instr.op))
      p.Program.instrs;
    Obs.count "compile.instructions" ~n:(Program.length p)
  end;
  p

(* Post-hoc instruction-stream optimization (Opt pass pipeline),
   applied to the finished stream of every lowering path behind one
   [opt_level] knob: the static levels only (Opt's level contract). *)
let optimize_level ~opt_level (p : Program.t) =
  let level = min (Opt.clamp_level opt_level) Opt.last_static_level in
  if level = 0 then p
  else
    Obs.with_span "compile.optimize" ~attrs:[ ("level", string_of_int level) ] @@ fun () ->
    let p', _, rep = Opt.optimize_traced ~level p in
    Log.debug (fun m -> m "optimize (O%d): %a" level Opt.pp_report rep);
    p'

let compile_graph ?(algo = 0) ?(prefix = "") ?(ordering = Ordering.Min_degree) ?(cse = true) graph =
  Obs.with_span "compile.lower"
    ~attrs:
      [
        ("algo", string_of_int algo);
        ("variables", string_of_int (Graph.num_variables graph));
        ("factors", string_of_int (Graph.num_factors graph));
      ]
  @@ fun () ->
  let ctx = { b = B.create (); algo; cse; cache = Hashtbl.create 256 } in
  let var_regs = Hashtbl.create 32 in
  List.iter (fun v -> Hashtbl.add var_regs v (load_variable ctx graph v)) (Graph.variables graph);
  let regs_of_var v = Hashtbl.find var_regs v in
  let order =
    Ordering.compute ordering ~vars:(Graph.variables graph) ~factor_scopes:(Graph.factor_scopes graph)
  in
  let solution = compile_round ctx graph ~regs_of_var ~order in
  let outputs =
    List.map (fun v -> (prefix ^ v, Hashtbl.find solution v)) (Graph.variables graph)
  in
  let p = B.finish ctx.b ~outputs in
  Log.debug (fun m ->
      m "compiled %d variables / %d factors -> %d instructions" (Graph.num_variables graph)
        (Graph.num_factors graph) (Program.length p));
  p

let compile ?algo ?prefix ?ordering ?cse ?(opt_level = 1) graph =
  record_program_counters
    (optimize_level ~opt_level (compile_graph ?algo ?prefix ?ordering ?cse graph))

(* The update phase of Fig. 3: retract each variable by its delta to
   produce the next iteration's inputs. *)
let emit_update ctx graph regs v delta =
  let tag = "update:" ^ v in
  let phase = Instr.Construct in
  match regs with
  | Pose_regs { rot; trans; rot_dim; trans_dim } ->
      let dphi =
        emit ctx
          ~op:(Instr.Extract { row = 0; col = 0; rows = rot_dim; cols = 1 })
          ~srcs:[| delta |] ~rows:rot_dim ~cols:1 ~phase ~tag
      in
      let dt =
        emit ctx
          ~op:(Instr.Extract { row = rot_dim; col = 0; rows = trans_dim; cols = 1 })
          ~srcs:[| delta |] ~rows:trans_dim ~cols:1 ~phase ~tag
      in
      let n = trans_dim in
      let exp_d = emit ctx ~op:Instr.Expm ~srcs:[| dphi |] ~rows:n ~cols:n ~phase ~tag in
      let rot' = emit ctx ~op:Instr.Gemm ~srcs:[| rot; exp_d |] ~rows:n ~cols:n ~phase ~tag in
      let trans' =
        emit ctx ~op:Instr.Vadd ~srcs:[| trans; dt |] ~rows:trans_dim ~cols:1 ~phase ~tag
      in
      Pose_regs { rot = rot'; trans = trans'; rot_dim; trans_dim }
  | Se3_regs _ ->
      Error.fail Error.Compile ~context:[ "compile_iterations" ]
        ("SE(3) variable " ^ v ^ " is not compilable")
  | Vec_regs { reg; dim } ->
      let reg' = emit ctx ~op:Instr.Vadd ~srcs:[| reg; delta |] ~rows:dim ~cols:1 ~phase ~tag in
      ignore graph;
      Vec_regs { reg = reg'; dim }

let compile_iterations ?(algo = 0) ?(prefix = "") ?(ordering = Ordering.Min_degree)
    ?(opt_level = 1) ~iterations graph =
  if iterations < 1 then
    Error.fail Error.Compile ~context:[ "compile_iterations" ] "need at least one iteration";
  Obs.with_span "compile.lower_iterations"
    ~attrs:[ ("algo", string_of_int algo); ("iterations", string_of_int iterations) ]
  @@ fun () ->
  let ctx = { b = B.create (); algo; cse = true; cache = Hashtbl.create 256 } in
  let var_regs = Hashtbl.create 32 in
  List.iter (fun v -> Hashtbl.add var_regs v (load_variable ctx graph v)) (Graph.variables graph);
  let order =
    Ordering.compute ordering ~vars:(Graph.variables graph) ~factor_scopes:(Graph.factor_scopes graph)
  in
  let last_solution = ref None in
  for it = 1 to iterations do
    (* Value numbering must not merge operations across iterations that
       read different register generations — the cache keys on source
       registers, so this is automatic; clear anyway to bound it. *)
    Hashtbl.reset ctx.cache;
    let regs_of_var v = Hashtbl.find var_regs v in
    let solution = compile_round ctx graph ~regs_of_var ~order in
    last_solution := Some solution;
    if it < iterations then
      List.iter
        (fun v ->
          let updated = emit_update ctx graph (Hashtbl.find var_regs v) v (Hashtbl.find solution v) in
          Hashtbl.replace var_regs v updated)
        (Graph.variables graph)
  done;
  let solution = Option.get !last_solution in
  let outputs =
    List.map (fun v -> (prefix ^ v, Hashtbl.find solution v)) (Graph.variables graph)
  in
  record_program_counters (optimize_level ~opt_level (B.finish ctx.b ~outputs))

let compile_application ?(ordering = Ordering.Min_degree) ?(cse = true) ?(opt_level = 1) graphs =
  Obs.with_span "compile.application" @@ fun () ->
  (* Optimize after concatenation: CSE then also merges duplicates
     (selector matrices, shared priors, ...) across the application's
     algorithms, which per-graph optimization cannot see. *)
  record_program_counters
    (optimize_level ~opt_level
       (Program.concat
          (List.mapi
             (fun i (name, g) -> compile_graph ~algo:i ~prefix:(name ^ "/") ~ordering ~cse g)
             graphs)))

let compile_dense_graph ?(algo = 0) ?(prefix = "") graph =
  Obs.with_span "compile.lower_dense" ~attrs:[ ("algo", string_of_int algo) ] @@ fun () ->
  let ctx = { b = B.create (); algo; cse = true; cache = Hashtbl.create 256 } in
  let var_regs = Hashtbl.create 32 in
  List.iter (fun v -> Hashtbl.add var_regs v (load_variable ctx graph v)) (Graph.variables graph);
  let regs_of_var v = Hashtbl.find var_regs v in
  let lins =
    List.map
      (fun f ->
        match Factor.modfg f (Graph.lookup graph) with
        | Some g -> lower_symbolic ctx graph ~regs_of_var f g
        | None -> lower_native ctx graph ~regs_of_var f)
      (Graph.factors graph)
  in
  (* One monolithic dense system [A | b]. *)
  let order = Graph.variables graph in
  let offsets = Hashtbl.create 16 in
  let width = ref 0 in
  List.iter
    (fun v ->
      Hashtbl.add offsets v !width;
      width := !width + Graph.dims graph v)
    order;
  let w = !width in
  let m = List.fold_left (fun acc l -> acc + l.lrows) 0 lins in
  if m < w then raise (Elimination.Underconstrained "dense system");
  let srcs = ref [] and places = ref [] in
  let row = ref 0 in
  List.iter
    (fun l ->
      List.iter
        (fun (var, reg) ->
          srcs := reg :: !srcs;
          places := (!row, Hashtbl.find offsets var) :: !places)
        l.lblocks;
      srcs := l.lrhs :: !srcs;
      places := (!row, w) :: !places;
      row := !row + l.lrows)
    lins;
  let tag = "dense" in
  let abar =
    emit ctx
      ~op:(Instr.Assemble (List.rev !places))
      ~srcs:(Array.of_list (List.rev !srcs))
      ~rows:m ~cols:(w + 1) ~phase:Instr.Decompose ~tag
  in
  let rbar = emit ctx ~op:Instr.Qr ~srcs:[| abar |] ~rows:m ~cols:(w + 1) ~phase:Instr.Decompose ~tag in
  let r =
    emit ctx
      ~op:(Instr.Extract { row = 0; col = 0; rows = w; cols = w })
      ~srcs:[| rbar |] ~rows:w ~cols:w ~phase:Instr.Decompose ~tag
  in
  let rhs =
    emit ctx
      ~op:(Instr.Extract { row = 0; col = w; rows = w; cols = 1 })
      ~srcs:[| rbar |] ~rows:w ~cols:1 ~phase:Instr.Decompose ~tag
  in
  let delta =
    emit ctx ~op:Instr.Backsolve ~srcs:[| r; rhs |] ~rows:w ~cols:1 ~phase:Instr.Backsub ~tag
  in
  let outputs =
    List.map
      (fun v ->
        let d = Graph.dims graph v in
        let reg =
          emit ctx
            ~op:(Instr.Extract { row = Hashtbl.find offsets v; col = 0; rows = d; cols = 1 })
            ~srcs:[| delta |] ~rows:d ~cols:1 ~phase:Instr.Backsub ~tag
        in
        (prefix ^ v, reg))
      order
  in
  B.finish ctx.b ~outputs

let compile_dense ?algo ?prefix ?(opt_level = 1) graph =
  record_program_counters (optimize_level ~opt_level (compile_dense_graph ?algo ?prefix graph))

let compile_dense_application ?(opt_level = 1) graphs =
  Obs.with_span "compile.application" ~attrs:[ ("lowering", "dense") ] @@ fun () ->
  record_program_counters
    (optimize_level ~opt_level
       (Program.concat
          (List.mapi (fun i (name, g) -> compile_dense_graph ~algo:i ~prefix:(name ^ "/") g) graphs)))

let iterate ?(ordering = Ordering.Min_degree) ?(max_iterations = 25) ?(delta_tol = 1e-8) graph =
  let iters = ref 0 in
  let continue_ = ref true in
  while !continue_ && !iters < max_iterations do
    incr iters;
    let program = compile ~ordering graph in
    let deltas = Program.run program in
    let max_delta = ref 0.0 in
    List.iter
      (fun (v, d) ->
        Array.iter (fun x -> max_delta := Float.max !max_delta (Float.abs x)) d;
        Graph.set_value graph v (Var.retract (Graph.value graph v) d))
      deltas;
    if !max_delta < delta_tol then continue_ := false
  done;
  !iters
