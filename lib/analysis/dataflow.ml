(* A generic iterative dataflow engine over the implicit CFG.

   The paper's "lifelong analysis" story rests on being able to run
   static analyses over the persistent IR at every stage of a program's
   lifetime (sections 3.2-3.3); this module supplies the shared
   machinery: a worklist solver parameterized over the lattice, the
   direction, and the per-block transfer function.  Clients include the
   lint checker suite and any flow-sensitive optimization pass.

   Facts are tracked at block granularity ([before] = fact at the block
   entry, [after] = fact at the block exit, both in *program* order
   regardless of analysis direction); checkers that need per-instruction
   facts re-walk a block's instructions from the block-level fact with
   the same instruction transfer they folded into the block transfer.

   The worklist is seeded in reverse postorder (forward analyses) or
   postorder (backward analyses), so acyclic regions converge in one
   sweep and loops in a handful.  Unreachable blocks are never visited:
   their facts stay at [bottom], which doubles as the "no information"
   element clients use to skip them. *)

open Llvm_ir
open Ir

type direction = Forward | Backward

module type LATTICE = sig
  type fact

  val bottom : fact
  (** Identity of [join]; also the initial fact of unvisited blocks. *)

  val equal : fact -> fact -> bool
  val join : fact -> fact -> fact
end

(* Fold an instruction-level transfer through a block, in program order
   or in reverse.  Polymorphic helpers shared by block transfers and by
   the per-instruction reporting walks. *)
let fold_block_forward (tf : 'a -> instr -> 'a) (b : block) (fact : 'a) : 'a =
  List.fold_left tf fact b.instrs

let fold_block_backward (tf : 'a -> instr -> 'a) (b : block) (fact : 'a) : 'a =
  List.fold_left tf fact (List.rev b.instrs)

(* A termination guard on block visits, not a tuning knob: a monotone
   transfer converges long before it. *)
let max_steps = 1_000_000

module Make (L : LATTICE) = struct
  type result = {
    before_tbl : (int, L.fact) Hashtbl.t; (* block id -> fact at block entry *)
    after_tbl : (int, L.fact) Hashtbl.t; (* block id -> fact at block exit *)
  }

  let before (r : result) (b : block) : L.fact =
    match Hashtbl.find_opt r.before_tbl b.bid with
    | Some x -> x
    | None -> L.bottom

  let after (r : result) (b : block) : L.fact =
    match Hashtbl.find_opt r.after_tbl b.bid with
    | Some x -> x
    | None -> L.bottom

  (* [boundary] is the fact entering the function (forward) or the fact
     at every exit block (backward).  [transfer b fact] maps the fact at
     one end of [b] to the fact at the other; it must be monotone for
     termination, and should map [bottom] to [bottom] when it wants
     unreached predecessors to stay silent. *)
  let run ~(direction : direction) ~(boundary : L.fact)
      ~(transfer : block -> L.fact -> L.fact) (f : func) : result =
    let r = { before_tbl = Hashtbl.create 64; after_tbl = Hashtbl.create 64 } in
    let order =
      match direction with
      | Forward -> Cfg.reverse_postorder f
      | Backward -> Cfg.postorder f
    in
    let succs b =
      match terminator b with Some t -> successors t | None -> []
    in
    let queue = Queue.create () in
    let queued = Hashtbl.create 64 in
    let enqueue b =
      if not (Hashtbl.mem queued b.bid) then begin
        Hashtbl.add queued b.bid ();
        Queue.add b queue
      end
    in
    List.iter enqueue order;
    let entry = match f.fblocks with b :: _ -> Some b | [] -> None in
    let is_entry b = match entry with Some e -> e == b | None -> false in
    let steps = ref 0 in
    while (not (Queue.is_empty queue)) && !steps < max_steps do
      incr steps;
      let b = Queue.pop queue in
      Hashtbl.remove queued b.bid;
      match direction with
      | Forward ->
        let inp =
          List.fold_left
            (fun acc p -> L.join acc (after r p))
            (if is_entry b then boundary else L.bottom)
            (predecessors b)
        in
        Hashtbl.replace r.before_tbl b.bid inp;
        let out = transfer b inp in
        if not (L.equal out (after r b)) then begin
          Hashtbl.replace r.after_tbl b.bid out;
          List.iter enqueue (succs b)
        end
      | Backward ->
        let out =
          match succs b with
          | [] -> boundary
          | ss ->
            List.fold_left (fun acc s -> L.join acc (before r s)) L.bottom ss
        in
        Hashtbl.replace r.after_tbl b.bid out;
        let inp = transfer b out in
        if not (L.equal inp (before r b)) then begin
          Hashtbl.replace r.before_tbl b.bid inp;
          List.iter enqueue (predecessors b)
        end
    done;
    r
end
