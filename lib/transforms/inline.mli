(** Function integration (inlining), one of the three interprocedural
    passes timed in Table 2.

    At an invoke site, cloned [unwind] instructions become direct
    branches to the handler — the optimization the paper highlights in
    section 2.4 — and cloned calls become invokes so exceptions thrown
    deeper still reach it. *)

type stats = {
  mutable inlined_calls : int;
  mutable deleted_functions : int;
}

(** {1 Block surgery} (shared with the speculative-promotion pass) *)

(** Replace [old_pred] with [new_pred] in the phis of the block. *)
val retarget_phis :
  Llvm_ir.Ir.block ->
  old_pred:Llvm_ir.Ir.block ->
  new_pred:Llvm_ir.Ir.block ->
  unit

(** Move the tail of the block after (and excluding) the given
    instruction into a fresh block named with [suffix]; successor phis
    are retargeted.  Returns the new block. *)
val split_block_after :
  Llvm_ir.Ir.func ->
  Llvm_ir.Ir.block ->
  Llvm_ir.Ir.instr ->
  suffix:string ->
  Llvm_ir.Ir.block

(** Add entries to the handler's phis for [new_preds], copying the
    value each phi had for [via] (the original invoke block). *)
val extend_handler_phis :
  Llvm_ir.Ir.block -> via:Llvm_ir.Ir.block -> Llvm_ir.Ir.block list -> unit

(** Splice one call or invoke site.  [cleanup:false] defers
    unreachable-block removal to the caller (batching). *)
val inline_call_site : ?cleanup:bool -> Llvm_ir.Ir.func -> Llvm_ir.Ir.instr -> bool

(** Inliner policy context: call graph plus the recursive-function set. *)
type context = {
  cg : Llvm_analysis.Callgraph.t;
  recursive : (int, unit) Hashtbl.t;
}

val make_context : Llvm_ir.Ir.modul -> context

(** Small callees always inline; internal callees with a single direct
    call site get a larger budget (the original is deleted after). *)
val should_inline :
  context -> ?threshold:int -> Llvm_ir.Ir.func -> Llvm_ir.Ir.func -> bool

(** Bottom-up inlining over the whole module, then deletion of
    unreferenced internal functions.  With an aggregate [profile]
    (section 3.5), the per-site budget scales with the heat of the
    call's block: sites hotter than their caller's entry (loops) get
    8x, sites the fleet executed at all get 2x, and never-executed
    sites get a quarter. *)
val run : ?profile:Llvm_profile.Profile.t -> Llvm_ir.Ir.modul -> stats

val pass : Pass.t
