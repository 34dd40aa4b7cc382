(* Function integration (inlining) — one of the three interprocedural
   passes timed in Table 2.

   Inlining a call site:
   - the caller block is split at the call; instructions after the call
     move to a continuation block;
   - the callee body is cloned with arguments substituted;
   - every cloned `ret` becomes a branch to the continuation, with a phi
     merging return values when there are several;
   - cloned allocas are hoisted into the caller entry so they keep
     function-lifetime semantics;
   - at an invoke site, cloned `unwind` instructions become direct
     branches to the invoke's unwind destination (the paper highlights
     exactly this optimization, section 2.4), and cloned calls become
     invokes so that exceptions thrown deeper still reach the handler. *)

open Llvm_ir
open Ir
open Llvm_analysis

type stats = {
  mutable inlined_calls : int;
  mutable deleted_functions : int;
}

let default_threshold = 40 (* callee instruction budget *)

(* -- Cloning ------------------------------------------------------------- *)

type clone_env = {
  vmap : (int, value) Hashtbl.t; (* old instr/arg id -> new value *)
  bmap : (int, block) Hashtbl.t; (* old block id -> new block *)
}

let map_value env (v : value) : value =
  match v with
  | Vinstr i -> (
    match Hashtbl.find_opt env.vmap i.iid with Some v -> v | None -> v)
  | Varg a -> (
    match Hashtbl.find_opt env.vmap a.aid with Some v -> v | None -> v)
  | Vblock b -> (
    match Hashtbl.find_opt env.bmap b.bid with
    | Some b' -> Vblock b'
    | None -> v)
  | Vconst _ | Vglobal _ | Vfunc _ -> v

(* Clone the body of [callee] into fresh blocks appended to [caller].
   Returns the clone of the callee entry and the list of cloned blocks. *)
let clone_body ~(caller : func) ~(callee : func) ~(args : value list) :
    block * block list =
  let env = { vmap = Hashtbl.create 64; bmap = Hashtbl.create 16 } in
  List.iter2
    (fun formal actual -> Hashtbl.replace env.vmap formal.aid actual)
    callee.fargs args;
  let cloned_blocks =
    List.map
      (fun b ->
        let nb = mk_block ~name:(callee.fname ^ "." ^ b.bname) () in
        Hashtbl.replace env.bmap b.bid nb;
        nb.bparent <- Some caller;
        nb)
      callee.fblocks
  in
  (* single batched append: repeated append_block would be quadratic in
     large callers *)
  caller.fblocks <- caller.fblocks @ cloned_blocks;
  (* Create all instruction clones first (operands patched afterwards) so
     that forward references in phis resolve. *)
  List.iter
    (fun b ->
      let nb = Hashtbl.find env.bmap b.bid in
      List.iter
        (fun i ->
          let ni =
            mk_instr ~name:i.iname ?alloc_ty:i.alloc_ty ~ty:i.ity i.iop []
          in
          Hashtbl.replace env.vmap i.iid (Vinstr ni);
          append_instr nb ni)
        b.instrs)
    callee.fblocks;
  List.iter
    (fun b ->
      List.iter
        (fun i ->
          match Hashtbl.find_opt env.vmap i.iid with
          | Some (Vinstr ni) ->
            set_operands ni (Array.map (map_value env) i.operands)
          | _ -> assert false)
        b.instrs)
    callee.fblocks;
  (Hashtbl.find env.bmap (entry_block callee).bid, cloned_blocks)

(* Replace [old_pred] with [new_pred] in the phis of [blk]. *)
let retarget_phis (blk : block) ~(old_pred : block) ~(new_pred : block) =
  List.iter
    (fun i ->
      if i.iop = Phi then
        Array.iteri
          (fun idx op ->
            match op with
            | Vblock b when b == old_pred -> set_operand i idx (Vblock new_pred)
            | _ -> ())
          i.operands)
    blk.instrs

(* Move the tail of [b] starting at (and excluding) [point] into a fresh
   block; successor phis are retargeted.  Returns the new block. *)
let split_block_after (caller : func) (b : block) (point : instr) ~suffix :
    block =
  let rec split before = function
    | [] -> (List.rev before, [])
    | i :: rest when i == point -> (List.rev (i :: before), rest)
    | i :: rest -> split (i :: before) rest
  in
  let keep, moved = split [] b.instrs in
  let nb = mk_block ~name:(b.bname ^ suffix) () in
  append_block caller nb;
  b.instrs <- keep;
  nb.instrs <- moved;
  List.iter (fun i -> i.iparent <- Some nb) moved;
  (match terminator nb with
  | Some t ->
    List.iter (fun s -> retarget_phis s ~old_pred:b ~new_pred:nb) (successors t)
  | None -> ());
  nb

(* Add [new_preds] entries to the phis of [handler], copying the value the
   phi had for [via] (the original invoke block). *)
let extend_handler_phis (handler : block) ~(via : block) (new_preds : block list)
    =
  List.iter
    (fun i ->
      if i.iop = Phi then
        match List.find_opt (fun (_, b) -> b == via) (phi_incoming i) with
        | Some (v, _) ->
          List.iter
            (fun p ->
              if
                not
                  (List.exists (fun (_, b) -> b == p) (phi_incoming i))
              then phi_add_incoming i v p)
            new_preds
        | None -> ())
    handler.instrs

(* -- The splice ----------------------------------------------------------- *)

let inline_call_site ?(cleanup = true) (caller : func) (site : instr) : bool =
  let callee =
    match call_callee site with
    | Vfunc f -> Some f
    | Vconst (Cfunc f) -> Some f
    | _ -> None
  in
  match callee with
  | None -> false
  | Some callee when is_declaration callee || callee == caller -> false
  | Some callee ->
    let site_block = Option.get site.iparent in
    let args = call_args site in
    let is_invoke = site.iop = Invoke in
    let invoke_normal =
      if is_invoke then Some (as_block site.operands.(1)) else None
    in
    let invoke_unwind =
      if is_invoke then Some (as_block site.operands.(2)) else None
    in
    (* 1. the continuation: where control resumes after the callee returns.
       For a call, split the block after the call site.  For an invoke
       (always a terminator) use a fresh empty block that will branch to
       the normal destination. *)
    let cont = split_block_after caller site_block site ~suffix:".cont" in
    (* the site instruction itself stays at the end of site_block *)
    (* 2. clone the callee *)
    let entry_clone, cloned = clone_body ~caller ~callee ~args in
    (* 3. rewrite cloned rets / unwinds / calls *)
    let rets = ref [] in
    let handler_preds = ref [] in
    List.iter
      (fun nb ->
        List.iter
          (fun ni ->
            match ni.iop with
            | Ret -> rets := ni :: !rets
            | Unwind when is_invoke ->
              let handler = Option.get invoke_unwind in
              let here = Option.get ni.iparent in
              let br = mk_instr ~ty:Ltype.Void Br [ Vblock handler ] in
              insert_before ~point:ni br;
              erase_instr ni;
              handler_preds := here :: !handler_preds
            | Call when is_invoke ->
              (* a call that may unwind must now route to the handler *)
              let handler = Option.get invoke_unwind in
              let nb_cur = Option.get ni.iparent in
              let next = split_block_after caller nb_cur ni ~suffix:".n" in
              let inv =
                mk_instr ~name:ni.iname ~ty:ni.ity Invoke
                  (Array.to_list
                     (Array.concat
                        [ [| ni.operands.(0); Vblock next; Vblock handler |];
                          Array.sub ni.operands 1 (Array.length ni.operands - 1)
                        ]))
              in
              replace_all_uses_with (Vinstr ni) (Vinstr inv);
              erase_instr ni;
              append_instr nb_cur inv;
              handler_preds := nb_cur :: !handler_preds
            | _ -> ())
          nb.instrs)
      cloned;
    (match invoke_unwind with
    | Some handler ->
      extend_handler_phis handler ~via:site_block !handler_preds
    | None -> ());

    (* hoist cloned allocas into the caller entry so their lifetime spans
       the whole caller activation *)
    let caller_entry = entry_block caller in
    List.iter
      (fun nb ->
        if not (nb == caller_entry) then
          List.iter
            (fun a ->
              if a.iop = Alloca && Array.length a.operands = 0 then begin
                unlink_instr a;
                a.iparent <- Some caller_entry;
                caller_entry.instrs <- a :: caller_entry.instrs
              end)
            nb.instrs)
      cloned;
    (* 4. rets branch to the continuation *)
    let ret_values =
      List.map
        (fun r ->
          let v =
            if Array.length r.operands = 1 then Some r.operands.(0) else None
          in
          let from_block = Option.get r.iparent in
          let br = mk_instr ~ty:Ltype.Void Br [ Vblock cont ] in
          insert_before ~point:r br;
          erase_instr r;
          (v, from_block))
        !rets
    in
    (* 5. the call's value: single ret -> direct value; several -> phi in
       cont (whose predecessors are exactly the returning blocks) *)
    let result_replacement =
      if site.ity = Ltype.Void then None
      else
        match ret_values with
        | [] -> Some (Vconst (Cundef site.ity))
        | [ (Some v, _) ] -> Some v
        | [ (None, _) ] -> Some (Vconst (Cundef site.ity))
        | _ ->
          let incoming =
            List.map
              (fun (v, b) ->
                ((match v with Some v -> v | None -> Vconst (Cundef site.ity)), b))
              ret_values
          in
          let phi =
            mk_instr ~name:site.iname ~ty:site.ity Phi
              (List.concat_map (fun (v, b) -> [ v; Vblock b ]) incoming)
          in
          prepend_instr cont phi;
          Some (Vinstr phi)
    in
    (match result_replacement with
    | Some v -> replace_all_uses_with (Vinstr site) v
    | None -> ());
    (* 6. retire the site: branch to the cloned entry instead *)
    erase_instr site;
    append_instr site_block (mk_instr ~ty:Ltype.Void Br [ Vblock entry_clone ]);
    (* For an invoke the continuation forwards to the normal destination,
       whose phis must now name cont as the predecessor. *)
    (match invoke_normal with
    | Some n ->
      append_instr cont (mk_instr ~ty:Ltype.Void Br [ Vblock n ]);
      retarget_phis n ~old_pred:site_block ~new_pred:cont
    | None -> ());
    (* The unwind edge from site_block is gone (the cloned unwind paths
       in handler_preds carry its phi value now, when the callee can
       unwind at all): drop the stale phi entries for site_block. *)
    (match invoke_unwind with
    | Some handler ->
      List.iter
        (fun i -> if i.iop = Phi then phi_remove_incoming i site_block)
        handler.instrs
    | None -> ());
    (match terminator cont with
    | Some _ -> ()
    | None ->
      (* callee never returns: the continuation is unreachable *)
      append_instr cont (mk_instr ~ty:Ltype.Void Unwind []));
    if cleanup then ignore (Cleanup.remove_unreachable_blocks caller);
    true

(* -- Policy --------------------------------------------------------------- *)

type context = {
  cg : Callgraph.t;
  recursive : (int, unit) Hashtbl.t; (* fids in nontrivial SCCs / self-loops *)
}

let make_context (m : modul) : context =
  let cg = Callgraph.compute m in
  let recursive = Hashtbl.create 16 in
  List.iter
    (fun scc ->
      match scc with
      | [ f ] ->
        if List.exists (fun c -> c == f) (Callgraph.node cg f).Callgraph.callees
        then Hashtbl.replace recursive f.fid ()
      | fs -> List.iter (fun f -> Hashtbl.replace recursive f.fid ()) fs)
    (Callgraph.sccs cg);
  { cg; recursive }

(* A call site is worth inlining when the callee is small and not
   (mutually) recursive; internal functions with a single caller get a
   bigger budget since the original is deleted afterwards. *)
let should_inline (ctx : context) ?(threshold = default_threshold)
    (caller : func) (callee : func) : bool =
  (not (is_declaration callee))
  && (not (callee == caller))
  && (not (Hashtbl.mem ctx.recursive callee.fid))
  &&
  let size = instr_count callee in
  (* "single caller" means a single direct call site: inlining then
     deletes the original, so code size cannot grow *)
  let call_sites =
    List.length
      (List.filter
         (fun u ->
           match u.user.iop with
           | (Call | Invoke) when u.index = 0 -> true
           | _ -> false)
         callee.fuses)
  in
  let single_site =
    callee.flinkage = Internal && call_sites = 1
    && not (Callgraph.address_taken callee)
  in
  size <= threshold || (single_site && size <= threshold * 8)

(* Profile-guided budget for one call site (section 3.5): a site
   hotter than its caller's entry runs in a loop — integrate it even
   when large; a site the fleet executed gets a modest boost; a site no
   run ever reached is cold — shrink its budget so dead cross-calls do
   not bloat the code the JIT must compile. *)
let site_threshold ?profile (caller : func) (site : instr) : int =
  let threshold = default_threshold in
  match (profile, site.iparent) with
  | None, _ | _, None -> threshold
  | Some p, Some b ->
    let w =
      Llvm_profile.Profile.block_weight p ~func:caller.fname ~block:b.bname
    in
    if w = 0 then max 1 (threshold / 4)
    else
      let entry_w =
        Llvm_profile.Profile.block_weight p ~func:caller.fname
          ~block:(entry_block caller).bname
      in
      if w > entry_w then threshold * 8 else threshold * 2

let run ?profile (m : modul) : stats =
  let stats = { inlined_calls = 0; deleted_functions = 0 } in
  let ctx = make_context m in
  (* Visit callees before callers so that inlining composes bottom-up. *)
  let order = List.concat (Callgraph.sccs ctx.cg) in
  List.iter
    (fun caller ->
      if not (is_declaration caller) then begin
        (* per round: collect every candidate site in one scan, then
           inline them all; cloned bodies may expose new sites, so repeat
           a bounded number of rounds *)
        let rounds = ref 0 in
        let continue_ = ref true in
        while !continue_ && !rounds < 4 do
          continue_ := false;
          incr rounds;
          let sites = ref [] in
          iter_instrs
            (fun i ->
              match i.iop with
              | Call | Invoke -> (
                match call_callee i with
                | Vfunc callee
                  when should_inline ctx
                         ~threshold:(site_threshold ?profile caller i)
                         caller callee ->
                  sites := i :: !sites
                | _ -> ())
              | _ -> ())
            caller;
          List.iter
            (fun i ->
              (* the site may sit in code made unreachable by an earlier
                 inline in this round; it is still structurally valid *)
              if i.iparent <> None && inline_call_site ~cleanup:false caller i
              then begin
                stats.inlined_calls <- stats.inlined_calls + 1;
                continue_ := true
              end)
            (List.rev !sites);
          if !continue_ then ignore (Cleanup.remove_unreachable_blocks caller)
        done
      end)
    order;
  (* Delete internal functions that no longer have references.  The
     functions mentioned by global initializers are collected once; a
     function's uses can only shrink during this sweep. *)
  let in_initializers : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let rec scan_const c =
    match c with
    | Cfunc f -> Hashtbl.replace in_initializers f.fid ()
    | Ccast (_, c) -> scan_const c
    | Carray (_, cs) | Cstruct (_, cs) -> List.iter scan_const cs
    | Cbool _ | Cint _ | Cfloat _ | Cnull _ | Cundef _ | Czero _ | Cgvar _ ->
      ()
  in
  List.iter
    (fun g -> match g.ginit with Some c -> scan_const c | None -> ())
    m.mglobals;
  let continue_ = ref true in
  while !continue_ do
    continue_ := false;
    List.iter
      (fun f ->
        if
          f.flinkage = Internal && f.fuses = []
          && not (Hashtbl.mem in_initializers f.fid)
        then begin
          (* drop body first so its operand uses go away *)
          List.iter
            (fun b ->
              List.iter
                (fun i ->
                  if i.ity <> Ltype.Void then
                    replace_all_uses_with (Vinstr i) (Vconst (Cundef i.ity)))
                b.instrs)
            f.fblocks;
          List.iter
            (fun b -> List.iter erase_instr (List.rev b.instrs))
            f.fblocks;
          f.fblocks <- [];
          remove_func m f;
          stats.deleted_functions <- stats.deleted_functions + 1;
          continue_ := true
        end)
      m.mfuncs
  done;
  stats

let pass =
  Pass.make ~name:"inline" ~description:"function integration"
    (fun m ->
      let s = run m in
      s.inlined_calls > 0 || s.deleted_functions > 0)
