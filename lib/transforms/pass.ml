(* The pass manager.

   Optimizations are "built into libraries, making it easy for front-ends
   to use them" (paper section 3.2).  A pass is a named module
   transformation returning whether it changed anything; the manager runs
   sequences, times individual passes (the measurements behind Table 2),
   and exposes a registry for the opt tool. *)

open Llvm_ir

type t = {
  name : string;
  description : string;
  run : Ir.modul -> bool;
}

let make ~name ~description run = { name; description; run }

(* Lift a per-function transformation to a module pass. *)
let function_pass ~name ~description (run_func : Ir.func -> bool) =
  { name;
    description;
    run =
      (fun m ->
        List.fold_left
          (fun changed f ->
            if Ir.is_declaration f then changed else run_func f || changed)
          false m.Ir.mfuncs) }

let run_pass (p : t) (m : Ir.modul) : bool = p.run m

(* Run a pass and report elapsed wall-clock seconds. *)
let time_pass (p : t) (m : Ir.modul) : bool * float =
  let t0 = Unix.gettimeofday () in
  let changed = p.run m in
  let t1 = Unix.gettimeofday () in
  (changed, t1 -. t0)

let run_sequence (passes : t list) (m : Ir.modul) : bool =
  List.fold_left (fun changed p -> run_pass p m || changed) false passes

(* -- Registry ----------------------------------------------------------- *)

let registry : (string, t) Hashtbl.t = Hashtbl.create 32

let register (p : t) = Hashtbl.replace registry p.name p

let find name = Hashtbl.find_opt registry name

let all () =
  Hashtbl.fold (fun _ p acc -> p :: acc) registry []
  |> List.sort (fun a b -> compare a.name b.name)
