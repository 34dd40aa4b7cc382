(** The pass manager (paper section 3.2: optimizations "are built into
    libraries, making it easy for front-ends to use them").  A pass is a
    named module transformation reporting whether it changed anything;
    the manager runs sequences, times passes (Table 2), and keeps a
    registry for the opt tool. *)

type t = {
  name : string;
  description : string;
  run : Llvm_ir.Ir.modul -> bool;  (** returns [true] when anything changed *)
}

val make :
  name:string -> description:string -> (Llvm_ir.Ir.modul -> bool) -> t

(** Lift a per-function transformation over every defined function. *)
val function_pass :
  name:string -> description:string -> (Llvm_ir.Ir.func -> bool) -> t

val run_pass : t -> Llvm_ir.Ir.modul -> bool

(** Run and report elapsed wall-clock seconds. *)
val time_pass : t -> Llvm_ir.Ir.modul -> bool * float

val run_sequence : t list -> Llvm_ir.Ir.modul -> bool

(** {1 Registry (used by the opt tool)} *)

val register : t -> unit
val find : string -> t option
val all : unit -> t list
