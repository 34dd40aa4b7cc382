(* Request traffic for the two serving workloads.

   serve-hot replays the fleet of [bench serve]: a universe of
   quick-profile genprog variants plus the exception-heavy programs,
   drawn by a zipf(s=1.1) popularity law.  The universe and its
   popularity ranking are fixed, so every seed sees the same mix of
   module sizes; the seed drives only the request sequence.

   serve-cold sends every request a module never sent before: fresh
   genprog seeds cycling through the quick profiles, derived from the
   benchmark seed.

   On both, every fourth request delivers its module as [.ll] text and
   the rest as [.bc] bitcode. *)

open Llvm_workloads
module P = Llvm_serve.Protocol

type fmt = Bc | Ll

type item = {
  name : string;
  is_eh : bool;
  bc : string;
  ll : string;  (** empty when the item is only ever sent as bitcode *)
}

let payload (it : item) = function Bc -> it.bc | Ll -> it.ll

type op =
  | Compile of { item : int; fmt : fmt; level : int }
  | Lint of { item : int; fmt : fmt }
  | Run of { item : int; fmt : fmt }
  | Link_batch of { apps : (int * fmt) list; lib : int }

let run_fuel = 10_000_000

(* -- zipf sampler -------------------------------------------------------------- *)

type zipf = { cum : float array; perm : int array }

(* Ranks 1..n with weight k^-s; [perm] maps rank to item, a fixed
   shuffle drawn from [rng] so popularity is not generation order. *)
let zipf ~(s : float) ~(n : int) (rng : Rng.t) : zipf =
  let perm = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  let acc = ref 0.0 in
  let cum =
    Array.init n (fun k ->
        acc := !acc +. (1.0 /. (float_of_int (k + 1) ** s));
        !acc)
  in
  { cum; perm }

let sample (z : zipf) (rng : Rng.t) : int =
  let n = Array.length z.cum in
  let u = float_of_int (Rng.int rng 1_000_000) /. 1e6 *. z.cum.(n - 1) in
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if z.cum.(mid) < u then search (mid + 1) hi else search lo mid
  in
  z.perm.(search 0 (n - 1))

(* -- payloads ------------------------------------------------------------------ *)

let encode m = fst (Llvm_bitcode.Encoder.encode m)

let item_of ~name ~is_eh ~with_ll (m : Llvm_ir.Ir.modul) : item =
  { name; is_eh; bc = encode m;
    ll = (if with_ll then Llvm_ir.Printer.module_to_string m else "") }

let hot_variants = 2

let hot_universe () : item array =
  let genprog =
    List.concat_map
      (fun p ->
        List.init hot_variants (fun v ->
            let q = Spec.quick p in
            let q =
              { q with
                Genprog.p_name = Printf.sprintf "%s.v%d" p.Genprog.p_name v;
                seed = q.Genprog.seed + (101 * v) }
            in
            item_of ~name:q.Genprog.p_name ~is_eh:false ~with_ll:true
              (Genprog.compile q)))
      Spec.spec2000
  in
  let eh =
    List.map
      (fun (name, src) ->
        item_of ~name ~is_eh:true ~with_ll:true (Ehprog.compile name src))
      Ehprog.programs
  in
  Array.of_list (genprog @ eh)

(* Shared libraries for link batches: MiniC modules with no main. *)
let libsets () : string array =
  Array.init 3 (fun i ->
      let src =
        Printf.sprintf
          {|
int svclib_mix_%d(int x) {
  int acc = x + %d;
  for (int k = 0; k < 64; k++) { acc = (acc * 33 + k) & 65535; }
  return acc;
}
int svclib_sum_%d(int n) {
  int s = 0;
  for (int i = 0; i < n; i++) s = s + svclib_mix_%d(i);
  return s;
}
|}
          i (17 * i) i i
      in
      encode
        (Llvm_minic.Codegen.compile_string
           ~name:(Printf.sprintf "svclib%d" i)
           src))

(* The k-th fresh module of a cold pool.  Profiles cycle so every
   stretch of 15 modules has the same size mix; seeds come from the
   benchmark seed and never repeat within a pool. *)
let fresh_module ~(seed : int) (k : int) : Genprog.profile =
  let profiles = Array.of_list Spec.spec2000 in
  let p = Spec.quick profiles.(k mod Array.length profiles) in
  { p with
    Genprog.p_name = Printf.sprintf "%s.s%d.k%d" p.Genprog.p_name seed k;
    seed = 1_000_003 + (seed * 7919) + (k * 104_729) }

let fmt_of_index (k : int) : fmt = if k mod 4 = 3 then Ll else Bc

let cold_item ~(seed : int) (k : int) : item =
  let p = fresh_module ~seed k in
  item_of ~name:p.Genprog.p_name ~is_eh:false
    ~with_ll:(fmt_of_index k = Ll)
    (Genprog.compile p)

(* -- request streams ----------------------------------------------------------- *)

type stream = {
  rng : Rng.t;
  mutable sent : int;  (** requests generated so far (format rotation) *)
  mutable session : int;
  mutable next_fresh : int;  (** cold: next unused pool index *)
}

let stream ~(seed : int) : stream =
  { rng = Rng.create (0x5e7e + seed); sent = 0; session = 0; next_fresh = 0 }

let next_fmt (st : stream) : fmt =
  let f = fmt_of_index st.sent in
  st.sent <- st.sent + 1;
  f

(* serve-hot: one session of 2-5 requests (70% compile, a fifth of them
   -O3; 15% lint; 15% run for exception programs, else -O2 compile),
   plus a 4-request link batch every 8th session. *)
let hot_session (st : stream) (z : zipf) (universe : item array)
    ~(nlibs : int) : op list =
  st.session <- st.session + 1;
  let nreq = 2 + Rng.int st.rng 4 in
  let reqs =
    List.init nreq (fun _ ->
        let item = sample z st.rng in
        let dice = Rng.int st.rng 100 in
        let fmt = next_fmt st in
        if dice < 70 then
          Compile { item; fmt; level = (if Rng.chance st.rng 20 then 3 else 2) }
        else if dice < 85 then Lint { item; fmt }
        else if universe.(item).is_eh then Run { item; fmt }
        else Compile { item; fmt; level = 2 })
  in
  if st.session mod 8 <> 0 then reqs
  else
    let lib = Rng.int st.rng nlibs in
    let apps =
      List.init 4 (fun _ ->
          let item = sample z st.rng in
          (item, next_fmt st))
    in
    reqs @ [ Link_batch { apps; lib } ]

(* serve-cold: one request on the next fresh module — 55% -O2 compile,
   30% -O3 compile, 15% lint.  The format follows the pool index, so
   it matches what the pool generated. *)
let cold_op (st : stream) : op =
  let item = st.next_fresh in
  st.next_fresh <- item + 1;
  let fmt = fmt_of_index item in
  let dice = Rng.int st.rng 100 in
  if dice < 55 then Compile { item; fmt; level = 2 }
  else if dice < 85 then Compile { item; fmt; level = 3 }
  else Lint { item; fmt }

(* The wire requests of one op, in send order. *)
let requests (items : item array) (libs : string array) (op : op) :
    P.request list =
  let pl item fmt = payload items.(item) fmt in
  match op with
  | Compile { item; fmt; level } ->
    [ P.req
        (P.Compile
           { c_payload = pl item fmt; c_pipeline = P.Level level;
             c_validate = false }) ]
  | Lint { item; fmt } -> [ P.req (P.Lint (pl item fmt)) ]
  | Run { item; fmt } ->
    [ P.req
        (P.Run
           { r_payload = pl item fmt; r_pipeline = P.Level 2;
             r_fuel = run_fuel; r_engine = Llvm_exec.Engine.Tiered }) ]
  | Link_batch { apps; lib } ->
    List.map
      (fun (item, fmt) ->
        P.req
          (P.Link
             { l_apps = [ pl item fmt ]; l_libs = [ libs.(lib) ];
               l_validate = false }))
      apps
