(* The serving path, stage by stage, for the traced replay.

   This replays a request sequence in-process through each stage's
   public function, in the order [Llvm_serve.Server] calls them:
   protocol decode -> load (asm parse or bitcode decode) -> verify ->
   canonical digest -> cache probe -> pass pipeline, pass by pass ->
   post-pipeline verify -> encode -> cache put -> protocol encode.
   Each stage call is wrapped in a {!Trace} span.  Served payloads must
   be byte-equal to what the daemon returned for the same sequence,
   which is also what keeps this mirror honest about [Server]. *)

open Llvm_ir
module P = Llvm_serve.Protocol
module Cache = Llvm_serve.Cache
module Pass = Llvm_transforms.Pass
module Pipelines = Llvm_transforms.Pipelines
module Engine = Llvm_exec.Engine
module Interp = Llvm_exec.Interp
module T = Trace

type t = { cache : Cache.t }

let create () : t = { cache = Cache.create () }

let first_verify_error (m : Ir.modul) : string option =
  T.span "verify" (fun () ->
      match Verify.verify_module m with
      | [] -> None
      | e :: _ -> Some (Fmt.str "%a" Verify.pp_error e))

let load_module ~(what : string) (bytes : string) :
    (Ir.modul, string) result =
  T.count "loader.calls" 1.0;
  T.span "loader" (fun () -> Llvm_serve.Loader.of_bytes ~name:what bytes)

let decode_image (bytes : string) : Ir.modul =
  T.count "loader.calls" 1.0;
  T.span "loader" (fun () -> Llvm_bitcode.Decoder.decode bytes)

let load_payload ~(what : string) (payload : string) :
    (Ir.modul * string, string) result =
  match load_module ~what payload with
  | Error e -> Error e
  | Ok m -> (
    match first_verify_error m with
    | Some e -> Error (what ^ ": verification failed: " ^ e)
    | None ->
      Ok (m, T.span "digest" (fun () -> Llvm_bitcode.Digest.of_module m)))

let find (t : t) (key : string) : string option =
  T.span "cache" (fun () -> Cache.find t.cache key)

let put (t : t) (key : string) (v : string) : unit =
  T.span "cache" (fun () -> Cache.put t.cache key v)

let encode (m : Ir.modul) : string =
  let bytes = T.span "encoder" (fun () -> fst (Llvm_bitcode.Encoder.encode m)) in
  T.count "encoder.bytes" (float_of_int (String.length bytes));
  bytes

let run_passes (passes : Pass.t list) (m : Ir.modul) : unit =
  List.iter
    (fun (p : Pass.t) ->
      let changed = T.span ("pass." ^ p.Pass.name) (fun () -> Pass.run_pass p m) in
      T.count ("pass." ^ p.Pass.name ^ ".runs") 1.0;
      if changed then T.count ("pass." ^ p.Pass.name ^ ".changed") 1.0)
    passes

let level_passes (l : int) : Pass.t list =
  match l with
  | 0 -> []
  | 1 -> Pipelines.per_function_cleanup
  | 2 -> Pipelines.per_module
  | _ -> Pipelines.per_module @ Pipelines.link_time_ipo

let served ~(hit : bool) (payload : string) : P.response =
  P.Served
    { payload;
      metrics =
        { P.no_metrics with m_hit = hit; m_bytes = String.length payload } }

let compile (t : t) (payload : string) (spec : P.pipeline) : P.response =
  match load_payload ~what:"compile request" payload with
  | Error e -> P.Failed e
  | Ok (m, digest) -> (
    let key = digest ^ "|" ^ P.pipeline_to_string spec in
    match find t key with
    | Some bytes -> served ~hit:true bytes
    | None -> (
      match spec with
      | P.Passes _ -> P.Failed "explicit pass lists are not replayed"
      | P.Level l -> (
        run_passes (level_passes l) m;
        match first_verify_error m with
        | Some e -> P.Failed ("pipeline produced an invalid module: " ^ e)
        | None ->
          let bytes = encode m in
          put t key bytes;
          served ~hit:false bytes)))

let load_set ~(what : string) (payloads : string list) :
    (Ir.modul list * string, string) result =
  let rec go acc digests = function
    | [] ->
      Ok
        ( List.rev acc,
          Llvm_bitcode.Digest.of_bytes (String.concat "+" (List.rev digests)) )
    | p :: rest -> (
      match load_payload ~what p with
      | Error e -> Error e
      | Ok (m, d) -> go (m :: acc) (d :: digests) rest)
  in
  go [] [] payloads

let link (name : string) (mods : Ir.modul list) : (Ir.modul, string) result =
  T.span "link" (fun () ->
      match Llvm_linker.Link.link ~name mods with
      | m -> Ok m
      | exception Llvm_linker.Link.Link_error e -> Error ("link error: " ^ e))

(* Library-set IPO, cached under the set digest (as [Server]). *)
let optimized_libs (t : t) (mods : Ir.modul list) (libs_digest : string) :
    (Ir.modul, string) result =
  let key = libs_digest ^ "|libs-ipo" in
  let rebuild () =
    match link "libs" mods with
    | Error e -> Error e
    | Ok libm -> (
      T.span "link" (fun () -> run_passes Pipelines.link_time_ipo libm);
      match first_verify_error libm with
      | Some e -> Error ("library IPO produced an invalid module: " ^ e)
      | None ->
        put t key (encode libm);
        Ok libm)
  in
  match find t key with
  | Some bytes -> (
    match decode_image bytes with
    | m -> Ok m
    | exception Llvm_bitcode.Decoder.Malformed _ -> rebuild ())
  | None -> rebuild ()

let handle_link (t : t) (l : P.link_req) : P.response =
  match load_set ~what:"link apps" l.P.l_apps with
  | Error e -> P.Failed e
  | Ok (apps, apps_digest) -> (
    match load_set ~what:"link libs" l.P.l_libs with
    | Error e -> P.Failed e
    | Ok (lib_mods, libs_digest) -> (
      let key =
        Llvm_bitcode.Digest.of_bytes (apps_digest ^ "|" ^ libs_digest)
        ^ (if l.P.l_libs = [] then "|nolibs" else "|libs")
        ^ "|link"
      in
      match find t key with
      | Some bytes -> served ~hit:true bytes
      | None -> (
        let libm =
          if l.P.l_libs = [] then Ok None
          else Result.map Option.some (optimized_libs t lib_mods libs_digest)
        in
        match libm with
        | Error e -> P.Failed e
        | Ok libm -> (
          match link "served" (apps @ Option.to_list libm) with
          | Error e -> P.Failed e
          | Ok final -> (
            run_passes Pipelines.per_module final;
            match first_verify_error final with
            | Some e -> P.Failed ("link pipeline produced an invalid module: " ^ e)
            | None ->
              let bytes = encode final in
              put t key bytes;
              served ~hit:false bytes)))))

let status_of (r : Interp.run_result) : string * int =
  match r.Interp.status with
  | `Returned (Interp.Rint (_, v)) -> ("returned", Int64.to_int v land 0xff)
  | `Returned _ -> ("returned", 0)
  | `Exited c -> ("exited", c land 0xff)
  | `Unwound -> ("unwound", 120)
  | `Trapped msg -> ("trapped: " ^ msg, 121)

let handle_run (t : t) (r : P.run_req) : P.response =
  match compile t r.P.r_payload r.P.r_pipeline with
  | P.Served { payload = bytes; metrics } -> (
    match decode_image bytes with
    | exception Llvm_bitcode.Decoder.Malformed e ->
      P.Failed ("corrupt optimized image: " ^ e)
    | m ->
      let result, _ =
        T.span "exec" (fun () ->
            Engine.run_main ~fuel:r.P.r_fuel r.P.r_engine m)
      in
      T.count "exec.instructions" (float_of_int result.Interp.instructions);
      let status, exit_code = status_of result in
      P.Served
        { payload =
            P.encode_run_reply
              { P.status; exit_code; output = result.Interp.output;
                instructions = result.Interp.instructions };
          metrics })
  | e -> e

let handle_lint (t : t) (payload : string) : P.response =
  match load_payload ~what:"lint request" payload with
  | Error e -> P.Failed e
  | Ok (m, digest) -> (
    let key = digest ^ "|lint" in
    match find t key with
    | Some text -> served ~hit:true text
    | None ->
      let text =
        T.span "lint" (fun () ->
            String.concat "\n"
              (List.map Llvm_analysis.Lint.diag_to_json
                 (Llvm_analysis.Lint.run m)))
      in
      put t key text;
      served ~hit:false text)

let handle (t : t) (req : P.request) : P.response =
  match req.P.body with
  | P.Compile c -> compile t c.P.c_payload c.P.c_pipeline
  | P.Link l -> handle_link t l
  | P.Run r -> handle_run t r
  | P.Lint payload -> handle_lint t payload
  | P.Stats | P.Ping | P.Shutdown -> P.Failed "control requests are not replayed"

(* Requests that arrive together (a link batch): pre-warm library IPO
   once per library set shared by two or more members, then answer in
   order, as [Server.handle_batch] does. *)
let handle_batch (t : t) (reqs : P.request list) : P.response list =
  let groups = Hashtbl.create 4 in
  List.iter
    (fun req ->
      match req.P.body with
      | P.Link { l_libs = _ :: _ as libs; _ } ->
        Hashtbl.replace groups libs
          (1 + Option.value ~default:0 (Hashtbl.find_opt groups libs))
      | _ -> ())
    reqs;
  Hashtbl.iter
    (fun libs n ->
      if n >= 2 then
        match load_set ~what:"link libs" libs with
        | Error _ -> ()
        | Ok (mods, digest) -> ignore (optimized_libs t mods digest))
    groups;
  List.map (handle t) reqs

(* One client exchange as the wire sees it: encode and decode each
   request frame, handle them, encode and decode each response frame. *)
let exchange (t : t) (reqs : P.request list) : P.response list =
  let decoded =
    List.map
      (fun req ->
        let frame = T.span "protocol" (fun () -> P.encode_request req) in
        T.count "protocol.bytes" (float_of_int (String.length frame));
        match T.span "protocol" (fun () -> P.decode_request frame) with
        | Ok r -> r
        | Error e -> failwith ("replay: request does not round-trip: " ^ e))
      reqs
  in
  let resps =
    match decoded with [ r ] -> [ handle t r ] | rs -> handle_batch t rs
  in
  List.map
    (fun resp ->
      let frame = T.span "protocol" (fun () -> P.encode_response resp) in
      T.count "protocol.bytes" (float_of_int (String.length frame));
      match T.span "protocol" (fun () -> P.decode_response frame) with
      | Ok r -> r
      | Error e -> failwith ("replay: response does not round-trip: " ^ e))
    resps
