type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list
  | Raw of string

let fixed digits x =
  let scale = 10. ** float_of_int digits in
  Float (Float.round (x *. scale) /. scale)

let escape (s : string) : string =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Shortest of %.15g / %.17g that reads back as the same double. *)
let float_literal (x : float) : string =
  if not (Float.is_finite x) then
    invalid_arg (Printf.sprintf "Json: %h is not a JSON number" x);
  let s = Printf.sprintf "%.15g" x in
  if float_of_string s = x then s else Printf.sprintf "%.17g" x

let is_scalar = function
  | List (_ :: _) | Obj (_ :: _) | Raw _ -> false
  | _ -> true

let to_string (v : t) : string =
  let b = Buffer.create 256 in
  let add_string s =
    Buffer.add_char b '"';
    Buffer.add_string b (escape s);
    Buffer.add_char b '"'
  in
  let rec value indent = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (string_of_bool x)
    | Int n -> Buffer.add_string b (string_of_int n)
    | Float x -> Buffer.add_string b (float_literal x)
    | String s -> add_string s
    | Raw s -> Buffer.add_string b s
    | List vs -> container indent '[' ']' (List.map (fun v -> (None, v)) vs)
    | Obj kvs ->
      container indent '{' '}' (List.map (fun (k, v) -> (Some k, v)) kvs)
  and container indent opening closing items =
    let flat =
      indent <> "" && List.for_all (fun (_, v) -> is_scalar v) items
    in
    let inner = indent ^ "  " in
    Buffer.add_char b opening;
    List.iteri
      (fun i (key, v) ->
        if i > 0 then Buffer.add_char b ',';
        if not flat then begin
          Buffer.add_char b '\n';
          Buffer.add_string b inner
        end
        else if i > 0 then Buffer.add_char b ' ';
        Option.iter
          (fun k ->
            add_string k;
            Buffer.add_string b ": ")
          key;
        value inner v)
      items;
    if not flat then begin
      Buffer.add_char b '\n';
      Buffer.add_string b indent
    end;
    Buffer.add_char b closing
  in
  value "" v;
  Buffer.contents b
