(* Tests for the one JSON writer every machine-readable report uses:
   the string escaper, the layout rule (scalar-only containers on one
   line, anything else one element per line) and the refusal of
   numbers JSON cannot represent. *)

module Json = Llvm_json.Json

let test_escape () =
  Alcotest.(check string)
    "quote, backslash, newline, tab, control byte" {|a\"b\\c\nd\te\u0001f|}
    (Json.escape "a\"b\\c\nd\te\001f");
  Alcotest.(check string) "other bytes copied" "caf\xc3\xa9 ~"
    (Json.escape "caf\xc3\xa9 ~")

let test_nested_layout () =
  let v =
    Json.(
      Obj
        [ ("name", String "x\"y");
          ("rows", List [ Obj [ ("a", Int 1); ("b", Float 2.5) ]; Obj [] ]);
          ("flags", List [ Bool true; Null ]); ("r", fixed 3 0.12345);
          ("big", Float 1e21); ("neg", Int (-4)) ])
  in
  Alcotest.(check string) "nested output"
    {|{
  "name": "x\"y",
  "rows": [
    {"a": 1, "b": 2.5},
    {}
  ],
  "flags": [true, null],
  "r": 0.123,
  "big": 1e+21,
  "neg": -4
}|}
    (Json.to_string v);
  Alcotest.(check string) "raw text spliced verbatim, one element per line"
    "[\n  1,\n  {\"k\": 2}\n]"
    (Json.to_string (Json.List [ Json.Int 1; Json.Raw "{\"k\": 2}" ]))

let test_non_finite_rejected () =
  List.iter
    (fun (what, x) ->
      match Json.to_string (Json.List [ Json.Float x ]) with
      | s -> Alcotest.failf "%s printed as %s" what s
      | exception Invalid_argument _ -> ())
    [ ("nan", Float.nan); ("infinity", Float.infinity);
      ("-infinity", Float.neg_infinity) ]

let tests =
  [ Alcotest.test_case "string escaping" `Quick test_escape;
    Alcotest.test_case "nested list and object layout" `Quick
      test_nested_layout;
    Alcotest.test_case "nan and infinity rejected" `Quick
      test_non_finite_rejected ]
