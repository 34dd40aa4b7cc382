(** The one JSON writer: every machine-readable report (bench files,
    [llvmd] stats, [llvm-fuzz --json]) is built as a {!t} and printed
    by {!to_string}; {!escape} is the one string escaper. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** must be finite: JSON has no nan or infinity *)
  | String of string
  | List of t list
  | Obj of (string * t) list  (** members print in list order *)
  | Raw of string
      (** JSON text produced elsewhere (another process's {!to_string}
          output), printed verbatim; the producer vouches it is valid *)

(** [fixed digits x] is [Float x] rounded to [digits] decimal places,
    so a report reads [2.24] rather than [2.2400000000000002]. *)
val fixed : int -> float -> t

(** The body of a JSON string literal, without the quotes: double quote
    and backslash are backslash-escaped, newline and tab become [\n] and
    [\t], any other byte below 0x20 becomes [\u00XX], and every other
    byte is copied. *)
val escape : string -> string

(** Members print as a quoted key, a colon and a space, then the value.
    The outermost list or object prints one element per line, as does
    any nested one holding a non-empty list or object; a nested one
    whose elements are all scalars (or empty) prints on one line.
    Indentation is two spaces per level; no trailing newline.
    @raise Invalid_argument on a nan or infinite [Float]. *)
val to_string : t -> string
