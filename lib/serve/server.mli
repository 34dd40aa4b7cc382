(** The compilation service: request handling, the sharded
    content-addressed pass-result cache, link-time IPO cached once per
    library set, and the translation-validation gate.  The daemon
    ({!Daemon}) is a socket loop over [handle]; tests call it directly.

    Every cacheable request (compile, lint, link) takes one path: its
    payloads are loaded and verified once, its cache key is derived,
    the key is looked up, and on a miss the result is computed and
    installed.  {!probe} derives the same key and only looks it up.
    The canonical module digest in every key is memoized by the raw
    payload bytes ({!aliases}), so each distinct payload is digested
    once; loading and verification still run on every request. *)

type config = {
  shards : int;
  shard_bytes : int;
  validate : bool;
      (** validate every compile/link witness, as if each request set
          its validate flag *)
  validate_fuel : int;  (** interpreter fuel for witness replays *)
}

val default_config : config

type t

val create : ?config:config -> unit -> t

val cache : t -> Cache.t

(** The alias store: MD5 of a raw payload that loaded and verified ->
    its canonical module digest.  One shard under a fixed byte budget. *)
val aliases : t -> Cache.t

val requests : t -> int
val validation_rejects : t -> int

(** Requests answered [Timed_out] so far. *)
val timed_out : t -> int

(** Handle one request.  Records latency and counters; never raises on
    malformed payloads (returns [Failed]).  A request whose
    [deadline_ms] budget expires at a pass boundary is answered
    [Timed_out]; enforcement is cooperative (single passes run to
    completion), so the daemon backs it with a hard worker kill. *)
val handle : t -> Protocol.request -> Protocol.response

(** {1 Cache probing}

    With forked workers, the daemon keeps a "front" server whose cache
    spans workers: it probes before dispatching and installs worker
    results after. *)

type probe =
  | Hit of Protocol.response
      (** answered from the front cache, no worker involved — the only
          service available in degraded (circuit-open) mode *)
  | Miss of { key : string; route : string option }
      (** not cached: dispatch to a worker, then {!install} its result
          under [key], the key {!handle} stores it under.  [route] is
          an affinity hint — requests sharing it should go to the same
          worker (link-time IPO per library set, content-digest
          locality for compiles). *)
  | Uncached of { route : string option }
      (** never served from the front cache (Run — execution happens in
          a worker — and control requests, or unparseable payloads) *)

(** Never raises: a probe failure degrades to [Uncached]. *)
val probe : t -> Protocol.request -> probe

(** Install a worker-computed [Served] payload under [key] (no-op for
    error responses). *)
val install : t -> key:string -> Protocol.response -> unit

(** The payload of a [Stats] response: per-shard hit rates, evictions,
    occupancy, request counters, and the latency histogram summary.
    [extra] members follow at top level — the daemon adds its
    supervision state under ["daemon"]. *)
val stats_json : ?extra:(string * Llvm_json.Json.t) list -> t -> string
