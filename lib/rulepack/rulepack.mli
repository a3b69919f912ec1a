(** Versioned binary rule packs: the compiled catalog, serialized.

    A pack stores both scan plans ({!Patchitpy.Catalog.all} and
    {!Patchitpy.Catalog.javascript}) fully compiled — pattern ASTs
    and DFA programs, newline budgets, rewrite IR — behind a magic tag,
    a format version, a catalog fingerprint and a whole-file checksum.  Loading one therefore replaces the
    process's entire rule-compilation phase with a validated decode:
    scan and patch output over a loaded pack is byte-identical to the
    source-compiled catalog's, at a fraction of the startup cost.

    Robustness contract: {!load}/{!decode} return typed errors — never
    raise — on any malformed input (truncation, bit flips, version
    skew, forged structure), and every decoded index is re-validated
    before use, so even a pack whose checksum was deliberately fixed up
    cannot make the scanner read out of bounds.  Parts the fast path
    never touches (per-rule blobs, the javascript section) decode
    lazily behind the checksum; on a deliberately forged pack their
    first use may raise a {!Binio} exception — still memory-safe, just
    no longer a typed [Error].

    Packs additionally carry the python plan's pre-built fused
    multi-pattern machine ({!Rx.Fused}) in an optional section, so the
    first scan over a loaded pack skips the catalog-wide fuse.  The
    section decodes lazily like the javascript one, and because it is
    a pure accelerator it is also the one part allowed to degrade: a
    forged-but-checksummed fused section falls back to re-fusing from
    the validated rules instead of raising.  Packs without the section
    (older builds) load fine and fuse from rules on first scan.

    A pack may additionally carry a {e warm} section: lazy-DFA
    transition tables ({!Rx.warm_export} blobs) captured by replaying
    a corpus at pack time ({!collect_warm}).  Decoding such a pack
    registers the per-pattern tables in the process-wide warm registry
    and attaches the fused tables to the fused machine, so every
    per-domain cache created afterwards starts hot; {!prewarm} forces
    that creation during the load phase.  Warm tables follow the same
    degradation contract as the fused section — they re-validate
    against the live programs at seed time, and any malformation means
    an ordinary cold warm-up, never a load failure or a changed scan
    result. *)

type t = {
  version : int;  (** the pack's format version (= {!format_version}) *)
  catalog_hash : string;
      (** hex fingerprint of the rule sources the pack was built from *)
  python : Patchitpy.Scanner.t;
  javascript : unit -> Patchitpy.Scanner.t;
      (** decoded on first call (domain-safe): the scan/patch/serve
          fast paths only use the python plan, so a loaded pack does
          not pay for this section at startup.  On a pack whose
          checksum was deliberately forged around a damaged javascript
          section, the first call may raise a {!Binio} exception. *)
  fused_section : bool;
      (** whether the pack carries the pre-built fused multi-pattern
          machine; packs from pre-fused-section builds report [false]
          and re-fuse from rules on first scan *)
  warm : warm_info option;
      (** summary of the warm section when the pack carries one
          ([None] otherwise) — the tables themselves are installed in
          the warm registry during decode *)
  canaries : string list;
      (** warm-section canary subjects, replayed by {!prewarm} to heat
          the hardware caches along the whole scan path; empty for
          cold packs *)
}

and warm_info = {
  warm_patterns : int;  (** per-pattern table blobs carried *)
  warm_dfa_states : int;
      (** interned DFA states across those blobs, forward + backward *)
  warm_dfa_bytes : int;  (** serialized size of the per-pattern blobs *)
  warm_fused_states : int;
      (** interned states in the fused machine's tables; [0] when the
          section carries none *)
  warm_fused_bytes : int;
  warm_canaries : int;  (** canary subjects carried (at most 16) *)
  warm_canary_bytes : int;  (** total size of the canary subjects *)
}

type warm
(** Captured warm tables, ready to be written into a pack by
    {!encode}/{!save}.  Produced by {!collect_warm}. *)

val collect_warm : corpus:string list -> t -> warm
(** [collect_warm ~corpus t] replays every subject in [corpus] through
    the python plan to heat the calling domain's transition caches,
    then snapshots them — per-pattern (and per-suppress-pattern)
    lazy-DFA tables plus the fused machine's.  Patterns the corpus
    never exercised contribute nothing, by design: the section should
    carry the hot working set.  Also selects an even spread of at most
    16 corpus subjects as canaries, carried verbatim in the section
    and replayed by {!prewarm}. *)

val warm_info_of : warm -> warm_info

val prewarm : t -> int
(** Forces the calling domain's transition caches into existence — the
    fused machine plus every rule and suppress pattern — so warm
    seeding happens during the load phase rather than inside the first
    scan, then replays the pack's canary subjects (results discarded)
    so the first real request doesn't pay the hardware cold-cache
    latency of the scan path either.  Forces the deferred rule decode
    as a consequence.  Returns the number of per-pattern caches
    touched.  Useful (but never required) whether or not the pack
    carried warm tables. *)

type error =
  | Bad_magic  (** not a rule pack at all *)
  | Version_skew of { found : int; expected : int }
      (** written by an incompatible build *)
  | Corrupted of string  (** checksum, truncation or structure failure *)
  | Io of string  (** the file could not be read *)

val format_version : int
(** Current pack format version.  Bump on any codec change. *)

val error_to_string : error -> string

val create : unit -> t
(** Compiles the source catalog into a pack (the only constructor that
    compiles anything).  Validates every rewrite program so a bad rule
    fails here, at build time, not at patch time. *)

val encode : ?warm:warm -> t -> string
(** The serialized pack bytes.  [?warm] adds the warm section. *)

val decode : string -> (t, error) result
(** Parses and validates pack bytes.  Total: malformed input of any
    kind yields [Error]. *)

val save : ?warm:warm -> path:string -> t -> unit
(** Writes {!encode} to [path] via a temporary file and rename, so a
    crash mid-write never leaves a truncated pack behind. *)

val load : path:string -> (t, error) result
(** Reads and {!decode}s a pack file.  Counts
    [rulepack_loads_total] / [rulepack_load_failures_total]. *)

val fingerprint : Patchitpy.Rule.t list -> string
(** Hex fingerprint of a rule list's declarations (sources, not
    compiled forms). *)

val catalog_fingerprint : unit -> string
(** {!fingerprint} of the running binary's full catalog.  Forces
    catalog compilation — callers on the pack fast path don't want
    this; see {!verify_catalog}. *)

val verify_catalog : t -> (unit, string) result
(** Whether the pack was built from this binary's catalog.  Compiles
    the source catalog to compare — used by [rules pack], the CI
    differential and tests, not by the scan/serve fast paths, which
    rely on the version gate and checksum instead. *)

val scanner : t -> [ `Python | `Js ] -> Patchitpy.Scanner.t

val env_var : string
(** ["PATCHITPY_RULE_PACK"]. *)

val use_env_pack : unit -> unit
(** When [PATCHITPY_RULE_PACK] names a pack file, registers a provider
    so {!Patchitpy.Engine.default_scanner} loads it instead of
    compiling the catalog.  A pack that fails to load is reported on
    stderr and the engine falls back to source compilation. *)
