(** Compiler output: what the code generator hands to the linker.

    A compiled module is the unit of §5: procedures sharing a global frame,
    their code collected in one code segment with an entry vector, and a
    link vector naming the external procedures the module calls. *)

type proc = {
  p_name : string;
  p_body : bytes;  (** instruction bytes; the fsi header byte is added by the linker *)
  p_locals_words : int;  (** argument + local + temporary words (frame payload) *)
  p_nargs : int;
  p_dfc_fixups : (int * int) list;
      (** (byte offset of a [Dfc] placeholder within [p_body], LV index of
          the import it must reach) — patched at link time under direct
          linkage (§6) *)
  p_lpd_fixups : (int * int) list;
      (** (byte offset of an [Lpd] placeholder, LV index): the operand
          becomes the packed procedure descriptor of that import — the
          "procedure descriptor as a literal in the program" of §4, used
          for FORK and first-class procedure values *)
  p_efc_sites : (int * int) list;
      (** (byte offset of a padded 4-byte EXTERNALCALL within [p_body],
          LV index): sites the compiler left rewritable so a link-time
          control-flow analysis can devirtualize them to
          [Dfc]/[Sdfc] in place (see {!Builder.emit_efc_padded}) *)
}

type t = {
  m_name : string;
  m_globals_words : int;  (** user globals; the linker adds overhead words *)
  m_global_init : (int * int) list;  (** (global index, initial value) *)
  m_imports : (string * string) array;
      (** link-vector entries, in LV-index order: (module, procedure) *)
  m_procs : proc list;  (** in entry-vector order *)
}

val proc_index : t -> string -> int
(** Entry-vector index of a procedure.  Raises [Not_found]. *)

val validate : t -> (unit, string) result
(** Structural checks: distinct procedure names, at most 128 entry points
    (four biased GFT entries, §5.1), at most 256 imports, fixups inside
    bodies and naming real LV indices. *)
