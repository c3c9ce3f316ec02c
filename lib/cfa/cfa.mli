(** Link-time devirtualization: a control-flow analysis over a linked
    image that rewrites late-bound EXTERNALCALL sites onto the DIRECTCALL
    fast path of §6.

    The compiler (under its [devirt] option) emits external calls in a
    padded 4-byte shape and records them in
    {!Fpc_mesa.Compiled.proc.p_efc_sites}; the linker lays out DIRECTCALL
    headers for single-instance procedures.  This pass then walks the
    interprocedural call graph the link tables define and patches, in
    place, every site whose target is provably unique — the 3-byte
    SHORTDIRECTCALL form when the displacement is within ±512 KB, the
    4-byte absolute form otherwise.  Everything else abstains and keeps
    the general late-bound scheme, exactly the D2 discipline.

    A site is proven only when {e all} of:

    - the whole image is store-safe: no program store can reach a word
      the link-time resolution depends on (LV entries, GFT, gf code-base
      words, EV entries, the simple engine's link-table pairs).  The scan
      is a conservative one-pass abstract-stack walk of every body whose
      steps are read off {!Fpc_isa.Opcode.effects}: a write at a dynamic
      offset ([Slx]/[Sgx]/[Stfld] in the table) or an [Rstore] through
      anything but a fresh [Lla]/[Lga] address (e.g. a forwarded VAR
      parameter — interprocedural provenance is deliberately not
      attempted) makes the image abstain wholesale;
    - the target module has exactly one instance, so the target carries a
      DIRECTCALL header and no per-instance binding choice remains;
    - the site bytes still hold the recorded padded EFC.

    Rewritten outputs are re-verified by decoding the patched bytes back
    (the same decode the interpreter and the E14 relocation probes use)
    and checking they transfer to the proven target.

    Caveat — host-side relinking: {!Fpc_mesa.Linker.rebind_lv},
    [rebind_lv_to_frame] and [instantiate] change bindings {e after}
    linking and can invalidate a rewrite.  The serving layer never calls
    them on devirtualized images (the relink experiments link with
    [devirt] off); callers that relink must do the same. *)

val devirtualize : Fpc_mesa.Image.t -> Fpc_mesa.Image.devirt_stats
(** Run the pass over a freshly linked image, patching proven sites in
    place and recording the outcome on [image.dir.devirt] (also
    returned).  Must run before execution state is created so the
    predecode table is derived from the rewritten bytes (the pass drops a
    prematurely built table).  Raises [Invalid_argument] if a patched
    site fails re-verification. *)

val image_store_safe : Fpc_mesa.Image.t -> bool
(** The store-hazard scan on its own: [true] when every store in every
    body is provably unable to reach a link-time-resolved word.  Exposed
    for tests and experiments. *)
