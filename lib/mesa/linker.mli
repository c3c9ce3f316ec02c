(** The linker: turns compiled modules into a runnable {!Image.t}.

    Besides initial placement, it implements the relocation freedoms §5.1
    credits to each level of indirection:

    - {!rebind_lv}: "LV permits external procedure references to be bound
      without any change to the code";
    - {!move_global_frame}: "GFT permits global frames to be moved";
    - {!move_code_segment}: "the global frame permits the code segment to
      be moved" (code swapping on unpaged machines);
    - {!move_procedure}: "EV permits a procedure to be moved in the code
      segment", e.g. replacing it by a new version of a different size;
    - {!instantiate}: a fresh instance of a module — new global frame and
      link vector, same code segment (§5.1's T3).

    Under [Direct] / [Short_direct] linkage, every single-instance
    procedure gets a two-byte global-frame header, and each import call
    compiled as a [Dfc] placeholder is bound to the target's absolute
    address ([Short_direct] additionally rewrites to the 3-byte PC-relative
    form when the target is within the ±512 KB reach).  Calls to modules
    with several instances fall back to the EXTERNALCALL path, exactly the
    D2 fallback of §6 — and images linked directly refuse the relocations
    above, which is D3. *)

val link :
  ?linkage:Image.linkage ->
  ?devirt:bool ->
  ?memory_words:int ->
  ?ladder:Fpc_frames.Size_class.t ->
  ?extra_instances:string list ->
  Compiled.t list ->
  (Image.t, string) result
(** [extra_instances] lists module names that get one additional instance
    each (repeat a name for more).  Modules listed there are linked with
    external calls even under direct linkage (D2).

    [~devirt:true] (default false) lays out DIRECTCALL headers for
    single-instance procedures even under [External] linkage, so the
    post-link devirtualization pass ({!Fpc_cfa.Cfa.devirtualize}) has
    landing pads to rewrite proven call sites onto. *)

val instantiate : Image.t -> module_name:string -> (string, string) result
(** Create another instance at run time; External-linkage images only.
    Returns the new instance name ("module#k"). *)

val rebind_lv :
  Image.t -> instance:string -> lv_index:int -> target:string * string -> unit
(** Point an LV entry at a different (instance, procedure).  No code
    changes.  Raises [Not_found] for unknown names. *)

val rebind_lv_to_frame : Image.t -> instance:string -> lv_index:int -> lf:int -> unit
(** Bind an LV entry to an {e existing frame} context: a subsequent
    EXTERNALCALL through it becomes a coroutine resume — the destination,
    not the caller, decides the discipline (F3). *)

val move_global_frame : Image.t -> instance:string -> (int, string) result
(** Copy the instance's global frame to fresh static space and update its
    GFT entries; returns the new address.  External linkage only. *)

val move_code_segment : Image.t -> module_name:string -> (int, string) result
(** Copy the module's code segment to fresh code space and update the code
    base in every instance's global frame; returns the new word address.
    External linkage only (D3: direct linkage freezes code addresses). *)

val move_procedure :
  Image.t -> module_name:string -> proc:string -> (int, string) result
(** Copy one procedure's fsi byte and body to fresh code space and repoint
    its EV entry; returns the new entry byte offset.  External linkage
    only. *)
