(** A linked program image: simulated memory populated with the GFT, AV,
    global frames, link vectors, entry vectors and code segments, plus the
    OCaml-side directory the tools use to find things again.

    Global frame layout: word 0 = code base (word address of the module's
    code segment), word 1 = link vector base, globals from word 2.  The
    entry vector occupies the first [nprocs] words of the code segment, so
    "EV starts at the code base" (§5.1); each entry is the byte offset,
    relative to the code base, of the procedure's frame-size-index byte,
    and "the procedure's code starts at the following byte" (§5.1).  Under
    direct linkage each single-instance procedure is preceded by a two-byte
    header holding its global frame address — the DIRECTCALL landing pad of
    §6 whose contents the IFU turns into SETGLOBALFRAME and ALLOCATEFRAME
    pseudo-instructions. *)

type linkage = External | Direct | Short_direct

type proc_info = {
  pi_instance : string;
  pi_proc : string;
  pi_ev : int;  (** full entry index (bias x 32 + descriptor ev field) *)
  pi_entry_offset : int;  (** byte offset of the fsi byte, relative to code base *)
  pi_direct_offset : int option;  (** byte offset of the 2-byte GF header *)
  pi_fsi : int;
  pi_locals_words : int;
  pi_nargs : int;
  pi_body_bytes : int;  (** instruction bytes, excluding fsi/header *)
}

type instance_info = {
  ii_name : string;  (** module name, or "module#k" for extra instances *)
  ii_module : string;
  ii_gfi : int;  (** first of [ii_gfi_count] consecutive GFT entries *)
  ii_gfi_count : int;
  mutable ii_gf_addr : int;
  mutable ii_lv_base : int;
  mutable ii_code_base : int;  (** word address; shared by instances of a module *)
  ii_imports : (string * string) array;
}

(** The OCaml-side directory: everything the linker writes and the tools
    read back — instance list, procedure table, compiled source, link-time
    cursors, the lazily built predecode table.  Immutable once linking is
    done, so one directory is {e shared} by a pristine image and every
    clone of it (the old per-clone [List.map]/[Hashtbl.copy] duplicated it
    to no effect — no field ever changed after link). *)
type attachment = ..
(** Extension point for execution-tier data derived from the code region —
    e.g. the compiled tier's translation ([Fpc_tier] adds its constructor).
    Kept abstract here so fpc.mesa needn't depend on the tiers. *)

(** What the link-time devirtualization pass ({!Fpc_cfa.Cfa}) did to this
    image: how many padded EXTERNALCALL sites it saw, proved
    single-target, and rewrote ([dv_short] of those to the 3-byte
    SHORTDIRECTCALL form). *)
type devirt_stats = {
  dv_sites : int;  (** padded EFC sites examined *)
  dv_proven : int;  (** proven single-target *)
  dv_rewritten : int;  (** patched to [Dfc]/[Sdfc] in place *)
  dv_short : int;  (** of the rewritten, within SHORTDIRECTCALL reach *)
  dv_abstained : int;  (** left on the late-bound path *)
}

type directory = {
  mutable instances : instance_info list;
  procs : (string * string, proc_info) Hashtbl.t;  (** (instance, proc) *)
  source : Compiled.t list;
  mutable code_cursor : int;  (** next free word in the code region *)
  mutable gfi_cursor : int;  (** next unassigned GFT index *)
  mutable predecode : Fpc_isa.Predecode.t option;
      (** lazily built by {!predecode}; shared (not copied) by {!clone} *)
  mutable attachment : attachment option;
      (** like [predecode]: derived from immutable code bytes on first
          demand, shared by every clone, benign if racing domains both
          build it (identical contents, either wins) *)
  mutable devirt : devirt_stats option;
      (** set by the devirtualization pass when it ran over this image;
          [None] means the pass never ran *)
}

type t = {
  mem : Fpc_machine.Memory.t;
  cost : Fpc_machine.Cost.t;
  ladder : Fpc_frames.Size_class.t;
      (** the frame-size ladder the linker chose fsis from; each machine
          state builds its own allocator over it ([Fpc_core.State]) *)
  gft : Gft.t;
  layout : Layout.t;
  linkage : linkage;
  dir : directory;  (** shared across clones *)
  mutable static_cursor : int;  (** next free word in the static region *)
}

val predecode : t -> Fpc_isa.Predecode.t
(** The image's predecoded instruction table, covering the carved code
    region — built on first demand, cached on the shared directory
    (code bytes are fixed at link time).  Purely a host-speed device:
    simulated meters are unaffected. *)

val clone : t -> t
(** An independent copy of the image: the simulated store is duplicated (a
    memcpy of its byte buffer, see {!Fpc_machine.Memory.clone}) and the
    copy gets a fresh cost meter (same parameters); the ladder and the
    directory are shared.  Running a program {e mutates} its image (frames
    are carved from the heap, globals are written, I1 installs its link
    tables in the static region), so a cached pristine image must be
    cloned once per execution; the original is never touched. *)

val clone_into : arena:t -> t -> unit
(** [clone_into ~arena pristine] resets [arena] — a previously used clone
    of an image content-identical to [pristine] — back to pristine state
    {e in place}: dirty pages of the store are blitted back
    ({!Fpc_machine.Memory.reset_from}), the cost meter is recycled
    ([Cost.reset]) and the static cursor rewound.  No allocation
    proportional to image size; cost is proportional to memory the last
    run touched.  This is the per-job
    reset of the execution arena — the serving-layer analogue of the
    paper's AV frame heap, which recycles frames instead of paying the
    general allocator per call. *)

val find_instance : t -> string -> instance_info
(** Raises [Not_found]. *)

val find_proc : t -> instance:string -> proc:string -> proc_info
(** Raises [Not_found]. *)

val find_module : t -> string -> Compiled.t
(** The compiled source of a module.  Raises [Not_found]. *)

val descriptor_of : t -> instance:string -> proc:string -> Descriptor.t
(** The packed-able procedure descriptor, bias folded into the gfi. *)

val direct_address : t -> instance:string -> proc:string -> int option
(** Absolute byte address of the procedure's DIRECTCALL header, when it has
    one. *)

val entry_byte_address : t -> instance:string -> proc:string -> int
(** Absolute byte address of the fsi byte. *)

val set_trap_handler : t -> Descriptor.t -> unit
val trap_handler : t -> Descriptor.t

val global_base : int
(** Offset of global 0 within a global frame (2). *)

val gf_code_base : t -> instance:string -> int
(** Unmetered read of the instance's code base. *)

val alloc_static : t -> words:int -> quad:bool -> int
(** Carve words from the static region (link-time).  Raises
    [Invalid_argument] when it would collide with the frame heap. *)

val alloc_code : t -> words:int -> int
(** Carve words from the code region. *)
