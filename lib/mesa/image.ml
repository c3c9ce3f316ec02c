open Fpc_machine

type linkage = External | Direct | Short_direct

type proc_info = {
  pi_instance : string;
  pi_proc : string;
  pi_ev : int;
  pi_entry_offset : int;
  pi_direct_offset : int option;
  pi_fsi : int;
  pi_locals_words : int;
  pi_nargs : int;
  pi_body_bytes : int;
}

type instance_info = {
  ii_name : string;
  ii_module : string;
  ii_gfi : int;
  ii_gfi_count : int;
  mutable ii_gf_addr : int;
  mutable ii_lv_base : int;
  mutable ii_code_base : int;
  ii_imports : (string * string) array;
}

(* The OCaml-side directory: everything written at link time and read-only
   afterwards.  One directory is shared by a pristine image and all its
   clones — cloning an image copies simulated storage, never this. *)

type attachment = ..

type devirt_stats = {
  dv_sites : int;
  dv_proven : int;
  dv_rewritten : int;
  dv_short : int;
  dv_abstained : int;
}

type directory = {
  mutable instances : instance_info list;
  procs : (string * string, proc_info) Hashtbl.t;
  source : Compiled.t list;
  mutable code_cursor : int;
  mutable gfi_cursor : int;
  mutable predecode : Fpc_isa.Predecode.t option;
  mutable attachment : attachment option;
  mutable devirt : devirt_stats option;
}

type t = {
  mem : Memory.t;
  cost : Cost.t;
  ladder : Fpc_frames.Size_class.t;
  gft : Gft.t;
  layout : Layout.t;
  linkage : linkage;
  dir : directory;
  mutable static_cursor : int;
}

let predecode t =
  match t.dir.predecode with
  | Some pd -> pd
  | None ->
    (* Code bytes are fixed once linking is done, so the table is built
       over exactly the carved code region.  Racing domains may both
       build it; the tables are identical and either wins benignly. *)
    let lo = 2 * t.layout.Layout.code_region_base in
    let hi = 2 * t.dir.code_cursor in
    let fetch pc = Memory.peek_code_byte t.mem ~code_base:0 ~pc in
    let pd = Fpc_isa.Predecode.decode_range ~fetch ~lo ~hi in
    t.dir.predecode <- Some pd;
    pd

let clone t =
  (* Force the table on the source first: a cached pristine image pays
     the decode once and every per-execution clone shares it (the whole
     directory is shared — it is immutable once linked). *)
  ignore (predecode t);
  let cost = Cost.create () in
  let mem = Memory.clone t.mem in
  Memory.set_cost mem cost;
  {
    mem;
    cost;
    ladder = t.ladder;
    gft = Gft.create ~mem ~base:(Gft.base t.gft);
    layout = t.layout;
    linkage = t.linkage;
    dir = t.dir;
    static_cursor = t.static_cursor;
  }

let clone_into ~arena pristine =
  (* Reset-in-place: undo exactly what the last run wrote.  [arena] must
     be a clone of an image content-identical to [pristine] (same cache
     key ⇒ same deterministic compilation), so blitting back the dirty
     pages restores pristine storage; the meter is recycled rather than
     reallocated. *)
  if Memory.size arena.mem <> Memory.size pristine.mem then
    invalid_arg "Image.clone_into: image size mismatch";
  Memory.reset_from arena.mem ~pristine:pristine.mem;
  Cost.reset arena.cost;
  arena.static_cursor <- pristine.static_cursor

let find_instance t name =
  match List.find_opt (fun i -> String.equal i.ii_name name) t.dir.instances with
  | Some i -> i
  | None -> raise Not_found

let find_proc t ~instance ~proc = Hashtbl.find t.dir.procs (instance, proc)

let find_module t name =
  match
    List.find_opt (fun (m : Compiled.t) -> String.equal m.m_name name) t.dir.source
  with
  | Some m -> m
  | None -> raise Not_found

let descriptor_of t ~instance ~proc =
  let ii = find_instance t instance in
  let pi = find_proc t ~instance ~proc in
  Descriptor.Proc { gfi = ii.ii_gfi + (pi.pi_ev / 32); ev = pi.pi_ev mod 32 }

let direct_address t ~instance ~proc =
  let ii = find_instance t instance in
  let pi = find_proc t ~instance ~proc in
  Option.map (fun off -> (ii.ii_code_base * 2) + off) pi.pi_direct_offset

let entry_byte_address t ~instance ~proc =
  let ii = find_instance t instance in
  let pi = find_proc t ~instance ~proc in
  (ii.ii_code_base * 2) + pi.pi_entry_offset

let set_trap_handler t d =
  Memory.poke t.mem t.layout.Layout.trap_handler_addr (Descriptor.pack d)

let trap_handler t =
  Descriptor.unpack (Memory.peek t.mem t.layout.Layout.trap_handler_addr)

let global_base = 2
let gf_code_base t ~instance = Memory.peek t.mem (find_instance t instance).ii_gf_addr

let alloc_static t ~words ~quad =
  let base = if quad then (t.static_cursor + 3) land lnot 3 else t.static_cursor in
  if base + words > t.layout.Layout.heap_base then
    invalid_arg "Image.alloc_static: static region exhausted";
  t.static_cursor <- base + words;
  base

let alloc_code t ~words =
  let base = t.dir.code_cursor in
  if base + words > t.layout.Layout.memory_words then
    invalid_arg "Image.alloc_code: code region exhausted";
  t.dir.code_cursor <- base + words;
  base
