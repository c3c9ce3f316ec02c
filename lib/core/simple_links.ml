open Fpc_machine
open Fpc_mesa

type t = {
  mutable gfs : int array;
      (** the instances' global frames, ascending: the index every
          per-call resolution binary-searches (int compares only) *)
  mutable slv_bases : int array;  (** import-table base, parallel to [gfs] *)
  mutable sev_bases : int array;  (** own-entry-table base, parallel to [gfs] *)
  mutable words : int;
  mutable replay : int array;
      (** flattened (addr, word) pairs install wrote, for {!reinstall} *)
  mutable cursor_after : int;  (** the image's static cursor post-install *)
}

let pack_entry image ~target_instance ~target_proc =
  let abs = Image.entry_byte_address image ~instance:target_instance ~proc:target_proc in
  let ii = Image.find_instance image target_instance in
  (abs land 0xFFFF, ii.ii_gf_addr lor ((abs lsr 16) land 1))

(* Resolutions return both halves packed into one immediate int —
   [(abs lsl 16) lor gf] — so the per-call path allocates nothing (abs is
   17 bits, gf 16; both fit with room to spare). *)
let pair_abs p = p lsr 16
let pair_gf p = p land 0xFFFF

let install_into t image =
  t.words <- 0;
  let written = ref [] and by_gf = ref [] in
  let poke addr w =
    Memory.poke image.Image.mem addr w;
    written := w :: addr :: !written
  in
  List.iter
    (fun (ii : Image.instance_info) ->
      let m = Image.find_module image ii.ii_module in
      let n_imports = Array.length ii.ii_imports in
      let n_procs = List.length m.Compiled.m_procs in
      let slv_base = Image.alloc_static image ~words:(Int.max 1 (2 * n_imports)) ~quad:false in
      let sev_base = Image.alloc_static image ~words:(2 * n_procs) ~quad:false in
      t.words <- t.words + Int.max 1 (2 * n_imports) + (2 * n_procs);
      Array.iteri
        (fun i (tm, tp) ->
          let w0, w1 = pack_entry image ~target_instance:tm ~target_proc:tp in
          poke (slv_base + (2 * i)) w0;
          poke (slv_base + (2 * i) + 1) w1)
        ii.ii_imports;
      List.iteri
        (fun i (p : Compiled.proc) ->
          let w0, w1 = pack_entry image ~target_instance:ii.ii_name ~target_proc:p.p_name in
          poke (sev_base + (2 * i)) w0;
          poke (sev_base + (2 * i) + 1) w1)
        m.Compiled.m_procs;
      by_gf := (ii.ii_gf_addr, slv_base, sev_base) :: !by_gf)
    image.dir.instances;
  let by_gf =
    Array.of_list
      (List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) !by_gf)
  in
  t.gfs <- Array.map (fun (gf, _, _) -> gf) by_gf;
  t.slv_bases <- Array.map (fun (_, b, _) -> b) by_gf;
  t.sev_bases <- Array.map (fun (_, _, b) -> b) by_gf;
  (* [written] is newest-first (word, addr, word, addr, ...): materialise
     the replay tape oldest-first as addr-then-word pairs. *)
  let tape = Array.of_list !written in
  let n = Array.length tape in
  let replay = Array.make n 0 in
  for i = 0 to n - 1 do
    replay.(i) <- tape.(n - 1 - i)
  done;
  t.replay <- replay;
  t.cursor_after <- image.static_cursor;
  t

let install image =
  install_into
    {
      gfs = [||];
      slv_bases = [||];
      sev_bases = [||];
      words = 0;
      replay = [||];
      cursor_after = 0;
    }
    image

(* The arena's per-job path: link-table contents and placement are a pure
   function of the pristine image, so after [Image.clone_into] rewound the
   store and static cursor, reinstalling is replaying the recorded words —
   no hashing, no closures, no allocation. *)
let reinstall t image =
  let tape = t.replay in
  let n = Array.length tape in
  let i = ref 0 in
  while !i < n do
    Memory.poke image.Image.mem tape.(!i) tape.(!i + 1);
    i := !i + 2
  done;
  image.Image.static_cursor <- t.cursor_after

let read_pair image base index =
  let w0 = Memory.read image.Image.mem (base + (2 * index)) in
  let w1 = Memory.read image.Image.mem (base + (2 * index) + 1) in
  let gf = w1 land 0xFFFC in
  let abs = ((w1 land 1) lsl 16) lor w0 in
  (abs lsl 16) lor gf

(* The position of [gf] in [t.gfs], or -1.  This is the per-call path:
   a binary search over a handful of ints, with no hash, no option and no
   exception. *)
let gf_index t gf =
  let gfs = t.gfs in
  let lo = ref 0 and hi = ref (Array.length gfs - 1) and found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) lsr 1 in
    let g = Array.unsafe_get gfs mid in
    if g = gf then found := mid else if g < gf then lo := mid + 1 else hi := mid - 1
  done;
  !found

(* A global frame that names no installed instance resolves to [-1]
   (never a valid packed pair — bit 16 of the entry address caps abs
   below 2^17, and a pair is non-negative), with no storage reference;
   the caller turns it into a machine trap. *)
let resolve_import_by_gf t image ~gf ~lv_index =
  let i = gf_index t gf in
  if i < 0 then -1 else read_pair image t.slv_bases.(i) lv_index

let resolve_own_by_gf t image ~gf ~ev_index =
  let i = gf_index t gf in
  if i < 0 then -1 else read_pair image t.sev_bases.(i) ev_index

(* Host-side relink for I1, the simple-table analogue of
   {!Fpc_mesa.Linker.rebind_lv}: re-point one import pair at a new
   target.  Not recorded on the replay tape — an arena reset restores
   the pristine binding, exactly like the Mesa LV words it mirrors. *)
let rebind t image ~instance ~lv_index ~target:(tm, tp) =
  let ii = Image.find_instance image instance in
  if lv_index < 0 || lv_index >= Array.length ii.Image.ii_imports then
    invalid_arg "Simple_links.rebind: LV index out of range";
  let base = t.slv_bases.(gf_index t ii.Image.ii_gf_addr) in
  let w0, w1 = pack_entry image ~target_instance:tm ~target_proc:tp in
  Memory.poke image.Image.mem (base + (2 * lv_index)) w0;
  Memory.poke image.Image.mem (base + (2 * lv_index) + 1) w1

(* Identify the instance owning [gfi] (directory lookup models the
   one-reference-to-a-record structure of §4; the two metered reads of
   {!resolve_own_by_gf} are the record fetch itself).  [-1] when no
   instance owns it. *)
let rec resolve_descriptor_in t image ~gfi ~ev = function
  | [] -> -1
  | (ii : Image.instance_info) :: rest ->
    if gfi >= ii.ii_gfi && gfi < ii.ii_gfi + ii.ii_gfi_count then
      resolve_own_by_gf t image ~gf:ii.ii_gf_addr
        ~ev_index:(((gfi - ii.ii_gfi) * 32) + ev)
    else resolve_descriptor_in t image ~gfi ~ev rest

let resolve_descriptor t image ~gfi ~ev =
  resolve_descriptor_in t image ~gfi ~ev image.Image.dir.instances

let table_words t = t.words
