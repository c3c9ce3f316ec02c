open Fpc_machine
open Fpc_mesa

(* ---- store-hazard scan -------------------------------------------------

   A devirtualized site bakes the link-time resolution of an import into
   the code bytes.  That resolution reads, at call time, only words the
   linker wrote: the caller's LV entry, the target's GFT entries, the
   target's gf word 0 (code base), EV entries and — on the simple engine —
   its link-table pairs.  The rewrite is sound as long as no *program*
   store can reach any of those words before the site retires.

   The compiled language gives us strong static handles on stores:

   - [Sl n] / [Sg n] write a fixed slot of the current frame / global
     frame — the code generator only emits indices inside the declared
     local/global ranges, which the linker lays out strictly above the
     link vector, so they can never touch a link input;
   - [Rstore] writes through a computed address.  If the address was
     pushed by [Lla]/[Lga] it is the exact cell of a declared variable —
     safe for the same reason.  Any other provenance (a VAR parameter
     forwarded by [Ll], an arbitrary computed word) could name anything,
     including a link word;
   - [Slx]/[Sgx]/[Stfld] index with a runtime value and can escape the
     declared ranges.

   We run a linear abstract-stack scan over every procedure body in the
   image (one-pass, join-free, and strictly conservative).  Each step is
   read off {!Fpc_isa.Opcode.effects}, the table the interpreter is checked
   against: a jump, call, transfer or stop resets the abstract stack
   (values flow where the scan cannot follow); any other write at a
   dynamic offset vetoes; everything else pops [pops] and pushes
   [pushes] Unknowns, where popping an empty abstract stack yields
   Unknown.  Only the facts the table does not carry keep their own
   arms: [Rstore]'s address provenance, the Safe addresses [Lla]/[Lga]
   push, and the values [Dup]/[Swap]/[Over] copy.  If any body contains
   a store we cannot prove harmless, the whole image abstains: the pass
   rewrites nothing rather than reason about which link words the store
   might hit.

   Deliberately out of scope (documented limitation): an interprocedural
   provenance analysis that would prove a forwarded VAR parameter safe.
   Such sites make the image abstain wholesale today. *)

type av = Safe | Unknown

let pop = function [] -> (Unknown, []) | x :: r -> (x, r)
let rec drop n = function _ :: r when n > 0 -> drop (n - 1) r | s -> s
let rec push_unknown n s = if n <= 0 then s else push_unknown (n - 1) (Unknown :: s)

let dynamic_write { Fpc_isa.Opcode.offset; access; _ } =
  match (offset, access) with Dynamic, Write -> true | _ -> false

(* [true] when every store in the body is provably unable to reach a
   link-time-resolved word.  [entry]/[len] delimit the body in absolute
   code bytes. *)
let body_store_safe ~fetch ~entry ~len =
  let limit = entry + len in
  let ok = ref true in
  let pc = ref entry in
  let stack = ref [] in
  while !ok && !pc < limit do
    match Fpc_isa.Opcode.decode ~fetch ~pc:!pc with
    | exception Invalid_argument _ -> ok := false
    | op, n -> (
      pc := !pc + n;
      match op with
      | Rstore -> (
        let _value, s = pop !stack in
        match pop s with Safe, s -> stack := s | Unknown, _ -> ok := false)
      | Lla _ | Lga _ -> stack := Safe :: !stack
      | Dup -> (
        match !stack with x :: _ -> stack := x :: !stack | [] -> stack := [ Unknown ])
      | Swap -> (
        match !stack with a :: b :: r -> stack := b :: a :: r | _ -> stack := [])
      | Over -> (
        match !stack with a :: b :: r -> stack := b :: a :: b :: r | _ -> stack := [])
      | _ -> (
        let e = Fpc_isa.Opcode.effects op in
        match e.cls with
        | Jump | Call | Transfer | Stop -> stack := []
        | Pure | Data | Alloc ->
          if List.exists dynamic_write e.refs then ok := false
          else stack := push_unknown e.pushes (drop e.pops !stack)))
  done;
  !ok

let instances_of (image : Image.t) module_name =
  List.length
    (List.filter
       (fun (ii : Image.instance_info) -> String.equal ii.ii_module module_name)
       image.dir.instances)

(* Every procedure body in the image, as (absolute entry byte, length).
   Code segments are shared by instances of a module, so the base
   instance (named like the module) covers everything once. *)
let all_bodies (image : Image.t) =
  List.concat_map
    (fun (m : Compiled.t) ->
      let ii = Image.find_instance image m.m_name in
      List.map
        (fun (p : Compiled.proc) ->
          let pi = Image.find_proc image ~instance:m.m_name ~proc:p.p_name in
          let entry = (2 * ii.ii_code_base) + pi.pi_entry_offset + 1 in
          (entry, pi.pi_body_bytes))
        m.m_procs)
    image.dir.source

let image_store_safe (image : Image.t) =
  let fetch pc = Memory.peek_code_byte image.mem ~code_base:0 ~pc in
  List.for_all (fun (entry, len) -> body_store_safe ~fetch ~entry ~len) (all_bodies image)

(* ---- the rewrite ------------------------------------------------------- *)

let poke (image : Image.t) pc b = Memory.poke_code_byte image.mem ~code_base:0 ~pc b
let peek (image : Image.t) pc = Memory.peek_code_byte image.mem ~code_base:0 ~pc

(* The 4-byte padded-EFC shape the compiler emitted (and the linker's D2
   fallback writes): wide EFC + two NOP pads.  Anything else at the site
   means the bytes are not what the compiler recorded — refuse to touch. *)
let site_is_padded_efc image ~site_abs ~lv =
  peek image site_abs = 0x90
  && peek image (site_abs + 1) = lv
  && peek image (site_abs + 2) = 0
  && peek image (site_abs + 3) = 0

(* Overwrite the padded EFC with a DIRECTCALL to [target_abs], through
   the encoder — the 3-byte SHORTDIRECTCALL + NOP pad when the
   displacement fits §6 D1's ±512 KB reach, the 4-byte absolute form
   otherwise.  Returns how it encoded. *)
let patch_site image ~site_abs ~target_abs =
  let lo, hi = Fpc_isa.Opcode.sdfc_range in
  let d = target_abs - site_abs in
  let put ops enc =
    let buf = Buffer.create 4 in
    List.iter (fun op -> Fpc_isa.Opcode.encode op buf) ops;
    String.iteri (fun i c -> poke image (site_abs + i) (Char.code c)) (Buffer.contents buf);
    enc
  in
  if d >= lo && d <= hi then put [ Sdfc d; Nop ] `Short
  else if target_abs >= 0 && target_abs <= 0xFFFFFF then put [ Dfc target_abs ] `Long
  else `Unreachable

(* Decode the patched bytes back and check they XFER to exactly the proven
   target — the same decode the interpreter and the relocation probes
   (E14) use, so a bad patch dies at link time, not at run time. *)
let verify_site image ~site_abs ~target_abs =
  let fetch pc = peek image pc in
  match Fpc_isa.Opcode.decode ~fetch ~pc:site_abs with
  | Fpc_isa.Opcode.Sdfc d, _ when site_abs + d = target_abs -> ()
  | Fpc_isa.Opcode.Dfc a, _ when a = target_abs -> ()
  | op, _ ->
    invalid_arg
      (Printf.sprintf "Cfa: bad rewrite at %d (decodes as %s, target %d)" site_abs
         (Fpc_isa.Opcode.to_string op) target_abs)

let devirtualize (image : Image.t) =
  (* Patches must land before the predecode table is derived from the
     code bytes; drop any table built early so it is rebuilt over the
     rewritten bytes. *)
  let store_safe = image_store_safe image in
  let sites = ref 0 and proven = ref 0 and rewritten = ref 0 and short = ref 0 in
  List.iter
    (fun (m : Compiled.t) ->
      let ii = Image.find_instance image m.m_name in
      List.iter
        (fun (p : Compiled.proc) ->
          let pi = Image.find_proc image ~instance:m.m_name ~proc:p.p_name in
          let body_abs = (2 * ii.ii_code_base) + pi.pi_entry_offset + 1 in
          List.iter
            (fun (pos, lv) ->
              incr sites;
              let site_abs = body_abs + pos in
              let tm, tp = m.m_imports.(lv) in
              (* Provably single target: the image is store-safe, the
                 target module has exactly one instance (several would
                 leave the binding to each caller's LV at run time) and
                 the target carries a DIRECTCALL header to land on.  The
                 site bytes must still be the recorded padded EFC. *)
              match Image.direct_address image ~instance:tm ~proc:tp with
              | Some target_abs
                when store_safe
                     && instances_of image tm = 1
                     && site_is_padded_efc image ~site_abs ~lv -> (
                incr proven;
                match patch_site image ~site_abs ~target_abs with
                | `Unreachable -> ()
                | (`Short | `Long) as enc ->
                  verify_site image ~site_abs ~target_abs;
                  incr rewritten;
                  if enc = `Short then incr short)
              | _ -> ())
            p.p_efc_sites)
        m.m_procs)
    image.dir.source;
  if !rewritten > 0 then image.dir.predecode <- None;
  let stats =
    {
      Image.dv_sites = !sites;
      dv_proven = !proven;
      dv_rewritten = !rewritten;
      dv_short = !short;
      dv_abstained = !sites - !rewritten;
    }
  in
  image.dir.devirt <- Some stats;
  stats
