open Fpc_machine
open Fpc_frames

type proc_layout = {
  l_proc : Compiled.proc;
  l_header_off : int option;  (* byte offset of the 2-byte GF header *)
  l_fsi_off : int;
  l_body_off : int;
  l_fsi : int;
}

type module_layout = {
  l_module : Compiled.t;
  l_code_base : int;  (* word address *)
  l_seg_bytes : int;
  l_procs : proc_layout array;
  l_instances : int;
  l_headers : bool;
}

let instance_name module_name k =
  if k = 0 then module_name else Printf.sprintf "%s#%d" module_name k

let gfi_count_for nprocs = max 1 ((nprocs + 31) / 32)

let validate_modules modules =
  let ( let* ) r f = Result.bind r f in
  let* () =
    List.fold_left (fun acc m -> Result.bind acc (fun () -> Compiled.validate m)) (Ok ()) modules
  in
  let names = Hashtbl.create 8 in
  let* () =
    List.fold_left
      (fun acc (m : Compiled.t) ->
        let* () = acc in
        if Hashtbl.mem names m.m_name then
          Error (Printf.sprintf "duplicate module %s" m.m_name)
        else begin
          Hashtbl.add names m.m_name ();
          Ok ()
        end)
      (Ok ()) modules
  in
  let find_module name =
    List.find_opt (fun (m : Compiled.t) -> String.equal m.m_name name) modules
  in
  List.fold_left
    (fun acc (m : Compiled.t) ->
      Array.fold_left
        (fun acc (tm, tp) ->
          let* () = acc in
          match find_module tm with
          | None -> Error (Printf.sprintf "%s imports unknown module %s" m.m_name tm)
          | Some target -> (
            match Compiled.proc_index target tp with
            | _ -> Ok ()
            | exception Not_found ->
              Error (Printf.sprintf "%s imports unknown procedure %s.%s" m.m_name tm tp)))
        acc m.m_imports)
    (Ok ()) modules

(* Phase 1: compute each module's code-segment layout (no memory writes). *)
let layout_module (image : Image.t) ~linkage ~devirt ~instances (m : Compiled.t) =
  let nprocs = List.length m.m_procs in
  (* Under devirtualization, single-instance procedures get DIRECTCALL
     headers even with external linkage, so a proven call site has a
     landing pad to rewrite onto. *)
  let headers =
    (devirt || (match linkage with Image.External -> false | _ -> true)) && instances = 1
  in
  let off = ref (2 * nprocs) in
  let procs =
    m.m_procs
    |> List.map (fun (p : Compiled.proc) ->
           let header_off =
             if headers then begin
               let h = !off in
               off := !off + 2;
               Some h
             end
             else None
           in
           let fsi_off = !off in
           incr off;
           let body_off = !off in
           off := !off + Bytes.length p.p_body;
           let fsi = Alloc_vector.fsi_for_locals image.Image.ladder p.p_locals_words in
           { l_proc = p; l_header_off = header_off; l_fsi_off = fsi_off; l_body_off = body_off; l_fsi = fsi })
    |> Array.of_list
  in
  let seg_bytes = !off in
  if seg_bytes > 0xFFFF then
    invalid_arg (Printf.sprintf "Linker: code segment of %s exceeds 64 KB" m.m_name);
  let code_base = Image.alloc_code image ~words:(Memory.words_for_bytes seg_bytes) in
  { l_module = m; l_code_base = code_base; l_seg_bytes = seg_bytes; l_procs = procs;
    l_instances = instances; l_headers = headers }

(* Allocate a global frame with its link vector packed immediately below
   it (reversed: LV entry i is the word at gf - 1 - i), so an
   EXTERNALCALL reaches a context word in a single reference from the GF
   register — the first hop of Figure 1. *)
let alloc_gf_with_lv (image : Image.t) ~n_imports ~globals_words =
  let c = image.static_cursor in
  let gf = (c + n_imports + 3) land lnot 3 in
  let finish = gf + Image.global_base + globals_words in
  if finish > image.layout.Layout.heap_base then
    invalid_arg "Linker: static region exhausted";
  image.static_cursor <- finish;
  gf

(* Phase 2: create an instance — global frame, link vector, GFT entries,
   directory records.  LV contents are resolved in phase 3. *)
let create_instance (image : Image.t) (ml : module_layout) ~k =
  let m = ml.l_module in
  let name = instance_name m.m_name k in
  let nprocs = Array.length ml.l_procs in
  let gfi_count = gfi_count_for nprocs in
  if image.dir.gfi_cursor + gfi_count > Gft.capacity then
    invalid_arg "Linker: out of GFT entries";
  let gfi = image.dir.gfi_cursor in
  image.dir.gfi_cursor <- gfi + gfi_count;
  let n_imports = Array.length m.m_imports in
  let gf = alloc_gf_with_lv image ~n_imports ~globals_words:m.m_globals_words in
  let lv = gf - n_imports in
  Memory.poke image.mem gf ml.l_code_base;
  Memory.poke image.mem (gf + 1) lv;
  List.iter
    (fun (i, v) -> Memory.poke image.mem (gf + Image.global_base + i) v)
    m.m_global_init;
  for b = 0 to gfi_count - 1 do
    Gft.set_entry image.gft ~gfi:(gfi + b) ~gf_addr:gf ~bias:b
  done;
  let ii =
    {
      Image.ii_name = name;
      ii_module = m.m_name;
      ii_gfi = gfi;
      ii_gfi_count = gfi_count;
      ii_gf_addr = gf;
      ii_lv_base = lv;
      ii_code_base = ml.l_code_base;
      ii_imports = Array.copy m.m_imports;
    }
  in
  image.dir.instances <- image.dir.instances @ [ ii ];
  Array.iteri
    (fun ev pl ->
      Hashtbl.replace image.dir.procs (name, pl.l_proc.p_name)
        {
          Image.pi_instance = name;
          pi_proc = pl.l_proc.p_name;
          pi_ev = ev;
          pi_entry_offset = pl.l_fsi_off;
          pi_direct_offset = pl.l_header_off;
          pi_fsi = pl.l_fsi;
          pi_locals_words = pl.l_proc.p_locals_words;
          pi_nargs = pl.l_proc.p_nargs;
          pi_body_bytes = Bytes.length pl.l_proc.p_body;
        })
    ml.l_procs;
  ii

let resolve_lv (image : Image.t) (ii : Image.instance_info) =
  Array.iteri
    (fun i (tm, tp) ->
      let d = Image.descriptor_of image ~instance:tm ~proc:tp in
      Memory.poke image.mem (ii.ii_gf_addr - 1 - i) (Descriptor.pack d))
    ii.ii_imports

(* Phase 4: materialise a module's code segment and patch direct-call
   placeholders. *)
let write_segment (image : Image.t) ~linkage ~layouts (ml : module_layout) =
  let seg = Bytes.make ml.l_seg_bytes '\000' in
  let set_word ~byte_off w =
    Bytes.set seg byte_off (Char.chr ((w lsr 8) land 0xFF));
    Bytes.set seg (byte_off + 1) (Char.chr (w land 0xFF))
  in
  let layout_of name =
    List.find (fun l -> String.equal l.l_module.Compiled.m_name name) layouts
  in
  (* The single instance owning this segment's headers, if any. *)
  let gf_of_single_instance () =
    (Image.find_instance image ml.l_module.m_name).ii_gf_addr
  in
  Array.iteri
    (fun ev pl ->
      set_word ~byte_off:(2 * ev) pl.l_fsi_off;
      (match pl.l_header_off with
      | Some h -> set_word ~byte_off:h (gf_of_single_instance ())
      | None -> ());
      Bytes.set seg pl.l_fsi_off (Char.chr pl.l_fsi);
      Bytes.blit pl.l_proc.p_body 0 seg pl.l_body_off (Bytes.length pl.l_proc.p_body);
      List.iter
        (fun (pos, lv_index) ->
          let abs_pos = pl.l_body_off + pos in
          let tm, tp = ml.l_module.m_imports.(lv_index) in
          let tml = layout_of tm in
          let tpl =
            tml.l_procs.(Compiled.proc_index tml.l_module tp)
          in
          match tpl.l_header_off with
          | None ->
            (* D2 fallback: the target has several instances, so keep the
               general scheme — a two-byte EXTERNALCALL plus two pad NOPs. *)
            Bytes.set seg abs_pos '\x90';
            Bytes.set seg (abs_pos + 1) (Char.chr lv_index);
            Bytes.set seg (abs_pos + 2) '\000';
            Bytes.set seg (abs_pos + 3) '\000'
          | Some target_header ->
            let target_abs = (tml.l_code_base * 2) + target_header in
            let here_abs = (ml.l_code_base * 2) + abs_pos in
            let displacement = target_abs - here_abs in
            let lo, hi = Fpc_isa.Opcode.sdfc_range in
            if linkage = Image.Short_direct && displacement >= lo && displacement <= hi
            then Fpc_isa.Builder.rewrite_dfc_to_sdfc seg ~pos:abs_pos ~displacement
            else Fpc_isa.Builder.patch_dfc seg ~pos:abs_pos ~target:target_abs)
        pl.l_proc.p_dfc_fixups;
      List.iter
        (fun (pos, lv_index) ->
          let abs_pos = pl.l_body_off + pos in
          let tm, tp = ml.l_module.m_imports.(lv_index) in
          let d = Image.descriptor_of image ~instance:tm ~proc:tp in
          let w = Descriptor.pack d in
          Bytes.set seg (abs_pos + 1) (Char.chr ((w lsr 8) land 0xFF));
          Bytes.set seg (abs_pos + 2) (Char.chr (w land 0xFF)))
        pl.l_proc.p_lpd_fixups)
    ml.l_procs;
  Memory.blit_bytes image.mem ~code_base:ml.l_code_base seg

let link ?(linkage = Image.External) ?(devirt = false) ?(memory_words = 65536) ?ladder
    ?(extra_instances = []) modules =
  match validate_modules modules with
  | Error _ as e -> e
  | Ok () -> (
    try
      let ladder = match ladder with Some l -> l | None -> Size_class.default in
      let cost = Cost.create () in
      let layout = Layout.make ~memory_words ~ladder () in
      let mem = Memory.create ~cost ~size_words:memory_words () in
      let gft = Gft.create ~mem ~base:layout.gft_base in
      let dir =
        {
          Image.instances = [];
          procs = Hashtbl.create 64;
          source = modules;
          code_cursor = layout.code_region_base;
          gfi_cursor = 1;
          predecode = None;
          attachment = None;
          devirt = None;
        }
      in
      let image =
        {
          Image.mem;
          cost;
          ladder;
          gft;
          layout;
          linkage;
          dir;
          static_cursor = layout.static_base;
        }
      in
      let count_instances name =
        1 + List.length (List.filter (String.equal name) extra_instances)
      in
      List.iter
        (fun name ->
          if
            not
              (List.exists (fun (m : Compiled.t) -> String.equal m.m_name name) modules)
          then invalid_arg (Printf.sprintf "Linker: extra instance of unknown module %s" name))
        extra_instances;
      let layouts =
        List.map
          (fun (m : Compiled.t) ->
            layout_module image ~linkage ~devirt ~instances:(count_instances m.m_name) m)
          modules
      in
      List.iter
        (fun ml ->
          for k = 0 to ml.l_instances - 1 do
            ignore (create_instance image ml ~k)
          done)
        layouts;
      List.iter (resolve_lv image) image.dir.instances;
      List.iter (write_segment image ~linkage ~layouts) layouts;
      Ok image
    with Invalid_argument msg -> Error msg)

let instantiate (image : Image.t) ~module_name =
  if image.linkage <> Image.External then
    Error "instantiate: only External-linkage images may gain instances (D2)"
  else
    match Image.find_module image module_name with
    | exception Not_found -> Error (Printf.sprintf "instantiate: unknown module %s" module_name)
    | m -> (
      let existing =
        List.filter (fun (i : Image.instance_info) -> String.equal i.ii_module module_name)
          image.dir.instances
      in
      let k = List.length existing in
      let code_base =
        match existing with
        | i :: _ -> i.Image.ii_code_base
        | [] -> assert false
      in
      try
        let nprocs = List.length m.m_procs in
        let gfi_count = gfi_count_for nprocs in
        if image.dir.gfi_cursor + gfi_count > Gft.capacity then
          invalid_arg "instantiate: out of GFT entries";
        let gfi = image.dir.gfi_cursor in
        image.dir.gfi_cursor <- gfi + gfi_count;
        let n_imports = Array.length m.m_imports in
        let gf = alloc_gf_with_lv image ~n_imports ~globals_words:m.m_globals_words in
        let lv = gf - n_imports in
        Memory.poke image.mem gf code_base;
        Memory.poke image.mem (gf + 1) lv;
        List.iter
          (fun (i, v) -> Memory.poke image.mem (gf + Image.global_base + i) v)
          m.m_global_init;
        for b = 0 to gfi_count - 1 do
          Gft.set_entry image.gft ~gfi:(gfi + b) ~gf_addr:gf ~bias:b
        done;
        let name = instance_name module_name k in
        let ii =
          {
            Image.ii_name = name;
            ii_module = module_name;
            ii_gfi = gfi;
            ii_gfi_count = gfi_count;
            ii_gf_addr = gf;
            ii_lv_base = lv;
            ii_code_base = code_base;
            ii_imports = Array.copy m.m_imports;
          }
        in
        image.dir.instances <- image.dir.instances @ [ ii ];
        (* Mirror the base instance's directory entries. *)
        List.iteri
          (fun ev (p : Compiled.proc) ->
            let base = Hashtbl.find image.dir.procs (module_name, p.p_name) in
            ignore ev;
            Hashtbl.replace image.dir.procs (name, p.p_name)
              { base with Image.pi_instance = name })
          m.m_procs;
        resolve_lv image ii;
        Ok name
      with Invalid_argument msg -> Error msg)

let rebind_lv (image : Image.t) ~instance ~lv_index ~target:(ti, tp) =
  let ii = Image.find_instance image instance in
  if lv_index < 0 || lv_index >= Array.length ii.ii_imports then
    invalid_arg "rebind_lv: LV index out of range";
  let d = Image.descriptor_of image ~instance:ti ~proc:tp in
  Memory.poke image.mem (ii.ii_gf_addr - 1 - lv_index) (Descriptor.pack d)

let rebind_lv_to_frame (image : Image.t) ~instance ~lv_index ~lf =
  let ii = Image.find_instance image instance in
  if lv_index < 0 || lv_index >= Array.length ii.ii_imports then
    invalid_arg "rebind_lv_to_frame: LV index out of range";
  Memory.poke image.mem (ii.ii_gf_addr - 1 - lv_index)
    (Descriptor.pack (Descriptor.Frame lf))

let require_external (image : Image.t) what =
  if image.linkage <> Image.External then
    Error (Printf.sprintf "%s: direct linkage freezes addresses (D3)" what)
  else Ok ()

let move_global_frame (image : Image.t) ~instance =
  Result.bind (require_external image "move_global_frame") (fun () ->
      match Image.find_instance image instance with
      | exception Not_found -> Error (Printf.sprintf "unknown instance %s" instance)
      | ii ->
        let m = Image.find_module image ii.ii_module in
        let n_imports = Array.length ii.ii_imports in
        let dst =
          alloc_gf_with_lv image ~n_imports ~globals_words:m.m_globals_words
        in
        (* The link vector travels with its global frame. *)
        for i = -n_imports to Image.global_base + m.m_globals_words - 1 do
          Memory.poke image.mem (dst + i) (Memory.peek image.mem (ii.ii_gf_addr + i))
        done;
        Memory.poke image.mem (dst + 1) (dst - n_imports);
        for b = 0 to ii.ii_gfi_count - 1 do
          Gft.set_entry image.gft ~gfi:(ii.ii_gfi + b) ~gf_addr:dst ~bias:b
        done;
        ii.ii_gf_addr <- dst;
        ii.ii_lv_base <- dst - n_imports;
        Ok dst)

let segment_extent (image : Image.t) module_name =
  let m = Image.find_module image module_name in
  let nprocs = List.length m.m_procs in
  let last =
    List.fold_left
      (fun acc (p : Compiled.proc) ->
        let pi = Hashtbl.find image.dir.procs (module_name, p.p_name) in
        max acc (pi.Image.pi_entry_offset + 1 + pi.pi_body_bytes))
      (2 * nprocs) m.m_procs
  in
  last

let move_code_segment (image : Image.t) ~module_name =
  Result.bind (require_external image "move_code_segment") (fun () ->
      match Image.find_module image module_name with
      | exception Not_found -> Error (Printf.sprintf "unknown module %s" module_name)
      | _ ->
        let seg_bytes = segment_extent image module_name in
        let words = Memory.words_for_bytes seg_bytes in
        let old_base = (Image.find_instance image module_name).ii_code_base in
        let new_base = Image.alloc_code image ~words in
        for i = 0 to words - 1 do
          Memory.poke image.mem (new_base + i) (Memory.peek image.mem (old_base + i))
        done;
        List.iter
          (fun (ii : Image.instance_info) ->
            if String.equal ii.ii_module module_name then begin
              ii.ii_code_base <- new_base;
              Memory.poke image.mem ii.ii_gf_addr new_base
            end)
          image.dir.instances;
        Ok new_base)

let move_procedure (image : Image.t) ~module_name ~proc =
  Result.bind (require_external image "move_procedure") (fun () ->
      match Hashtbl.find image.dir.procs (module_name, proc) with
      | exception Not_found ->
        Error (Printf.sprintf "unknown procedure %s.%s" module_name proc)
      | pi ->
        let code_base = (Image.find_instance image module_name).ii_code_base in
        let len = 1 + pi.pi_body_bytes in
        let new_words = Memory.words_for_bytes (len + 1) in
        let new_base = Image.alloc_code image ~words:new_words in
        let new_off = (new_base * 2) - (code_base * 2) in
        if new_off < 0 || new_off > 0xFFFF then
          Error "move_procedure: new location not addressable from the code base"
        else begin
          for b = 0 to len - 1 do
            Memory.poke_code_byte image.mem ~code_base:new_base ~pc:b
              (Memory.peek_code_byte image.mem ~code_base ~pc:(pi.pi_entry_offset + b))
          done;
          (* Repoint the EV entry in every instance's shared segment (one
             segment, so one write), then update the directory. *)
          Memory.poke_code_byte image.mem ~code_base ~pc:(2 * pi.pi_ev)
            ((new_off lsr 8) land 0xFF);
          Memory.poke_code_byte image.mem ~code_base ~pc:((2 * pi.pi_ev) + 1)
            (new_off land 0xFF);
          List.iter
            (fun (ii : Image.instance_info) ->
              if String.equal ii.ii_module module_name then
                match Hashtbl.find_opt image.dir.procs (ii.ii_name, proc) with
                | Some p ->
                  Hashtbl.replace image.dir.procs (ii.ii_name, proc)
                    { p with Image.pi_entry_offset = new_off }
                | None -> ())
            image.dir.instances;
          Ok new_off
        end)
