type t = {
  memory_words : int;
  trap_handler_addr : int;
  gft_base : int;
  av_base : int;
  static_base : int;
  heap_base : int;
  heap_limit : int;
  code_region_base : int;
}

let make ?(memory_words = 65536) ~ladder () =
  if memory_words < 16384 || memory_words > 65536 then
    invalid_arg "Layout.make: memory_words must be within [16384, 65536]";
  let gft_base = 16 in
  let av_base = gft_base + Gft.capacity in
  let static_base = (av_base + Fpc_frames.Size_class.class_count ladder + 3) land lnot 3 in
  (* Give an eighth of storage to static structures, three eighths to the
     frame heap, and the remaining half to code. *)
  let heap_base = memory_words / 8 in
  let heap_limit = memory_words / 2 in
  let code_region_base = heap_limit in
  if static_base >= heap_base then invalid_arg "Layout.make: static region too small";
  if heap_base land 3 <> 0 then invalid_arg "Layout.make: heap_base not quad-aligned";
  {
    memory_words;
    trap_handler_addr = 2;
    gft_base;
    av_base;
    static_base;
    heap_base;
    heap_limit;
    code_region_base;
  }

let in_frame_region t addr = addr >= t.heap_base && addr < t.heap_limit
