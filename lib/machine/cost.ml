type params = {
  mem_ref_cycles : int;
  cache_hit_cycles : int;
  bank_ref_cycles : int;
  dispatch_cycles : int;
  jump_cycles : int;
  trap_cycles : int;
  software_alloc_cycles : int;
}

let default_params =
  {
    mem_ref_cycles = 4;
    cache_hit_cycles = 2;
    bank_ref_cycles = 1;
    dispatch_cycles = 1;
    jump_cycles = 1;
    trap_cycles = 50;
    software_alloc_cycles = 100;
  }

type t = {
  p : params;
  mutable cycles : int;
  mutable mem_reads : int;
  mutable mem_writes : int;
  mutable bank_refs : int;
  mutable dispatches : int;
}

let create ?(params = default_params) () =
  { p = params; cycles = 0; mem_reads = 0; mem_writes = 0; bank_refs = 0; dispatches = 0 }

let params t = t.p

let mem_read t =
  t.mem_reads <- t.mem_reads + 1;
  t.cycles <- t.cycles + t.p.mem_ref_cycles

let mem_write t =
  t.mem_writes <- t.mem_writes + 1;
  t.cycles <- t.cycles + t.p.mem_ref_cycles

let bank_ref t =
  t.bank_refs <- t.bank_refs + 1;
  t.cycles <- t.cycles + t.p.bank_ref_cycles

let bank_ref_n t n =
  t.bank_refs <- t.bank_refs + n;
  t.cycles <- t.cycles + (n * t.p.bank_ref_cycles)

let dispatch t =
  t.dispatches <- t.dispatches + 1;
  t.cycles <- t.cycles + t.p.dispatch_cycles

let[@inline] refs_n t ~reads ~writes =
  t.mem_reads <- t.mem_reads + reads;
  t.mem_writes <- t.mem_writes + writes;
  t.cycles <- t.cycles + ((reads + writes) * t.p.mem_ref_cycles)

let[@inline] block_bill t ~instrs ~reads ~writes =
  t.dispatches <- t.dispatches + instrs;
  t.mem_reads <- t.mem_reads + reads;
  t.mem_writes <- t.mem_writes + writes;
  t.cycles <-
    t.cycles + (instrs * t.p.dispatch_cycles)
    + ((reads + writes) * t.p.mem_ref_cycles)

let jump t = t.cycles <- t.cycles + t.p.jump_cycles
let trap t = t.cycles <- t.cycles + t.p.trap_cycles
let software_alloc t = t.cycles <- t.cycles + t.p.software_alloc_cycles
let add_cycles t n = t.cycles <- t.cycles + n
let cycles t = t.cycles
let mem_reads t = t.mem_reads
let mem_writes t = t.mem_writes
let mem_refs t = t.mem_reads + t.mem_writes
let bank_refs t = t.bank_refs
let dispatches t = t.dispatches

let reset t =
  t.cycles <- 0;
  t.mem_reads <- 0;
  t.mem_writes <- 0;
  t.bank_refs <- 0;
  t.dispatches <- 0

type snapshot = {
  s_cycles : int;
  s_mem_reads : int;
  s_mem_writes : int;
  s_bank_refs : int;
  s_dispatches : int;
}

let snapshot t =
  {
    s_cycles = t.cycles;
    s_mem_reads = t.mem_reads;
    s_mem_writes = t.mem_writes;
    s_bank_refs = t.bank_refs;
    s_dispatches = t.dispatches;
  }

let delta ~before ~after =
  {
    s_cycles = after.s_cycles - before.s_cycles;
    s_mem_reads = after.s_mem_reads - before.s_mem_reads;
    s_mem_writes = after.s_mem_writes - before.s_mem_writes;
    s_bank_refs = after.s_bank_refs - before.s_bank_refs;
    s_dispatches = after.s_dispatches - before.s_dispatches;
  }
