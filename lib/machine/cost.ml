type params = {
  mem_ref_cycles : int;
  cache_hit_cycles : int;
  bank_ref_cycles : int;
  dispatch_cycles : int;
  jump_cycles : int;
  trap_cycles : int;
  software_alloc_cycles : int;
  divert_cycles : int;
}

let params =
  {
    mem_ref_cycles = 4;
    cache_hit_cycles = 2;
    bank_ref_cycles = 1;
    dispatch_cycles = 1;
    jump_cycles = 1;
    trap_cycles = 50;
    software_alloc_cycles = 100;
    divert_cycles = 4;
  }

type t = {
  mutable mem_reads : int;
  mutable mem_writes : int;
  mutable bank_refs : int;
  mutable dispatches : int;
  mutable jumps : int;
  mutable traps : int;
  mutable software_allocs : int;
  mutable diversions : int;
}

let create () =
  {
    mem_reads = 0;
    mem_writes = 0;
    bank_refs = 0;
    dispatches = 0;
    jumps = 0;
    traps = 0;
    software_allocs = 0;
    diversions = 0;
  }

let mem_read t = t.mem_reads <- t.mem_reads + 1
let mem_write t = t.mem_writes <- t.mem_writes + 1
let bank_ref t = t.bank_refs <- t.bank_refs + 1
let bank_ref_n t n = t.bank_refs <- t.bank_refs + n
let dispatch t = t.dispatches <- t.dispatches + 1

let[@inline] refs_n t ~reads ~writes =
  t.mem_reads <- t.mem_reads + reads;
  t.mem_writes <- t.mem_writes + writes

let[@inline] block_bill t ~instrs ~reads ~writes =
  t.dispatches <- t.dispatches + instrs;
  t.mem_reads <- t.mem_reads + reads;
  t.mem_writes <- t.mem_writes + writes

let jump t = t.jumps <- t.jumps + 1
let trap t = t.traps <- t.traps + 1
let software_alloc t = t.software_allocs <- t.software_allocs + 1
let divert t = t.diversions <- t.diversions + 1

let cycles t =
  ((t.mem_reads + t.mem_writes) * params.mem_ref_cycles)
  + (t.bank_refs * params.bank_ref_cycles)
  + (t.dispatches * params.dispatch_cycles)
  + (t.jumps * params.jump_cycles)
  + (t.traps * params.trap_cycles)
  + (t.software_allocs * params.software_alloc_cycles)
  + (t.diversions * params.divert_cycles)

let mem_reads t = t.mem_reads
let mem_writes t = t.mem_writes
let mem_refs t = t.mem_reads + t.mem_writes
let bank_refs t = t.bank_refs
let dispatches t = t.dispatches
let jumps t = t.jumps
let traps t = t.traps
let software_allocs t = t.software_allocs
let diversions t = t.diversions

let reset t =
  t.mem_reads <- 0;
  t.mem_writes <- 0;
  t.bank_refs <- 0;
  t.dispatches <- 0;
  t.jumps <- 0;
  t.traps <- 0;
  t.software_allocs <- 0;
  t.diversions <- 0
