type config = { line_words : int; sets : int; ways : int }

let default_config = { line_words = 4; sets = 64; ways = 2 }

type line = { mutable tag : int; mutable valid : bool; mutable age : int }

type t = {
  config : config;
  lines : line array array; (* sets x ways *)
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let create ?(config = default_config) () =
  if not (is_pow2 config.line_words && is_pow2 config.sets) then
    invalid_arg "Cache.create: line_words and sets must be powers of two";
  if config.ways <= 0 then invalid_arg "Cache.create: ways must be positive";
  {
    config;
    lines =
      Array.init config.sets (fun _ ->
          Array.init config.ways (fun _ -> { tag = -1; valid = false; age = 0 }));
    clock = 0;
    hits = 0;
    misses = 0;
  }

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let access t ~address ~write:_ =
  t.clock <- t.clock + 1;
  let line_bits = log2 t.config.line_words in
  let set_bits = log2 t.config.sets in
  let block = address lsr line_bits in
  let set_idx = block land ((1 lsl set_bits) - 1) in
  let tag = block lsr set_bits in
  let set = t.lines.(set_idx) in
  let rec find i =
    if i >= Array.length set then None
    else if set.(i).valid && set.(i).tag = tag then Some set.(i)
    else find (i + 1)
  in
  match find 0 with
  | Some line ->
    line.age <- t.clock;
    t.hits <- t.hits + 1;
    `Hit
  | None ->
    (* Evict the least recently used way (an invalid line has age 0 and is
       therefore chosen first). *)
    let victim =
      Array.fold_left (fun best l -> if l.age < best.age then l else best)
        set.(0) set
    in
    victim.tag <- tag;
    victim.valid <- true;
    victim.age <- t.clock;
    t.misses <- t.misses + 1;
    `Miss

let hits t = t.hits
let misses t = t.misses
let accesses t = t.hits + t.misses

let hit_rate t =
  let n = accesses t in
  if n = 0 then 0.0 else float_of_int t.hits /. float_of_int n

let cycles t =
  let p = Cost.params in
  (t.hits * p.cache_hit_cycles)
  + (t.misses * (p.cache_hit_cycles + (p.mem_ref_cycles * t.config.line_words)))

let reset t =
  t.clock <- 0;
  t.hits <- 0;
  t.misses <- 0;
  Array.iter
    (Array.iter (fun l ->
         l.valid <- false;
         l.tag <- -1;
         l.age <- 0))
    t.lines
