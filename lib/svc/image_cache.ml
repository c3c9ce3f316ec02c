type entry = { image : Fpc_mesa.Image.t; mutable last_used : int }

type t = {
  mutex : Mutex.t;
  table : (string, entry) Hashtbl.t;
  capacity : int;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let default_capacity = 64

let create ?(capacity = default_capacity) () =
  if capacity <= 0 then invalid_arg "Image_cache.create: capacity must be positive";
  {
    mutex = Mutex.create ();
    table = Hashtbl.create 64;
    capacity;
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let capacity t = t.capacity

type stats = { hits : int; misses : int; evictions : int; entries : int }

let stats t =
  Mutex.lock t.mutex;
  let s =
    {
      hits = t.hits;
      misses = t.misses;
      evictions = t.evictions;
      entries = Hashtbl.length t.table;
    }
  in
  Mutex.unlock t.mutex;
  s

let hit_rate s =
  let total = s.hits + s.misses in
  if total = 0 then 0.0 else float_of_int s.hits /. float_of_int total

let convention_tag (c : Fpc_compiler.Convention.t) =
  let linkage =
    match c.linkage with
    | Fpc_mesa.Image.External -> "ext"
    | Fpc_mesa.Image.Direct -> "dir"
    | Fpc_mesa.Image.Short_direct -> "short"
  in
  if c.args_in_place then linkage ^ "+aip" else linkage

(* The tier tag keeps per-tier pristine entries apart: the compiled
   tier's translation attaches to the image's shared directory, so
   tagging the key guarantees an interp-tier entry (and every arena slot
   keyed by it) never aliases a translated one.  The devirt tag does the
   same for the devirtualized variant: its code bytes differ (rewritten
   call sites), so it must never share an entry — or an arena slot, whose
   replay tape records operand patches against these exact bytes — with
   the late-bound baseline. *)
let key_of ~convention ~source ~tier ~devirt =
  Digest.to_hex (Digest.string source)
  ^ "/" ^ convention_tag convention
  ^ (if devirt then "+dv" else "")
  ^ (if tier = "" then "" else "@" ^ tier)

(* Under the mutex. *)
let evict_lru t =
  let victim = ref None in
  Hashtbl.iter
    (fun key e ->
      match !victim with
      | Some (_, oldest) when oldest <= e.last_used -> ()
      | _ -> victim := Some (key, e.last_used))
    t.table;
  match !victim with
  | Some (key, _) ->
    Hashtbl.remove t.table key;
    t.evictions <- t.evictions + 1
  | None -> ()

let lookup t key =
  Mutex.lock t.mutex;
  let found =
    match Hashtbl.find_opt t.table key with
    | Some e ->
      t.tick <- t.tick + 1;
      e.last_used <- t.tick;
      t.hits <- t.hits + 1;
      Some e.image
    | None ->
      t.misses <- t.misses + 1;
      None
  in
  Mutex.unlock t.mutex;
  found

(* Keeps an already-present entry (a racing domain beat us to it) so a hot
   image's recency is preserved; returns the image to clone from. *)
let insert t key image =
  Mutex.lock t.mutex;
  let kept =
    match Hashtbl.find_opt t.table key with
    | Some e ->
      t.tick <- t.tick + 1;
      e.last_used <- t.tick;
      e.image
    | None ->
      if Hashtbl.length t.table >= t.capacity then evict_lru t;
      t.tick <- t.tick + 1;
      Hashtbl.replace t.table key { image; last_used = t.tick };
      image
  in
  Mutex.unlock t.mutex;
  kept

let find_pristine ?(tier = "") ?(devirt = false) t ~convention ~source =
  let key = key_of ~convention ~source ~tier ~devirt in
  match lookup t key with
  | Some image -> Ok (image, key, true, 0.0)
  | None -> (
    let t0 = Fpc_util.Clock.now () in
    match Fpc_compiler.Compile.image ~convention ~devirt source with
    | Error m -> Error m
    | Ok image ->
      let dt = Fpc_util.Clock.now () -. t0 in
      let image = insert t key image in
      Ok (image, key, false, dt))

let find_or_compile ?devirt t ~convention ~source =
  match find_pristine ?devirt t ~convention ~source with
  | Error m -> Error m
  | Ok (image, _key, hit, dt) -> Ok (Fpc_mesa.Image.clone image, hit, dt)
