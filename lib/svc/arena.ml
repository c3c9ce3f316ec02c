(* A worker-private table of reusable execution contexts.  Single-owner
   by construction: the pool creates one per worker domain and never
   shares it, so there is no lock anywhere on this path. *)

(* One cached image: a private clone of one pristine, and the machine
   states of the engines that have run on it. *)
type entry = {
  e_cache_key : string;  (* the image cache's content key *)
  e_tier : string;  (* execution tier, the entry's second key component *)
  e_image : Fpc_mesa.Image.t;  (* this entry's private arena clone *)
  mutable e_slots : slot array;  (* one per engine, in first-use order *)
  mutable e_last_used : int;
}

(* One engine's machine state over its entry's image. *)
and slot = {
  sl_engine : string;  (* engine name *)
  sl_entry : entry;
  sl_st : Fpc_core.State.t;
}

type t = {
  entries : (string, entry) Hashtbl.t;
  capacity : int;
  mutable last : slot option;
      (** the previously acquired slot — workers run streaks of jobs
          against one hot image, and this memo turns the common repeat
          acquire into string compares (no key concat, no hashing) *)
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable states : int;
  mutable store_bytes : int;
  mutable pages_blitted : int;
}

let create ?(capacity = Image_cache.default_capacity) () =
  if capacity <= 0 then invalid_arg "Arena.create: capacity must be positive";
  {
    entries = Hashtbl.create 32;
    capacity;
    last = None;
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    states = 0;
    store_bytes = 0;
    pages_blitted = 0;
  }

let capacity t = t.capacity

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  images : int;
  states : int;
  store_bytes : int;
  pages_blitted : int;
}

let stats (t : t) =
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    images = Hashtbl.length t.entries;
    states = t.states;
    store_bytes = t.store_bytes;
    pages_blitted = t.pages_blitted;
  }

(* A simulated word is two bytes of the store's buffer. *)
let image_bytes (image : Fpc_mesa.Image.t) =
  2 * Fpc_machine.Memory.size image.Fpc_mesa.Image.mem

let evict_lru (t : t) =
  let victim = ref None in
  Hashtbl.iter
    (fun key e ->
      match !victim with
      | Some (_, oldest) when oldest.e_last_used <= e.e_last_used -> ()
      | _ -> victim := Some (key, e))
    t.entries;
  match !victim with
  | Some (key, e) ->
    Hashtbl.remove t.entries key;
    (match t.last with Some s when s.sl_entry == e -> t.last <- None | _ -> ());
    t.states <- t.states - Array.length e.e_slots;
    t.store_bytes <- t.store_bytes - image_bytes e.e_image;
    t.evictions <- t.evictions + 1
  | None -> ()

(* Blit back only the pages the previous run on this image dirtied,
   whichever engine ran it. *)
let reset_image (t : t) e ~pristine =
  e.e_last_used <- t.tick;
  let dirty = Fpc_machine.Memory.dirty_pages e.e_image.Fpc_mesa.Image.mem in
  t.pages_blitted <- t.pages_blitted + dirty;
  Fpc_mesa.Image.clone_into ~arena:e.e_image pristine

(* The index of [engine_name]'s slot in [slots], or -1. *)
let rec slot_index slots engine_name i =
  if i >= Array.length slots then -1
  else if String.equal slots.(i).sl_engine engine_name then i
  else slot_index slots engine_name (i + 1)

(* The engine's first acquire on [e]: called after [e]'s image was reset
   (or freshly cloned), so the state is created over a pristine store,
   exactly as it would be over a fresh clone. *)
let add_slot (t : t) e ~engine ~engine_name =
  t.misses <- t.misses + 1;
  t.states <- t.states + 1;
  let slot =
    {
      sl_engine = engine_name;
      sl_entry = e;
      sl_st = Fpc_core.State.create ~image:e.e_image ~engine ();
    }
  in
  e.e_slots <- Array.append e.e_slots [| slot |];
  slot

(* Reset [e]'s image and return [engine_name]'s slot on it, creating the
   state on the engine's first use. *)
let on_entry (t : t) e ~engine ~engine_name ~pristine =
  reset_image t e ~pristine;
  let i = slot_index e.e_slots engine_name 0 in
  let slot =
    if i >= 0 then begin
      t.hits <- t.hits + 1;
      e.e_slots.(i)
    end
    else add_slot t e ~engine ~engine_name
  in
  t.last <- Some slot;
  slot

(* The slot's image is left equal to [pristine] (dirty pages blitted back
   on a hit, a fresh clone on a miss); the slot's state is NOT yet reset —
   the caller builds its tracer against [image slot] first, then
   [checkout]s. *)
let acquire (t : t) ~key ~engine ~engine_name ?(tier_name = "") ~pristine () =
  t.tick <- t.tick + 1;
  match t.last with
  | Some slot
    when String.equal slot.sl_entry.e_cache_key key
         && String.equal slot.sl_entry.e_tier tier_name ->
    if String.equal slot.sl_engine engine_name then begin
      (* The streak path: same job shape as last time, no hashing at all. *)
      t.hits <- t.hits + 1;
      reset_image t slot.sl_entry ~pristine;
      slot
    end
    else on_entry t slot.sl_entry ~engine ~engine_name ~pristine
  | _ -> (
    let ek = key ^ "|" ^ tier_name in
    match Hashtbl.find_opt t.entries ek with
    | Some e -> on_entry t e ~engine ~engine_name ~pristine
    | None ->
      if Hashtbl.length t.entries >= t.capacity then evict_lru t;
      let image = Fpc_mesa.Image.clone pristine in
      let e =
        {
          e_cache_key = key;
          e_tier = tier_name;
          e_image = image;
          e_slots = [||];
          e_last_used = t.tick;
        }
      in
      Hashtbl.replace t.entries ek e;
      t.store_bytes <- t.store_bytes + image_bytes image;
      let slot = add_slot t e ~engine ~engine_name in
      t.last <- Some slot;
      slot)

let image slot = slot.sl_entry.e_image

let checkout ?tracer slot =
  Fpc_core.State.reset ?tracer slot.sl_st;
  slot.sl_st
