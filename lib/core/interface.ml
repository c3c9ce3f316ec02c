open Fpc_mesa

type t = { if_addr : int; if_slots : (string * string) array }

let fill image addr slots =
  Array.iteri
    (fun i (instance, proc) ->
      let d = Image.descriptor_of image ~instance ~proc in
      Fpc_machine.Memory.poke image.Image.mem (addr + i) (Descriptor.pack d))
    slots

let create (image : Image.t) ~slots =
  if Array.length slots = 0 then invalid_arg "Interface.create: empty interface";
  let addr = Image.alloc_static image ~words:(Array.length slots) ~quad:false in
  fill image addr slots;
  { if_addr = addr; if_slots = Array.copy slots }

let address t = t.if_addr

let slot_index t ~proc =
  let found = ref (-1) in
  Array.iteri
    (fun i (_, p) -> if !found < 0 && String.equal p proc then found := i)
    t.if_slots;
  if !found < 0 then raise Not_found else !found

let rebind (image : Image.t) t ~slot ~target:(instance, proc) =
  if slot < 0 || slot >= Array.length t.if_slots then
    invalid_arg "Interface.rebind: slot out of range";
  let d = Image.descriptor_of image ~instance ~proc in
  Fpc_machine.Memory.poke image.Image.mem (t.if_addr + slot)
    (Descriptor.pack d);
  t.if_slots.(slot) <- (instance, proc)

let call_sequence t ~slot =
  if slot < 0 || slot >= Array.length t.if_slots then
    invalid_arg "Interface.call_sequence: slot out of range";
  [ Fpc_isa.Opcode.Li t.if_addr; Fpc_isa.Opcode.Ldfld slot; Fpc_isa.Opcode.Xf ]
