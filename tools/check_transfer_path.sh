#!/usr/bin/env bash
# Fail if the native code of the modules on the simulated call path
# reaches one of OCaml's generic (polymorphic) comparisons, Stdlib's
# polymorphic min/max, or — in Bank_file — Array.fill's C call.  Every
# one of these runs per simulated XFER or per fused op when it is there;
# the int-specialised forms compile to a few instructions.  Tier and
# Interp (the fused closures and Interp.exec) are held to the same rule
# in their translate-time and tracing code too, so that no generic
# compare can creep into their hot paths unnoticed — and so is Opcode,
# whose effect table the tier's block formation and fusion guards read.
# Simple_links, I1's per-call link resolution, must not hash either: no
# caml_hash and no Stdlib Hashtbl call.  Transfer, State and Cost keep
# counts only: no Histogram call, since the call-depth and run-length
# statistics are derived from the transfer events.
#
# Run from the root of a checkout after `dune build` (default profile):
#
#   bash tools/check_transfer_path.sh
set -euo pipefail

build=${1:-_build/default}
generic='caml_(compare|equal|notequal|lessthan|lessequal|greaterthan|greaterequal)|camlStdlib[.](min|max)_[0-9]+'
status=0

check() {
  local obj=$1 pattern=$2
  if [ ! -f "$obj" ]; then
    echo "missing object: $obj" >&2
    status=1
    return
  fi
  local hits
  hits=$(objdump -dr "$obj" | grep -E 'R_X86_64_' | grep -oE "\\b($pattern)\\b" | sort | uniq -c || true)
  if [ -n "$hits" ]; then
    echo "$obj:" >&2
    echo "$hits" >&2
    status=1
  fi
}

for m in \
  core/.fpc_core.objs/native/fpc_core__Transfer \
  core/.fpc_core.objs/native/fpc_core__State \
  core/.fpc_core.objs/native/fpc_core__Eval_stack \
  frames/.fpc_frames.objs/native/fpc_frames__Alloc_vector \
  frames/.fpc_frames.objs/native/fpc_frames__Size_class \
  ifu/.fpc_ifu.objs/native/fpc_ifu__Return_stack \
  util/.fpc_util.objs/native/fpc_util__Histogram \
  machine/.fpc_machine.objs/native/fpc_machine__Memory \
  machine/.fpc_machine.objs/native/fpc_machine__Cost \
  tier/.fpc_tier.objs/native/fpc_tier__Tier \
  interp/.fpc_interp.objs/native/fpc_interp__Interp \
  isa/.fpc_isa.objs/native/fpc_isa__Opcode; do
  check "$build/lib/$m.o" "$generic"
done
check "$build/lib/core/.fpc_core.objs/native/fpc_core__Simple_links.o" \
  "$generic|caml_hash|camlStdlib__Hashtbl[.][a-z_]+_[0-9]+"
check "$build/lib/regbank/.fpc_regbank.objs/native/fpc_regbank__Bank_file.o" \
  "$generic|camlStdlib__Array[.]fill_[0-9]+"
for m in \
  core/.fpc_core.objs/native/fpc_core__Transfer \
  core/.fpc_core.objs/native/fpc_core__State \
  machine/.fpc_machine.objs/native/fpc_machine__Cost; do
  check "$build/lib/$m.o" "camlFpc_util__Histogram([.][A-Za-z0-9_]+)?"
done

if [ $status -eq 0 ]; then
  echo "transfer path: no generic comparison, polymorphic min/max, bank Array.fill, I1 link hashing or histogram"
fi
exit $status
