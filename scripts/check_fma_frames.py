#!/usr/bin/env python3
"""Fail when a hardware-FMA frame in a binary calls its work out of line.

Usage: check_fma_frames.py BINARY

`mpgmres_la::fma::run` runs each kernel body inside an instance of
`mpgmres_la::fma::with_fma`, which is compiled with the `fma` target
feature. The body only runs on hardware FMA if it inlines into that
frame; code the frame calls is compiled without the feature and turns
every `mul_add` into a call to the software `fma`.

This script disassembles BINARY with `objdump -d -C` and lists every
call or tail jump from a `with_fma` instance to
  - a closure (`{{closure}}`): the kernel body itself stayed out of line;
  - a `from_iter`: an iterator adaptor collected out of line;
  - the software `fma` or `fmaf`, directly or through a GOT slot.
It exits 1 if it finds any, 0 otherwise, and 2 if it cannot run
(for example, no `with_fma` frame in BINARY).
"""

import re
import subprocess
import sys

FRAME = "mpgmres_la::fma::with_fma"
HEADER = re.compile(r"^([0-9a-f]+) <(.*)>:$")
BRANCH = re.compile(r"^\s*([0-9a-f]+):\s+(call|jmp)\S*\s+(.*)$")
DIRECT = re.compile(r"^[0-9a-f]+ <(.*)>$")
VIA_SLOT = re.compile(r"#\s+([0-9a-f]+) <")
RELATIVE = re.compile(r"^([0-9a-f]+)\s+R_X86_64_RELATIVE\s+\*ABS\*\+0x([0-9a-f]+)$")
NAMED = re.compile(r"^([0-9a-f]+)\s+R_X86_64_(?:GLOB_DAT|JUMP_SLOT)\s+(\S+)$")


def objdump(*args):
    return subprocess.run(
        ["objdump", *args], check=True, capture_output=True, text=True
    ).stdout.splitlines()


def escapes(target):
    """Whether a branch target is work that left the FMA frame."""
    base = target.split("@")[0]
    return "{{closure}}" in target or "from_iter" in target or base in ("fma", "fmaf")


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    binary = argv[1]
    disasm = objdump("-d", "-C", "--no-show-raw-insn", binary)

    # Function start addresses, to name what a GOT slot points at.
    names = {}
    for line in disasm:
        m = HEADER.match(line)
        if m:
            names[int(m.group(1), 16)] = m.group(2)
    slots = {}
    for line in objdump("-R", binary):
        m = RELATIVE.match(line)
        if m:
            slots[int(m.group(1), 16)] = names.get(int(m.group(2), 16), "")
            continue
        m = NAMED.match(line)
        if m:
            slots[int(m.group(1), 16)] = m.group(2)

    frames, found = 0, []
    frame = None
    for line in disasm:
        m = HEADER.match(line)
        if m:
            frame = m.group(1) if m.group(2) == FRAME else None
            frames += frame is not None
            continue
        if frame is None:
            continue
        m = BRANCH.match(line)
        if not m:
            continue
        addr, op, operand = m.groups()
        d = DIRECT.match(operand.strip())
        if d:
            target = d.group(1)
            if target.startswith(FRAME + "+"):
                continue  # a jump inside the frame
        else:
            s = VIA_SLOT.search(operand)
            if not s:
                continue  # through a register: not resolvable statically
            target = slots.get(int(s.group(1), 16), "")
        if escapes(target):
            found.append(f"  frame {frame} at {addr}: {op} -> {target}")

    if frames == 0:
        print(f"no {FRAME} frame in {binary}", file=sys.stderr)
        return 2
    for line in found:
        print(line)
    print(f"{frames} {FRAME} frames, {len(found)} escapes")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
