#!/usr/bin/env python3
"""Fail when a hardware-FMA frame in a binary calls its work out of line.

Usage: check_fma_frames.py BINARY

Two kinds of frame are compiled with target features the default
x86_64 target lacks:
  - `mpgmres_la::fma::with_fma` (feature `fma`): `mpgmres_la::fma::run`
    runs each kernel body inside an instance of it;
  - `mpgmres_la::simd::lanes::kernel` (features `avx,fma`): the
    blocked-tree partials, four reduction blocks to a register.
Work only runs on the hardware instructions if it inlines into its
frame; code a frame calls is compiled without the features, so a
`mul_add` there calls the software `fma` and an intrinsic there is an
out-of-line call per vector.

This script disassembles BINARY with `objdump -d -C` and lists every
call or tail jump from a frame to
  - a closure (`{{closure}}`): the kernel body itself stayed out of line;
  - a `from_iter`: an iterator adaptor collected out of line;
  - the software `fma` or `fmaf`, directly or through a GOT slot;
  - a `core::core_arch` intrinsic left out of line.
It exits 1 if it finds any, 0 otherwise, and 2 if it cannot run
(for example, BINARY has no frame of one of the two kinds).
"""

import re
import subprocess
import sys

FRAMES = ("mpgmres_la::fma::with_fma", "mpgmres_la::simd::lanes::kernel")
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
    return (
        "{{closure}}" in target
        or "from_iter" in target
        or "core_arch" in target
        or base in ("fma", "fmaf")
    )


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

    frames, found = dict.fromkeys(FRAMES, 0), []
    frame = name = None
    for line in disasm:
        m = HEADER.match(line)
        if m:
            name = m.group(2)
            frame = m.group(1) if name in frames else None
            if frame is not None:
                frames[name] += 1
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
            if target.startswith(name + "+"):
                continue  # a jump inside the frame
        else:
            s = VIA_SLOT.search(operand)
            if not s:
                continue  # through a register: not resolvable statically
            target = slots.get(int(s.group(1), 16), "")
        if escapes(target):
            found.append(f"  frame {frame} at {addr}: {op} -> {target}")

    missing = [f for f, count in frames.items() if count == 0]
    if missing:
        print(f"no {' or '.join(missing)} frame in {binary}", file=sys.stderr)
        return 2
    for line in found:
        print(line)
    counts = ", ".join(f"{count} {f} frames" for f, count in frames.items())
    print(f"{counts}, {len(found)} escapes")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
