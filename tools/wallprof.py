#!/usr/bin/env python3
"""Tables from one or more tools/wallprof.c sample files.

    tools/wallprof.py <binary> <run.prof>... [--top 30]
                      [--callers-of NAME [--through PAT[,PAT...]]]

Each file carries its own /proc/self/maps, so every run is symbolised
against its own ASLR base. In-binary addresses go through `addr2line -f -i`
(build with CARGO_PROFILE_RELEASE_DEBUG=line-tables-only and inlined
functions get their own rows; without debug info `nm` names the enclosing
symbol). A sample whose innermost frames are outside the binary (libc's
memcpy, malloc, realloc, ...) is charged to its first in-binary caller,
shown as `caller <- libc`.

Prints two tables, self and inclusive, as shares of all samples; with
--callers-of, the direct callers of every function whose name contains
NAME instead. The direct caller of an allocator entry point is always a
std shim, so --through names the frames to step over on the way out:

    --callers-of __rdl_alloc --through 'alloc,core::,__rdl_,{closure,new_uninit'

charges each allocation sample to the first frame above the allocator
whose name contains none of the patterns (with line tables the inlined
shims carry bare names — `alloc`, `allocate`, `new_uninit<..>` — hence
`alloc` and not `alloc::`).
"""

import argparse
import bisect
import collections
import os
import subprocess


def load(path, binary):
    """One list per sample: in-binary frames as file addresses, others None."""
    spans, sampler, stacks = [], [], []
    real = os.path.realpath(binary)
    with open(path) as f:
        for line in f:
            kind, _, rest = line.partition(" ")
            if kind == "M":
                fields = rest.split()
                lo, hi = (int(x, 16) for x in fields[0].split("-"))
                name = fields[5] if len(fields) > 5 else ""
                if os.path.realpath(name) == real:
                    spans.append((lo, hi))
                elif "wallprof" in name:
                    sampler.append((lo, hi))
            elif kind == "S":
                stacks.append([int(x, 16) for x in rest.split()])
    if not spans:
        raise SystemExit(f"{path}: {binary} is not in the recorded maps")
    base = min(lo for lo, _ in spans)

    def inside(addr, where):
        return any(lo <= addr < hi for lo, hi in where)

    out = []
    for frames in stacks:
        # Drop the handler's own frames and the signal trampoline above them.
        own = [i for i, a in enumerate(frames) if inside(a, sampler)]
        frames = frames[own[-1] + 2:] if own else frames
        # Frame 0 is the interrupted pc; the rest are return addresses.
        out.append([
            (a - base - (1 if i else 0)) if inside(a, spans) else None
            for i, a in enumerate(frames)
        ])
    return out


def symbolise(binary, addrs):
    """addr -> function names, innermost inlined first."""
    addrs = sorted(addrs)
    text = "\n".join(f"{a:#x}" for a in addrs)
    out = subprocess.run(["addr2line", "-e", binary, "-f", "-C", "-i", "-a"],
                         input=text, capture_output=True, text=True, check=True).stdout
    names, current = {}, None
    lines = out.splitlines()
    i = 0
    while i < len(lines):
        if lines[i].startswith("0x"):
            current = names.setdefault(int(lines[i], 16), [])
            i += 1
        else:
            current.append(lines[i])
            i += 2  # function line, then file:line
    # Whatever addr2line gave up on (all of it, without debug info): the
    # enclosing nm symbol.
    nm = subprocess.run(["nm", "-C", "-n", "--defined-only", binary],
                        capture_output=True, text=True, check=True).stdout
    syms = []
    for line in nm.splitlines():
        fields = line.split(None, 2)
        if len(fields) == 3 and fields[1] in "tTwW":
            syms.append((int(fields[0], 16), fields[2]))
    starts = [a for a, _ in syms]
    for a in addrs:
        if names.get(a, ["??"])[0] == "??":
            at = bisect.bisect_right(starts, a) - 1
            names[a] = [syms[at][1] if at >= 0 else "??"]
    return names


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("binary")
    ap.add_argument("profiles", nargs="+")
    ap.add_argument("--top", type=int, default=30)
    ap.add_argument("--callers-of", metavar="NAME")
    ap.add_argument("--through", metavar="PAT[,PAT...]", default="",
                    help="with --callers-of: skip frames whose name contains any PAT")
    opts = ap.parse_args()
    if opts.through and not opts.callers_of:
        ap.error("--through needs --callers-of")
    through = [pat for pat in opts.through.split(",") if pat]

    stacks = [s for p in opts.profiles for s in load(p, opts.binary)]
    names = symbolise(opts.binary, {a for s in stacks for a in s if a is not None})
    self_, inclusive, callers = (collections.Counter() for _ in range(3))
    for frames in stacks:
        # One logical stack, innermost first, inlined frames expanded.
        logical = [n for a in frames if a is not None for n in names[a]]
        if not logical:
            self_["(outside the binary)"] += 1
            continue
        self_[logical[0] + ("" if frames[0] is not None else " <- libc")] += 1
        inclusive.update(set(logical))
        if opts.callers_of:
            hits = [i for i, n in enumerate(logical) if opts.callers_of in n]
            if hits:
                outer = hits[-1] + 1
                while outer < len(logical) and any(pat in logical[outer] for pat in through):
                    outer += 1
                callers[logical[outer] if outer < len(logical) else "(root)"] += 1

    total = len(stacks)
    print(f"{total} samples, {len(opts.profiles)} run(s), 100 us apart")
    tables = [(f"callers of *{opts.callers_of}*", callers)] if opts.callers_of else \
        [("self", self_), ("inclusive", inclusive)]
    for title, table in tables:
        print(f"\n{title}")
        for name, n in table.most_common(opts.top):
            print(f"  {100 * n / total:5.1f} %  {n:>7}  {name[:150]}")


if __name__ == "__main__":
    main()
