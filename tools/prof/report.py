#!/usr/bin/env python3
"""Symbolise a tools/prof/sampler.c dump and print self / inclusive shares.

    tools/prof/report.py prof.out [--top 30] [--match REGEX ...] [--by-caller REGEX ...]

self = samples whose innermost function is F; incl = samples with F anywhere
on the stack (inlined frames count, via `addr2line -i`). Each --match prints
the inclusive share of all functions matching the regex, counted once per
sample — e.g. --match 'futex' --match 'push_event|drain|EventQueues'.
Each --by-caller splits such a share by who pays for it: a matching sample is
charged to the first `repseq` function outside its innermost matching frame —
e.g. --by-caller 'sip|hash' names the protocol functions that hash.
A frame resolved in an ELF other than the profiled executable carries that
file's name (`libc.so.6:__default_morecore`): libc ships without local
symbols, so such a name is the nearest *export* below the address and not a
callee anyone called — on glibc 2.36 `__default_morecore` is the allocator's
internal paths and `__nss_database_lookup` the memmove/memset family.
Regexes search, so they match either way.
The dump is read against the files it mapped, so profile a copy of the
binary that no build overwrites; a file rebuilt since the run (another inode
at its path) stops the report with its name instead of misreading it.
"""
import argparse
import bisect
import collections
import os
import re
import subprocess
import sys


def load(path):
    """Executable mappings as (lo, hi, load bias, file), the samples, and
    the profiled executable (the first file `/proc/self/maps` lists).
    Exits naming the file if one the dump mapped is no longer the file at
    its path: a rebuild writes a new inode there, and symbolising the old
    addresses against it would print a confident, wrong table."""
    maps, base, samples, exe, inode = [], {}, [], None, {}
    for line in open(path):
        if line.startswith("M "):
            f = line.split()
            if len(f) >= 7 and f[6].startswith("/"):
                exe = exe or f[6]
                lo, hi = (int(x, 16) for x in f[1].split("-"))
                base[f[6]] = min(lo, base.get(f[6], lo))
                inode[f[6]] = int(f[5])
                if "x" in f[2]:
                    maps.append((lo, hi, f[6]))
        elif line.startswith("S"):
            samples.append([int(a, 16) for a in line.split()[1:]])
    for file in sorted({f for _, _, f in maps}):
        now = os.stat(file).st_ino if os.path.exists(file) else None
        if now != inode[file]:
            sys.exit(f"{file} is not the file that was profiled (inode {inode[file]}, now "
                     f"{now}): it was rebuilt or replaced. Profile a copy that stays put.")
    return sorted((lo, hi, bias(f, base[f]), f) for lo, hi, f in maps), samples, exe


def bias(path, lowest_mapping):
    """What to subtract from a run-time address to get the ELF's own: the
    load address for a PIE or shared object (ET_DYN), nothing for ET_EXEC."""
    with open(path, "rb") as f:
        return lowest_mapping if f.read(18)[16:18] == b"\x03\x00" else 0


def symbolise(maps, samples, exe):
    """address -> list of function names, innermost inlined frame first;
    names from any file but `exe` are prefixed with the file's name."""
    starts = [m[0] for m in maps]
    by_file = collections.defaultdict(set)
    for stack in samples:
        for depth, addr in enumerate(stack):
            i = bisect.bisect_right(starts, addr) - 1
            if i >= 0 and addr < maps[i][1]:
                _, _, bias, path = maps[i]
                # A return address points after the call: look up the call.
                by_file[path].add((addr, addr - bias - (1 if depth else 0)))
    names = {}
    for path, addrs in by_file.items():
        addrs = sorted(addrs)
        out = subprocess.run(
            ["addr2line", "-a", "-f", "-C", "-i", "-e", path] + [hex(o) for _, o in addrs],
            capture_output=True, text=True, check=True).stdout.splitlines()
        chains, cur = [], None
        file = path.rsplit("/", 1)[-1]
        tag = "" if path == exe else file + ":"
        for k, line in enumerate(out):
            if line.startswith("0x"):
                cur = []
                chains.append(cur)
                base = k
            elif (k - base) % 2 == 1:  # function line; the next is file:line
                cur.append(tag + line if line != "??" else f"?? ({file})")
        for (addr, _), chain in zip(addrs, chains):
            names[addr] = chain
    return names


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("dump")
    ap.add_argument("--top", type=int, default=30)
    ap.add_argument("--match", action="append", default=[])
    ap.add_argument("--by-caller", action="append", default=[])
    args = ap.parse_args()
    maps, samples, exe = load(args.dump)
    names = symbolise(maps, samples, exe)
    self_n, incl_n = collections.Counter(), collections.Counter()
    matched = collections.Counter()
    callers = {pat: collections.Counter() for pat in args.by_caller}
    for stack in samples:
        funcs = [f for a in stack for f in names.get(a, ["?? (unmapped)"])]
        if not funcs:
            continue
        self_n[funcs[0]] += 1
        for f in set(funcs):
            incl_n[f] += 1
        for pat in args.match:
            matched[pat] += any(re.search(pat, f) for f in funcs)
        for pat, table in callers.items():
            hit = next((k for k, f in enumerate(funcs) if re.search(pat, f)), None)
            if hit is not None:
                outer = (f for f in funcs[hit:] if "repseq" in f and not re.search(pat, f))
                table[next(outer, "(no repseq caller)")] += 1
    total = max(len(samples), 1)
    print(f"{len(samples)} samples")
    for pat in args.match:
        print(f"  match {pat!r}: {100 * matched[pat] / total:5.1f} % inclusive")
    for pat, table in callers.items():
        print(f"\n{pat!r} by first repseq caller: {100 * sum(table.values()) / total:5.1f} %")
        for f, n in table.most_common(args.top):
            print(f"  {100 * n / total:7.1f}    {f}")
    for title, table in (("self", self_n), ("inclusive", incl_n)):
        print(f"\n{title:>9} %  function")
        for f, n in table.most_common(args.top):
            print(f"  {100 * n / total:7.1f}    {f}")


if __name__ == "__main__":
    main()
