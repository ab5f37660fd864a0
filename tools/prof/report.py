#!/usr/bin/env python3
"""Symbolise a tools/prof/sampler.c dump and print self / inclusive shares.

    tools/prof/report.py prof.out [--top 30] [--match REGEX ...] [--by-caller REGEX ...]
                                  [--layers [--wall S]]

--layers charges every sample to exactly one layer of the map in
tools/prof/layers: the layer of its innermost first-party frame, or `other`.
The rows are disjoint and sum to 100 %; a sample whose stack starts in
libc's memmove family or its allocator is also counted in that row's
`memmove` or `allocator` sub-row. --wall S (the profiled run's wall_s, one
repetition) adds seconds per repetition.
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
import functools
import itertools
import os
import re
import subprocess
import sys

LAYERS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "layers")
# Sub-rows: a libc leaf (a frame resolved in libc names the nearest export,
# see above) under whichever layer the sample is charged to.
LIBC_LEAF = re.compile(r"libc[\w.-]*:")
SUB_ROWS = (("memmove", re.compile(r"nss_database|memmove|memcpy|memset")),
            ("allocator", re.compile(r"malloc|calloc|free|realloc|morecore")))


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


def load_layers(path=LAYERS):
    """The ordered `(regex, layer)` rules of a layer map (`REGEX -> LAYER`
    a line, `#` comments)."""
    with open(path) as f:
        lines = [line.strip() for line in f]
    rules = [line.rsplit(" -> ", 1) for line in lines if line and not line.startswith("#")]
    return [(re.compile(regex.strip()), layer.strip()) for regex, layer in rules]


def close(name, i):
    """Index of the `>` that closes the `<` at `name[i]` (the `>` of an
    arrow `->` closes nothing), or the end of `name`."""
    depth = 0
    for k in range(i, len(name)):
        if name[k] == "<":
            depth += 1
        elif name[k] == ">" and name[k - 1] != "-":
            depth -= 1
            if depth == 0:
                return k
    return len(name)


@functools.lru_cache(maxsize=None)
def own_path(name):
    """The path a frame's layer is read from. `<T as Trait>::f` (and v0's
    `<T>::f`) is T's, `drop_in_place<T>` is T's, and otherwise generic
    arguments and `<impl T>` segments are dropped, so that
    `m::<impl T>::f` is module m's and `Kernel<M>::drain` is `Kernel`'s."""
    if name.startswith("<"):
        inner, depth = name[1:close(name, 0)], 0
        for k, c in enumerate(inner):
            depth += (c == "<") - (c == ">" and inner[k - 1] != "-")
            if depth == 0 and inner.startswith(" as ", k):
                inner = inner[:k]
                break
        return own_path(re.sub(r"^(&|mut |dyn |\*const |\*mut )+", "", inner.strip()))
    m = re.match(r"(core|std)::ptr::drop_in_place<", name)
    if m:
        return own_path(name[m.end():close(name, m.end() - 1)])
    out, k = [], 0
    while k < len(name):
        if name[k] == "<":
            k = close(name, k) + 1
        else:
            out.append(name[k])
            k += 1
    return re.sub(r"(::)+", "::", "".join(out))


def layer_of(name, rules):
    """The layer of the first rule matching the frame's own path, or None
    for a frame that is not first-party."""
    path = own_path(name)
    return next((layer for regex, layer in rules if regex.search(path)), None)


def charge(funcs, rules):
    """`(layer, sub-row)` of one sample, `funcs` innermost first: the layer
    of the innermost first-party frame (`other` if none), and the sub-row
    of the innermost frame that names one among the libc frames the stack
    starts with (None if none does)."""
    layer = next(filter(None, (layer_of(f, rules) for f in funcs)), "other")
    leaves = itertools.takewhile(LIBC_LEAF.match, funcs)
    return layer, next((sub for f in leaves for sub, regex in SUB_ROWS if regex.search(f)), None)


def print_layers(table, rules, wall):
    """The layer rows in map order, then `other`, each with its non-empty
    sub-rows; seconds per repetition too if `wall` is given."""
    total = max(sum(table.values()), 1)
    layers = list(dict.fromkeys(layer for _, layer in rules)) + ["other"]

    def row(label, n):
        secs = f"  {wall * n / total:8.3f}" if wall else ""
        print(f"  {label:<14} {100 * n / total:6.1f} %{secs}")

    print(f"\n  {'layer':<14} {'share':>8}" + ("  s/rep" if wall else ""))
    for layer in layers:
        row(layer, sum(n for (l, _), n in table.items() if l == layer))
        for sub, _ in SUB_ROWS:
            if table[(layer, sub)]:
                row("  " + sub, table[(layer, sub)])


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("dump")
    ap.add_argument("--top", type=int, default=30)
    ap.add_argument("--match", action="append", default=[])
    ap.add_argument("--by-caller", action="append", default=[])
    ap.add_argument("--layers", action="store_true")
    ap.add_argument("--wall", type=float)
    args = ap.parse_args()
    maps, samples, exe = load(args.dump)
    names = symbolise(maps, samples, exe)
    self_n, incl_n = collections.Counter(), collections.Counter()
    matched = collections.Counter()
    callers = {pat: collections.Counter() for pat in args.by_caller}
    rules = load_layers() if args.layers else []
    layers = collections.Counter()
    for stack in samples:
        funcs = [f for a in stack for f in names.get(a, ["?? (unmapped)"])]
        if args.layers:
            layers[charge(funcs, rules)] += 1
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
    if args.layers:
        print_layers(layers, rules, args.wall)
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
