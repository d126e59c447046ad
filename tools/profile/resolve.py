#!/usr/bin/env python3
"""Maps the samples sampler.c wrote to functions and prints the top shares.

    python3 tools/profile/resolve.py prof.txt [--top 25]

Each sampled address is placed in the mapping it fell in, turned into an
address of that object file through the object's PT_LOAD program headers
(readelf -lW), and looked up in the object's symbols: `nm -C -S` for the
static symbol table, `nm -D` for a shared library that only keeps its
dynamic one. Output: one line per function, share of all samples first,
then the sample count, the demangled name and the object's file name.
Exit status 1 when the file holds no samples or nm/readelf is missing.
"""

import argparse
import bisect
import collections
import os
import subprocess
import sys


def parse(path):
    maps, samples = [], []
    with open(path, encoding="utf-8") as f:
        for line in f:
            parts = line.split(maxsplit=4)
            if parts and parts[0] == "map" and len(parts) == 5:
                maps.append((int(parts[1], 16), int(parts[2], 16),
                             int(parts[3], 16), parts[4].rstrip("\n")))
            elif parts and parts[0] == "pc" and len(parts) == 3:
                samples.append((int(parts[1], 16), int(parts[2])))
    maps.sort()
    return maps, samples


def run(cmd):
    try:
        result = subprocess.run(cmd, capture_output=True, text=True,
                                check=False)
    except FileNotFoundError:
        sys.exit(f"resolve.py: {cmd[0]} not found (install binutils)")
    return result.stdout if result.returncode == 0 else ""


def load_segments(path):
    """(file offset, size, virtual address) of each PT_LOAD segment."""
    segments = []
    for line in run(["readelf", "-lW", path]).splitlines():
        parts = line.split()
        if len(parts) >= 6 and parts[0] == "LOAD":
            segments.append((int(parts[1], 16), int(parts[4], 16),
                             int(parts[2], 16)))
    return segments


def load_symbols(path):
    """Sorted (address, size, name) of the object's function symbols."""
    symbols = []
    for dynamic in (False, True):
        cmd = ["nm", "-C", "-S", "--defined-only"]
        if dynamic:
            cmd.append("-D")
        for line in run(cmd + [path]).splitlines():
            # "<address> [<size>] <type> <name>"; names may hold spaces.
            parts = line.split(maxsplit=2)
            if len(parts) < 3:
                continue
            size = 0
            if len(parts[1]) > 1:
                size = int(parts[1], 16)
                parts = [parts[0]] + parts[2].split(maxsplit=1)
            if len(parts) == 3 and parts[1] in ("t", "T", "w", "W", "i"):
                symbols.append((int(parts[0], 16), size, parts[2]))
        if symbols:
            break
    symbols.sort()
    return symbols


class ObjectFile:
    def __init__(self, path):
        self.name = os.path.basename(path)
        self.segments = load_segments(path)
        self.symbols = load_symbols(path)
        self.addresses = [s[0] for s in self.symbols]

    def function_at(self, file_offset):
        vaddr = None
        for offset, size, seg_vaddr in self.segments:
            if offset <= file_offset < offset + size:
                vaddr = file_offset - offset + seg_vaddr
                break
        if vaddr is None:
            return None
        i = bisect.bisect_right(self.addresses, vaddr) - 1
        if i < 0:
            return None
        address, size, name = self.symbols[i]
        if size and vaddr >= address + size:
            return None
        return name


def resolve(maps, samples):
    objects = {}
    starts = [m[0] for m in maps]
    counts = collections.Counter()
    for pc, count in samples:
        i = bisect.bisect_right(starts, pc) - 1
        if i < 0 or pc >= maps[i][1]:
            counts[("[unmapped]", "")] += count
            continue
        start, _, offset, path = maps[i]
        if path not in objects:
            objects[path] = ObjectFile(path)
        obj = objects[path]
        name = obj.function_at(pc - start + offset)
        counts[(name or f"[unknown in {obj.name}]", obj.name)] += count
    return counts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("samples", help="file written by sampler.c")
    parser.add_argument("--top", type=int, default=25,
                        help="functions to print (default 25)")
    args = parser.parse_args(argv)
    maps, samples = parse(args.samples)
    total = sum(count for _, count in samples)
    if total == 0:
        print(f"{args.samples}: no samples", file=sys.stderr)
        return 1
    counts = resolve(maps, samples)
    print(f"{total} samples")
    for (name, obj), count in counts.most_common(args.top):
        print(f"{100.0 * count / total:6.2f}%  {count:8d}  {name}  [{obj}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
