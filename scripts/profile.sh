#!/usr/bin/env bash
# Host-time profile of one perfbench workload, split by simulator module.
#
#   scripts/profile.sh [--workload npb-cg] [--seed 42] [--seconds 6] \
#       [--build-dir build-profile] [--out BENCH_hostprofile.json]
#
# Builds perfbench/ with -O2 -g (the benchmark's own flags plus debug
# info), runs it under scripts/sigprof_shim.c (a SIGPROF sample every
# millisecond of CPU time, via LD_PRELOAD), and folds each sample by
# its innermost inlined frame with `addr2line -i`. It prints the top
# frames and writes the JSON to --out:
#
#   attempted   perfbench's operation count (two per fused/Popcorn
#               pair), to compare profiles of runs of different length;
#   modules     samples and share per src/stramash/<module>: the
#               innermost frame that lies in src/stramash, so inlined
#               library code (std::map, memcpy calls inlined into a
#               module) counts to the module that inlined it; samples
#               with no such frame count to "[std]" (library headers
#               and libstdc++), "[libc]", "[perfbench]" or "[other]";
#   top_frames  the 30 innermost frames with the most samples.
#
# Compare two commits by running it in a checkout of each.
#
# gprof (-pg) is no substitute here: it charges an inlined function to
# the function it was inlined into, and its mcount calls perturb the
# hot loop it is meant to measure.
set -euo pipefail

workload=npb-cg
seed=42
seconds=6
build=build-profile
out=BENCH_hostprofile.json
while [ $# -gt 0 ]; do
    case "$1" in
      --workload) workload=$2; shift 2 ;;
      --seed) seed=$2; shift 2 ;;
      --seconds) seconds=$2; shift 2 ;;
      --build-dir) build=$2; shift 2 ;;
      --out) out=$2; shift 2 ;;
      *) echo "profile.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$build"
build=$(cd "$build" && pwd)

cmake -S "$root/perfbench" -B "$build" -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS=-g >&2
cmake --build "$build" --target perfbench -j "$(nproc)" >&2
cc -O2 -shared -fPIC -o "$build/sigprof_shim.so" \
    "$root/scripts/sigprof_shim.c" -ldl

samples="$build/samples-$workload-$seed.txt"
SIGPROF_OUT="$samples" LD_PRELOAD="$build/sigprof_shim.so" \
    "$build/perfbench" --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace 0 > "$build/perfbench-$workload-$seed.out"
tail -n 1 "$build/perfbench-$workload-$seed.out" | python3 -c '
import json, sys
r = json.load(sys.stdin)
sys.exit(0 if r["correct"] and not r["failed"] else "perfbench run not correct")'

attempted=$(tail -n 1 "$build/perfbench-$workload-$seed.out" |
    python3 -c 'import json, sys; print(json.load(sys.stdin)["attempted"])')

python3 - "$samples" "$build/perfbench" "$out" "$workload" "$seed" \
    "$attempted" <<'EOF'
import collections, json, os, re, subprocess, sys

samples, exe, out, workload, seed, attempted = sys.argv[1:]
exe = os.path.realpath(exe)
counts = collections.Counter()
for line in open(samples):
    obj, off = line.split()
    counts[(obj, int(off, 16))] += 1
total = sum(counts.values())
if not total:
    sys.exit("profile.sh: no samples")

def is_exe(obj):
    return obj != "?" and (obj == "" or os.path.realpath(obj) == exe)

# One addr2line call for every distinct pc in the executable: -a
# prints each address before its inline chain, innermost frame first.
pcs = sorted({off for (obj, off) in counts if is_exe(obj)})
chains = {}
if pcs:
    text = subprocess.run(
        ["addr2line", "-a", "-i", "-f", "-C", "-e", exe] +
        ["%x" % pc for pc in pcs], check=True, stdout=subprocess.PIPE,
        text=True).stdout.splitlines()
    i, pc = 0, None
    while i < len(text):
        if text[i].startswith("0x"):
            pc = int(text[i], 16)
            chains[pc] = []
            i += 1
        else:
            chains[pc].append((text[i], text[i + 1]))
            i += 2

module_re = re.compile(r"src/stramash/([^/]+)/")

def short(func):
    """A demangled name without template arguments or parameters."""
    func = func.replace("(anonymous namespace)", "{anon}")
    out, depth = [], 0
    for ch in func:
        if ch == "<":
            depth += 1
            if depth == 1:
                out.append("<>")
        elif ch == ">" and depth:
            depth -= 1
        elif not depth:
            out.append(ch)
    return "".join(out).split("(")[0]

def fold(obj, off):
    """(module, innermost frame) of one sample."""
    if not is_exe(obj):
        name = os.path.basename(obj)
        lib = "[libc]" if name.startswith("libc.") else (
            "[std]" if name.startswith("libstdc++") else "[other]")
        return lib, name
    chain = chains.get(off) or [("??", "??:0")]
    func, loc = chain[0]
    frame = "%s (%s)" % (short(func), os.path.basename(loc.split(":")[0]))
    for _, where in chain:
        m = module_re.search(where)
        if m:
            return m.group(1), frame
    if "perfbench/" in loc:
        return "[perfbench]", frame
    if "/include/" in loc:
        return "[std]", frame
    return "[other]", frame

modules = collections.Counter()
frames = collections.Counter()
for key, n in counts.items():
    module, frame = fold(*key)
    modules[module] += n
    frames[frame] += n

result = {
    "workload": workload, "seed": int(seed), "samples": total,
    "sample_period_ms": 1, "attempted": int(attempted),
    "modules": {m: {"samples": n, "share": round(n / total, 4)}
                for m, n in modules.most_common()},
    "top_frames": [{"frame": f, "samples": n,
                    "share": round(n / total, 4)}
                   for f, n in frames.most_common(30)],
}
with open(out, "w") as f:
    json.dump(result, f, indent=1)
print("%s seed %s: %d samples over %s operations" %
      (workload, seed, total, attempted))
print("modules:")
for m, n in modules.most_common():
    print("  %6.1f%%  %6d  %s" % (100 * n / total, n, m))
print("top frames:")
for f, n in frames.most_common(30):
    print("  %6.1f%%  %6d  %s" % (100 * n / total, n, f))
EOF
