#!/usr/bin/env bash
# Which src/ code does anything outside the tests reach?
#
# Builds two instrumented trees (-O1 --coverage, Release): the main tree
# (benches, examples, tools) and the standalone coebench tree. It runs every
# bench (microbench_kernels at a small --benchmark_min_time), every example,
# the three tools on the bench artifacts, and each coebench workload with
# --tiny (untraced and traced). The tests are not run on purpose: code that
# only a test reaches is what this report exists to find.
#
# It then takes the union of executed lines of both trees per src/ file
# (gcov JSON) and reports:
#   - src/*.cpp files linked into nothing that ran;
#   - unrun executable lines per src/ file;
#   - src/ functions that never ran (no call and no executed line).
#
# usage: tools/coverage.sh WORK_DIR [REPORT]
#   WORK_DIR  scratch directory; everything goes into its coverage-*
#             entries: the main and coebench build trees (reused) and the
#             run artifacts and gcov JSON (replaced on each run). It must
#             lie outside src/ and hold no tracked file of the repo.
#   REPORT    report path (default WORK_DIR/coverage_unreached.txt).
# Env: JOBS (build parallelism, default min(nproc, 4)).
set -euo pipefail

if [[ $# -lt 1 ]]; then
  sed -n '2,23p' "$0" | sed 's/^# \{0,1\}//'
  exit 2
fi

ROOT=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$1"
WORK=$(cd "$1" && pwd)
REPORT=${2:-$WORK/coverage_unreached.txt}
case "$WORK/" in
  "$ROOT/src/"*) echo "coverage.sh: WORK_DIR must be outside src/" >&2; exit 2 ;;
esac
# Empty when WORK_DIR lies outside the checkout (or there is no git).
tracked=$(git -C "$ROOT" ls-files -- "$WORK" 2>/dev/null || true)
if [[ $WORK == "$ROOT" || -n $tracked ]]; then
  echo "coverage.sh: WORK_DIR must not be the repo root or hold tracked" \
       "files" >&2
  exit 2
fi
MAIN=$WORK/coverage-main
CB=$WORK/coverage-coebench
nproc_=$(nproc 2>/dev/null || echo 1)
JOBS=${JOBS:-$(( nproc_ < 4 ? nproc_ : 4 ))}

FLAGS=(-DCMAKE_BUILD_TYPE=Release
       "-DCMAKE_CXX_FLAGS_RELEASE=-O1 -DNDEBUG"
       -DCMAKE_CXX_FLAGS=--coverage
       -DCMAKE_EXE_LINKER_FLAGS=--coverage)

log() { echo "[coverage] $*" >&2; }

# --- build -----------------------------------------------------------------
benches=()
for f in "$ROOT"/bench/*.cpp; do
  n=$(basename "$f" .cpp)
  [[ $n == bench_main ]] || benches+=("$n")
done
examples=()
for f in "$ROOT"/examples/*.cpp; do examples+=("example_$(basename "$f" .cpp)"); done
tools=(validate_bench_json bench_diff coe_report)

log "building the main tree in $MAIN"
cmake -S "$ROOT" -B "$MAIN" "${FLAGS[@]}" > "$MAIN.configure.log"
cmake --build "$MAIN" -j "$JOBS" \
  --target "${benches[@]}" "${examples[@]}" "${tools[@]}" > "$MAIN.build.log"

log "building coebench in $CB"
cmake -S "$ROOT/coebench" -B "$CB" "${FLAGS[@]}" > "$CB.configure.log"
cmake --build "$CB" -j "$JOBS" > "$CB.build.log"

# Counters accumulate across runs; start from zero.
find "$MAIN" "$CB" -name '*.gcda' -delete

# --- run -------------------------------------------------------------------
RUN=$WORK/coverage-run
ART=$RUN/artifacts
rm -rf "$RUN"
mkdir -p "$ART"
status=0
run() {  # run NAME CMD...: logs to $RUN/NAME.log, records failures
  local name=$1
  shift
  if ! (cd "$RUN" && "$@") > "$RUN/$name.log" 2>&1; then
    log "note: $name exited nonzero (see $RUN/$name.log)"
    status=1
  fi
}

export COE_BENCH_DIR=$ART
for b in "${benches[@]}"; do
  log "bench $b"
  if [[ $b == microbench_kernels ]]; then
    run "$b" "$MAIN/bench/$b" --benchmark_min_time=0.01s
  else
    run "$b" "$MAIN/bench/$b"
  fi
done
unset COE_BENCH_DIR
for e in "${examples[@]}"; do
  log "example $e"
  run "$e" "$MAIN/examples/$e"
done

log "tools on the bench artifacts"
shopt -s nullglob
# As CI runs them. bench_diff compares wall time against baselines from an
# uninstrumented build, so its threshold is set out of reach: it runs here
# only to be covered.
run validate_bench_json "$MAIN/tools/validate_bench_json" "$ART"/*.json
run coe_report_trace "$MAIN/tools/coe_report" --check-coverage=0.995 \
  "$ART"/TRACE_*.json
run coe_report_xray "$MAIN/tools/coe_report" --check-coverage=0.995 \
  "$ART"/XRAY_*.json
run coe_report_json "$MAIN/tools/coe_report" --json "$ART"/TRACE_*.json
run bench_diff "$MAIN/tools/bench_diff" --threshold=1000 \
  "$ROOT/bench/baselines" "$ART"
shopt -u nullglob

for w in fem_amg amr_sod wave_dist wave_survive; do
  for t in 0 1; do
    log "coebench $w --tiny --trace $t"
    run "coebench_${w}_trace$t" "$CB/coebench" --workload "$w" \
      --tiny --trace "$t"
  done
done

# --- gcov ------------------------------------------------------------------
GCOV=$WORK/coverage-gcov
rm -rf "$GCOV"
mkdir -p "$GCOV"
for tree in main coebench; do
  # One gcov call per object directory; JSON goes to stdout, one document
  # per line.
  find "$WORK/coverage-$tree" -name '*.gcda' -printf '%h\n' | sort -u |
    while read -r dir; do
      (cd "$dir" && gcov --json-format --stdout ./*.gcda 2>/dev/null) || true
    done > "$GCOV/$tree.jsonl"
  # Every compiled src/ object, run or not (for the never-linked list).
  find "$WORK/coverage-$tree" -name '*.gcno' > "$GCOV/$tree.gcno.txt"
done

python3 - "$ROOT" "$GCOV" "$REPORT" <<'PY'
import json, os, sys
from collections import defaultdict

root, gcov_dir, report = sys.argv[1:4]
src = os.path.join(root, "src") + os.sep

lines = defaultdict(dict)    # rel path -> {line: count}
funcs = {}                   # (rel, start, name) -> [count, start, end]
ran_objects = set()          # src/*.cpp with a .gcda in some tree

def rel(path, cwd):
    p = os.path.realpath(os.path.join(cwd, path))
    return p[len(root) + 1:] if p.startswith(src) else None

for tree in ("main", "coebench"):
    with open(os.path.join(gcov_dir, tree + ".jsonl")) as fh:
        for raw in fh:
            raw = raw.strip()
            if not raw:
                continue
            doc = json.loads(raw)
            cwd = doc.get("current_working_directory", "")
            for f in doc.get("files", []):
                r = rel(f["file"], cwd)
                if r is None:
                    continue
                if r.endswith(".cpp"):
                    ran_objects.add(r)
                per = lines[r]
                for ln in f.get("lines", []):
                    n = ln["line_number"]
                    per[n] = per.get(n, 0) + ln["count"]
                for fn in f.get("functions", []):
                    key = (r, fn["start_line"], fn.get("demangled_name",
                                                       fn["name"]))
                    e = funcs.setdefault(key, [0, fn["start_line"],
                                               fn["end_line"]])
                    e[0] += fn["execution_count"]

compiled = set()
for tree in ("main", "coebench"):
    with open(os.path.join(gcov_dir, tree + ".gcno.txt")) as fh:
        for path in fh:
            # .../CMakeFiles/coe_<mod>.dir/<mod>/<file>.cpp.gcno
            part = path.strip().split(".dir/", 1)
            if len(part) == 2 and part[0].split("/")[-1].startswith("coe_"):
                compiled.add("src/" + part[1][:-len(".gcno")])
on_disk = set()
for d, _, files in os.walk(os.path.join(root, "src")):
    for f in files:
        if f.endswith(".cpp"):
            on_disk.add(os.path.relpath(os.path.join(d, f), root))
never_linked = sorted(on_disk - ran_objects)

def ran_between(r, a, b):
    per = lines.get(r, {})
    return any(per.get(n, 0) > 0 for n in range(a, b + 1))

unrun = {r: sorted(n for n, c in per.items() if c == 0)
         for r, per in lines.items()}
dead = sorted({(r, name) for (r, start, name), (c, a, b)
               in funcs.items() if c == 0 and not ran_between(r, a, b)})

def total(suffix):
    exe = sum(len(per) for r, per in lines.items() if r.endswith(suffix))
    miss = sum(len(v) for r, v in unrun.items() if r.endswith(suffix))
    return exe, miss

def ranges(ns):
    out, i = [], 0
    while i < len(ns):
        j = i
        while j + 1 < len(ns) and ns[j + 1] == ns[j] + 1:
            j += 1
        out.append(str(ns[i]) if i == j else "%d-%d" % (ns[i], ns[j]))
        i = j + 1
    return ",".join(out)

with open(report, "w") as out:
    w = out.write
    w("# src/ coverage from the benches, examples, tools and coebench "
      "--tiny\n# (tests excluded). Generated by tools/coverage.sh.\n"
      "# Diff the never-linked files and the never-run functions (keyed "
      "by file\n# and name); the line ranges are for reading only and "
      "shift with any src/\n# edit. The unrun lines of "
      "src/phoenix/driver.cpp and src/xray/merge.cpp,\n# and so the "
      "src/*.cpp total, depend on when survivors detect a kill and\n"
      "# differ between runs.\n\n")
    for suffix in (".cpp", ".hpp"):
        exe, miss = total(suffix)
        w("src/*%s: %d executable lines seen, %d never run\n"
          % (suffix, exe, miss))
    w("src/*.cpp files linked into nothing that ran: %d\n"
      % len(never_linked))
    w("src/ functions never run: %d\n\n" % len(dead))
    w("## src/*.cpp files linked into nothing that ran\n")
    for r in never_linked:
        tag = "" if r in compiled else "  (not compiled)"
        w("%s%s\n" % (r, tag))
    w("\n## Unrun lines per src/ file (count: line ranges)\n")
    for r in sorted(unrun):
        if unrun[r]:
            w("%s  %d: %s\n" % (r, len(unrun[r]), ranges(unrun[r])))
    w("\n## src/ functions never run (file name)\n")
    for r, name in dead:
        w("%s %s\n" % (r, name))
print("[coverage] report: " + report, file=sys.stderr)
PY
exit $status
