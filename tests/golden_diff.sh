#!/bin/sh
# Golden-output diffs, registered as the golden_* ctests
# (CMakeLists.txt):
#
#     golden_diff.sh <case> <tool-dir> <source-dir>
#
# A case writes only into the current directory; each ctest runs in a
# directory of its own under the build tree, so `ctest -j` is safe.
# Deliberate output changes update the golden file in the same commit.
#
#   stats_schema  registered stat names, kinds, row flags and
#                 descriptions per machine kind: the JSONL schema
#                 contract (src/stats/DESIGN.md). stats::Registry
#                 panics on a duplicate or non-snake_case name while
#                 the dump runs, so every shipped name is checked.
#   pipeview      the default pipeview capture (DKIP-2048 / mcf /
#                 mem-400, 1k ops) in Konata form: pins the capture
#                 hooks, the exporter and the simulated schedule at
#                 once (src/obs/DESIGN.md). Regenerate with
#                 `pipeview --konata tests/data/pipeview_1k.golden`.
#   kilodiff      the audit plane end to end (src/obs/DESIGN.md,
#                 Plane 4): two D-KIP recordings of one spec are
#                 byte-identical and verify against a live re-run; a
#                 one-bit flip is localized to the exact interval and
#                 cycle, matching tests/data/kilodiff_smoke.golden. A
#                 KILO stream is recorded twice, compared and
#                 verified too, so the Analyze path both aging-ROB
#                 machines share is pinned on each.
set -eu

case_name=$1
bin=$2
src=$3

case $case_name in
  stats_schema)
    "$bin/stats_schema" > stats_schema.txt
    diff "$src/tools/stats_schema.golden" stats_schema.txt
    ;;
  pipeview)
    "$bin/pipeview" --konata pipeview.konata --chrome pipeview.json
    diff "$src/tests/data/pipeview_1k.golden" pipeview.konata
    ;;
  kilodiff)
    spec="--machine dkip --workload mcf --mem mem-400 --warmup 1000
          --measure 5000"
    flip="--flip-cycle 25000 --flip-mask 1"
    "$bin/kilodiff" record a.kaud $spec --interval 1000
    "$bin/kilodiff" record a2.kaud $spec --interval 1000
    cmp a.kaud a2.kaud
    "$bin/kilodiff" verify a.kaud $spec
    "$bin/kilodiff" record b.kaud $spec --interval 1000 $flip
    rc=0
    "$bin/kilodiff" compare a.kaud b.kaud > smoke.out 2>&1 || rc=$?
    echo "compare exit $rc" >> smoke.out
    rc=0
    "$bin/kilodiff" bisect a.kaud b.kaud $spec $flip --dump div \
        >> smoke.out 2>&1 || rc=$?
    echo "bisect exit $rc" >> smoke.out
    diff "$src/tests/data/kilodiff_smoke.golden" smoke.out
    test -s div_a.konata
    test -s div_b.json

    kspec="--machine kilo --workload mcf --mem mem-400 --warmup 1000
           --measure 5000"
    "$bin/kilodiff" record k.kaud $kspec --interval 1000
    "$bin/kilodiff" record k2.kaud $kspec --interval 1000
    cmp k.kaud k2.kaud
    "$bin/kilodiff" verify k.kaud $kspec
    ;;
  *)
    echo "golden_diff.sh: unknown case '$case_name'" >&2
    exit 2
    ;;
esac
