/**
 * @file
 * Dump the registered statistics schema per machine kind.
 *
 *     ./stats_schema            full dump: name, kind, row flag,
 *                               description — one block per machine
 *     ./stats_schema --row      JSONL row key order only (all kinds
 *                               share it by construction)
 *
 * The full dump is checked in as tools/stats_schema.golden and diffed
 * by the golden_stats_schema ctest: renaming a stat, changing its row
 * membership or reordering registrations — anything that would
 * silently move the JSONL schema — fails the build the same way the
 * golden trace catches timing drift. Update the golden file
 * deliberately, in the same commit as the change it blesses (see
 * src/stats/DESIGN.md).
 */

#include <cstdio>
#include <cstring>

#include "src/sim/simulator.hh"
#include "src/wload/synthetic.hh"

using namespace kilo;

namespace
{

void
dumpMachine(const sim::MachineConfig &machine, bool row_only)
{
    // Any workload/memory pair works: registration depends only on
    // the machine kind, never on run content.
    auto workload = wload::makeWorkload("gzip");
    auto core = sim::Simulator::makeCore(machine, *workload,
                                         mem::MemConfig::mem400());
    const auto &defs = core->statsRegistry().defs();

    if (row_only) {
        std::printf("# %s\n", machine.name.c_str());
        for (const auto &def : defs) {
            if (def.inRow)
                std::printf("%s\n", def.name.c_str());
        }
        return;
    }

    std::printf("== %s ==\n", machine.name.c_str());
    for (const auto &def : defs) {
        std::printf("%-22s %-9s %-4s %s\n", def.name.c_str(),
                    stats::kindName(def.kind),
                    def.inRow ? "row" : "-",
                    def.description.c_str());
    }
    std::printf("\n");
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bool row_only = argc > 1 && std::strcmp(argv[1], "--row") == 0;
    if (argc > 1 && !row_only) {
        std::fprintf(stderr, "usage: %s [--row]\n", argv[0]);
        return 2;
    }
    for (const auto &name : sim::MachineConfig::names())
        dumpMachine(sim::MachineConfig::byName(name), row_only);
    return 0;
}
