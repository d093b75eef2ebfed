/**
 * @file
 * kilolint — project-invariant static analysis CLI.
 *
 *     kilolint [options] <file-or-dir>...
 *
 *     --list                 print the rule catalog and exit
 *     --max-suppressions N   fail (exit 3) when the tree carries
 *                            more than N allow() annotations, even
 *                            if every one of them fires — the CI
 *                            cap that keeps exemptions scarce
 *     --layers FILE          module-layer DAG spec (src/lint/layers);
 *                            activates the layering rule
 *
 * Exit codes: 0 clean, 1 findings, 2 usage/IO error,
 * 3 suppression cap exceeded.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/lint/linter.hh"

using namespace kilo::lint;

namespace
{

int
usage()
{
    std::fprintf(
        stderr,
        "usage: kilolint [--list] [--max-suppressions N]\n"
        "                [--layers FILE] <file-or-dir>...\n");
    return 2;
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    out = buf.str();
    return true;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bool list = false;
    long maxSuppressions = -1;
    std::vector<std::string> paths;
    std::string layersPath;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--list") {
            list = true;
        } else if (arg == "--max-suppressions") {
            if (++i >= argc)
                return usage();
            char *end = nullptr;
            maxSuppressions = std::strtol(argv[i], &end, 10);
            if (!end || *end || maxSuppressions < 0)
                return usage();
        } else if (arg == "--layers") {
            if (++i >= argc)
                return usage();
            layersPath = argv[i];
        } else if (arg.rfind("--", 0) == 0) {
            return usage();
        } else {
            paths.push_back(std::move(arg));
        }
    }

    RuleRegistry all = RuleRegistry::builtin();

    if (list) {
        for (const auto &r : all.rules()) {
            std::printf("%-24s %-8s %s\n", r->name().c_str(),
                        severityName(r->severity()),
                        r->description().c_str());
        }
        return 0;
    }
    if (paths.empty())
        return usage();

    LayerSpec layers;
    if (!layersPath.empty()) {
        std::string text;
        if (!readFile(layersPath, text)) {
            std::fprintf(stderr,
                         "kilolint: cannot read layer spec %s\n",
                         layersPath.c_str());
            return 2;
        }
        layers = LayerSpec::parse(layersPath, text);
    }

    Analysis analysis(all, std::move(layers));
    LintReport report;
    try {
        for (const auto &p : paths)
            analysis.addPath(p);
        report = analysis.run();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }

    for (const auto &f : report.findings)
        std::printf("%s\n", findingLine(f).c_str());
    std::fprintf(stderr,
                 "kilolint: %d file(s), %zu finding(s), "
                 "%d/%d suppression(s) used\n",
                 report.filesScanned, report.findings.size(),
                 report.suppressionsUsed, report.suppressionsTotal);

    if (maxSuppressions >= 0 &&
        report.suppressionsTotal > maxSuppressions) {
        std::fprintf(stderr,
                     "kilolint: %d suppression(s) exceed the cap of "
                     "%ld — remove one or raise the documented cap\n",
                     report.suppressionsTotal, maxSuppressions);
        return 3;
    }
    return report.findings.empty() ? 0 : 1;
}
