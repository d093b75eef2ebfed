/**
 * @file
 * kilolint's semantic tier: rules over the cross-TU ProjectModel
 * (layering, include cycles, stats liveness).
 *
 * Same philosophy as the token rules in rules.cc: heuristic, zero
 * false positives on this tree, degrade by dropping the check — a
 * stat registration whose bound field the matcher cannot resolve is
 * simply not checked. The dynamic tests stay the authority; these
 * rules exist so a violation on a path no test drives still fails
 * CI with a file:line instead of a golden diff three PRs later.
 */

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/lint/linter.hh"

namespace kilo::lint
{

namespace
{

/** normalized path -> lexed file, for reporting against the path
 *  the user passed in (suppressions key on it). */
std::map<std::string, const SourceFile *>
fileIndex(const ProjectModel &m)
{
    std::map<std::string, const SourceFile *> out;
    for (const SourceFile *f : m.files())
        out.emplace(normalizePath(f->path), f);
    return out;
}

bool
startsWith(const std::string &s, const char *prefix)
{
    return s.compare(0, std::string(prefix).size(), prefix) == 0;
}

// ------------------------------------------------------- layering

class LayeringRule : public Rule
{
  public:
    LayeringRule()
        : Rule("layering",
               "src/ modules include only the layers below them per "
               "the declared DAG in src/lint/layers; an upward "
               "#include couples a foundation layer to its clients",
               Severity::Error)
    {}

    void
    check(const SourceFile &, std::vector<Finding> &) const override
    {}

    void
    checkModel(const ProjectModel &m,
               std::vector<Finding> &out) const override
    {
        const LayerSpec &spec = m.layers();
        for (const LayerSpec::Error &e : spec.errors)
            reportAt(out, spec.path, e.line, e.message);
        if (!spec.loaded)
            return;

        auto files = fileIndex(m);
        std::set<std::string> unknownReported;

        for (const auto &[norm, includes] : m.includes()) {
            if (!startsWith(norm, "src/"))
                continue;  // tools/bench/tests are top-of-stack
            std::string fromMod = moduleOf(norm);
            if (fromMod.empty())
                continue;
            auto fit = files.find(norm);
            const SourceFile *file =
                fit == files.end() ? nullptr : fit->second;
            if (!file)
                continue;

            auto allowedIt = spec.allowed.find(fromMod);
            if (allowedIt == spec.allowed.end()) {
                if (unknownReported.insert(fromMod).second &&
                    !includes.empty()) {
                    report(out, *file, includes.front().line,
                           "module 'src/" + fromMod +
                               "' is not declared in " + spec.path);
                }
                continue;
            }

            for (const IncludeRef &inc : includes) {
                if (!startsWith(inc.target, "src/"))
                    continue;  // system/third-party includes
                std::string toMod = moduleOf(inc.target);
                if (toMod.empty() || toMod == fromMod)
                    continue;
                if (allowedIt->second.count(toMod))
                    continue;
                bool declared = spec.allowed.count(toMod) != 0;
                report(out, *file, inc.line,
                       "src/" + fromMod + " may not include \"" +
                           inc.target + "\": src/" + toMod +
                           (declared
                                ? " is not in its allowed layers ("
                                : " is not declared in (") +
                           spec.path + ")");
            }
        }
    }
};

// -------------------------------------------------- include-cycle

class IncludeCycleRule : public Rule
{
  public:
    IncludeCycleRule()
        : Rule("include-cycle",
               "the project include graph is acyclic at file "
               "granularity; a cycle means neither header can be "
               "understood (or compiled) without the other",
               Severity::Error)
    {}

    void
    check(const SourceFile &, std::vector<Finding> &) const override
    {}

    void
    checkModel(const ProjectModel &m,
               std::vector<Finding> &out) const override
    {
        // Edges only between scanned files, so a dangling include
        // (not lint's business) never manufactures a node.
        const auto &scanned = m.scannedPaths();
        auto files = fileIndex(m);

        // 0 unvisited / 1 on stack / 2 done.
        std::map<std::string, int> state;
        std::vector<std::string> stack;
        std::set<std::string> reportedCycles;

        std::function<void(const std::string &)> dfs =
            [&](const std::string &node) {
                state[node] = 1;
                stack.push_back(node);
                auto it = m.includes().find(node);
                if (it != m.includes().end()) {
                    for (const IncludeRef &inc : it->second) {
                        const std::string &to = inc.target;
                        if (!scanned.count(to))
                            continue;
                        if (state[to] == 2)
                            continue;
                        if (state[to] == 1) {
                            reportCycle(files, node, inc, to, stack,
                                        reportedCycles, out);
                            continue;
                        }
                        dfs(to);
                    }
                }
                stack.pop_back();
                state[node] = 2;
            };

        for (const std::string &node : scanned)
            if (state[node] == 0)
                dfs(node);
    }

  private:
    void
    reportCycle(const std::map<std::string, const SourceFile *> &files,
                const std::string &from, const IncludeRef &inc,
                const std::string &to,
                const std::vector<std::string> &stack,
                std::set<std::string> &reported,
                std::vector<Finding> &out) const
    {
        // The cycle is the stack suffix from `to` plus the back
        // edge. Canonicalize (rotate to the smallest member) so the
        // same cycle found from two entry points reports once.
        auto start = std::find(stack.begin(), stack.end(), to);
        std::vector<std::string> cycle(start, stack.end());
        size_t smallest = 0;
        for (size_t i = 1; i < cycle.size(); ++i)
            if (cycle[i] < cycle[smallest])
                smallest = i;
        std::string key;
        for (size_t i = 0; i < cycle.size(); ++i)
            key += cycle[(smallest + i) % cycle.size()] + ";";
        if (!reported.insert(key).second)
            return;

        std::string msg = "include cycle: ";
        for (const std::string &n : cycle)
            msg += n + " -> ";
        msg += to;
        auto fit = files.find(from);
        if (fit != files.end())
            report(out, *fit->second, inc.line, msg);
        else
            reportAt(out, from, inc.line, msg);
    }
};

// ------------------------------------------------------ dead-stat

class DeadStatRule : public Rule
{
  public:
    DeadStatRule()
        : Rule("dead-stat",
               "a counter/histogram registration binds a field that "
               "is never incremented, assigned or sampled anywhere "
               "in src/ — the stat would report 0 forever (gauges "
               "are derived lambdas and exempt)",
               Severity::Error)
    {}

    void
    check(const SourceFile &, std::vector<Finding> &) const override
    {}

    void
    checkModel(const ProjectModel &m,
               std::vector<Finding> &out) const override
    {
        auto files = fileIndex(m);
        for (const StatReg &reg : m.statRegs()) {
            if (reg.method != "counter" && reg.method != "histogram")
                continue;
            if (reg.field.empty())
                continue;  // unresolvable binding: drop the check
            if (m.fieldUpdated(reg.field))
                continue;
            std::string msg =
                "stat \"" + reg.name + "\" binds field '" +
                reg.field +
                "', which is never updated in src/ — dead stat "
                "(remove the registration or wire the field)";
            auto fit = files.find(reg.file);
            if (fit != files.end())
                report(out, *fit->second, reg.line, msg);
            else
                reportAt(out, reg.file, reg.line, msg);
        }
    }
};

} // anonymous namespace

void
addModelRules(RuleRegistry &reg)
{
    reg.add(std::make_unique<LayeringRule>());
    reg.add(std::make_unique<IncludeCycleRule>());
    reg.add(std::make_unique<DeadStatRule>());
}

} // namespace kilo::lint
