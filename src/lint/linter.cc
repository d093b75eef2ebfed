#include "src/lint/linter.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>

#include "src/util/logging.hh"

namespace kilo::lint
{

const char *
severityName(Severity s)
{
    return s == Severity::Error ? "error" : "warning";
}

std::string
findingLine(const Finding &f)
{
    return f.path + ":" + std::to_string(f.line) + ": [kilolint-" +
           f.rule + "] " + f.message;
}

void
Rule::report(std::vector<Finding> &out, const SourceFile &f,
             int line, std::string message) const
{
    reportAt(out, f.path, line, std::move(message));
}

void
Rule::reportAt(std::vector<Finding> &out, std::string path,
               int line, std::string message) const
{
    Finding fd;
    fd.path = std::move(path);
    fd.line = line;
    fd.rule = name_;
    fd.severity = severity_;
    fd.message = std::move(message);
    out.push_back(std::move(fd));
}

void
RuleRegistry::add(std::unique_ptr<Rule> rule)
{
    KILO_ASSERT(rule != nullptr, "null rule registered");
    for (const auto &r : rules_) {
        if (r->name() == rule->name())
            KILO_PANIC("duplicate lint rule '%s'",
                       rule->name().c_str());
    }
    rules_.push_back(std::move(rule));
}

const Rule *
RuleRegistry::find(const std::string &name) const
{
    for (const auto &r : rules_)
        if (r->name() == name)
            return r.get();
    return nullptr;
}

namespace
{

/**
 * Apply one file's allow() annotations to its raw findings: the
 * suppressed ones vanish, used/total counters advance, and stale
 * annotations turn into unused-suppression findings.
 */
void
applySuppressions(const SourceFile &f, std::vector<Finding> &raw,
                  LintReport &report)
{
    std::stable_sort(raw.begin(), raw.end(),
                     [](const Finding &a, const Finding &b) {
                         return a.line < b.line;
                     });

    std::map<int, std::set<std::string>> used;
    for (auto &fd : raw) {
        if (f.allowed(fd.line, fd.rule)) {
            auto &entry = f.allows.find(fd.line)->second;
            used[fd.line].insert(entry.count("*") ? "*" : fd.rule);
            continue;
        }
        report.findings.push_back(std::move(fd));
    }

    for (const auto &[line, rules] : f.allows) {
        report.suppressionsTotal += int(rules.size());
        auto it = used.find(line);
        for (const auto &r : rules) {
            bool fired = it != used.end() && it->second.count(r);
            if (fired) {
                ++report.suppressionsUsed;
                continue;
            }
            Finding fd;
            fd.path = f.path;
            fd.line = line;
            fd.rule = "unused-suppression";
            fd.severity = Severity::Warning;
            fd.message = "kilolint: allow(" + r +
                         ") suppressed nothing; remove it";
            report.findings.push_back(std::move(fd));
        }
    }
}

/** Sorted recursive traversal over lintable files. */
void
visitLintable(const std::string &path,
              const std::function<void(const std::filesystem::path &)>
                  &fn)
{
    namespace fs = std::filesystem;

    auto lintable = [](const fs::path &p) {
        std::string ext = p.extension().string();
        return ext == ".hh" || ext == ".h" || ext == ".hpp" ||
               ext == ".cc" || ext == ".cpp";
    };

    fs::path root(path);
    std::error_code ec;
    if (fs::is_directory(root, ec)) {
        std::vector<fs::path> files;
        for (fs::recursive_directory_iterator it(root), end;
             it != end; ++it) {
            if (it->is_regular_file() && lintable(it->path()))
                files.push_back(it->path());
        }
        std::sort(files.begin(), files.end());
        for (const auto &p : files)
            fn(p);
        return;
    }
    if (fs::is_regular_file(root, ec)) {
        fn(root);
        return;
    }
    throw std::runtime_error("kilolint: no such file or directory: " +
                             path);
}

std::string
readFileOrThrow(const std::filesystem::path &p)
{
    std::ifstream in(p, std::ios::binary);
    if (!in)
        throw std::runtime_error("kilolint: cannot read " +
                                 p.string());
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

} // anonymous namespace

void
Analysis::addSource(std::string path, const std::string &content)
{
    files_.push_back(lex(std::move(path), content));
}

void
Analysis::addPath(const std::string &path)
{
    visitLintable(path, [&](const std::filesystem::path &p) {
        addSource(p.generic_string(), readFileOrThrow(p));
    });
}

LintReport
Analysis::run()
{
    LintReport report;
    report.filesScanned = int(files_.size());

    ProjectModel model = ProjectModel::build(files_, layers_);

    std::vector<Finding> raw;
    for (const auto &rule : rules_.rules()) {
        for (const SourceFile &f : files_) {
            if (rule->appliesTo(f))
                rule->check(f, raw);
        }
        rule->checkModel(model, raw);
    }

    // Suppressions act per file, whichever tier produced the
    // finding. Findings on paths that are not lexed files (the layer
    // spec) cannot carry annotations and pass through.
    std::map<std::string, std::vector<Finding>> byPath;
    for (auto &fd : raw)
        byPath[fd.path].push_back(std::move(fd));

    for (const SourceFile &f : files_) {
        std::vector<Finding> own;
        auto it = byPath.find(f.path);
        if (it != byPath.end())
            own = std::move(it->second);
        byPath.erase(f.path);
        applySuppressions(f, own, report);
    }
    for (auto &[path, rest] : byPath)
        for (auto &fd : rest)
            report.findings.push_back(std::move(fd));

    std::stable_sort(report.findings.begin(), report.findings.end(),
                     [](const Finding &a, const Finding &b) {
                         if (a.path != b.path)
                             return a.path < b.path;
                         if (a.line != b.line)
                             return a.line < b.line;
                         if (a.rule != b.rule)
                             return a.rule < b.rule;
                         return a.message < b.message;
                     });
    return report;
}

} // namespace kilo::lint
