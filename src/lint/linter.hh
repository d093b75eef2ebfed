/**
 * @file
 * kilolint: project-invariant static analysis.
 *
 * The simulator's credibility rests on invariants the test suite can
 * only probe *dynamically* on the paths it happens to execute: the
 * steady-state hot loop is allocation-free (pinned by a counting
 * operator-new test) and every emitted byte — JSONL rows, traces,
 * checkpoints — is bit-identical across threads, shards and build
 * types (pinned by golden diffs). kilolint encodes those invariants
 * as static rules over the whole source tree, so a violation on a
 * path no golden test covers still fails CI. See src/lint/DESIGN.md
 * for the rule catalog and the rationale mapping each rule to the
 * dynamic test it mirrors.
 *
 * The rule registry follows stats::Registry: every rule is
 * registered exactly once with a name, a description and a severity;
 * duplicate names panic; the set is enumerable (tools/kilolint
 * --list). Findings print as
 *
 *     file:line: [kilolint-<rule>] message
 *
 * and can be suppressed per line with `// kilolint: allow(<rule>)`.
 * Annotations are counted (CI caps them) and any annotation that
 * suppressed nothing is itself reported under the
 * `unused-suppression` rule, so stale exemptions cannot accumulate.
 */

#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/lint/lexer.hh"
#include "src/lint/model.hh"

namespace kilo::lint
{

enum class Severity : uint8_t
{
    Warning,
    Error,
};

const char *severityName(Severity s);

/** One reported rule violation. */
struct Finding
{
    std::string path;
    int line = 0;
    std::string rule;
    Severity severity = Severity::Error;
    std::string message;
};

/** "file:line: [kilolint-<rule>] message" */
std::string findingLine(const Finding &f);

/** One invariant check. Stateless; checks never mutate the rule. */
class Rule
{
  public:
    Rule(std::string name, std::string description, Severity sev)
        : name_(std::move(name)),
          description_(std::move(description)), severity_(sev)
    {}
    virtual ~Rule() = default;

    const std::string &name() const { return name_; }
    const std::string &description() const { return description_; }
    Severity severity() const { return severity_; }

    /** Scope predicate; default checks every file. */
    virtual bool appliesTo(const SourceFile &f) const
    {
        (void)f;
        return true;
    }

    /** Append findings for @p f (severity/rule filled by caller). */
    virtual void check(const SourceFile &f,
                       std::vector<Finding> &out) const = 0;

    /**
     * Tier-1 hook: append findings that need the whole-project model
     * (layering, include cycles, cross-TU stat liveness). Runs once
     * per Analysis, after every file has been lexed. Default:
     * nothing.
     */
    virtual void checkModel(const ProjectModel &m,
                            std::vector<Finding> &out) const
    {
        (void)m;
        (void)out;
    }

  protected:
    /** Convenience: emit one finding tagged with this rule. */
    void report(std::vector<Finding> &out, const SourceFile &f,
                int line, std::string message) const;

    /** Same, for model findings not tied to a lexed file (layer
     *  spec lines). */
    void reportAt(std::vector<Finding> &out, std::string path,
                  int line, std::string message) const;

  private:
    std::string name_;
    std::string description_;
    Severity severity_;
};

/**
 * Ordered rule set; modeled on stats::Registry — register once with
 * name + description + severity, duplicate names panic, enumerable.
 */
class RuleRegistry
{
  public:
    RuleRegistry() = default;
    RuleRegistry(const RuleRegistry &) = delete;
    RuleRegistry &operator=(const RuleRegistry &) = delete;
    RuleRegistry(RuleRegistry &&) = default;
    RuleRegistry &operator=(RuleRegistry &&) = default;

    /** Register a rule; panics when the name is already taken. */
    void add(std::unique_ptr<Rule> rule);

    const std::vector<std::unique_ptr<Rule>> &rules() const
    {
        return rules_;
    }

    /** The rule named @p name, or nullptr. */
    const Rule *find(const std::string &name) const;

    /** Every built-in project-invariant rule, in catalog order. */
    static RuleRegistry builtin();

  private:
    std::vector<std::unique_ptr<Rule>> rules_;
};

/**
 * Register the semantic-tier rules (src/lint/flow_rules.cc):
 * layering, include-cycle, dead-stat. Called by
 * RuleRegistry::builtin(); exposed for registries built by hand.
 */
void addModelRules(RuleRegistry &reg);

/** Aggregated result of linting a set of files. */
struct LintReport
{
    std::vector<Finding> findings;  ///< post-suppression, in scan order
    int filesScanned = 0;
    int suppressionsTotal = 0;  ///< allow() annotations seen
    int suppressionsUsed = 0;   ///< annotations that suppressed >= 1

    bool clean() const { return findings.empty(); }
};

/**
 * The two-tier pipeline: collect every file first, build one
 * ProjectModel, then run each rule's per-file check() plus its
 * cross-TU checkModel() hook, and apply suppressions last — so a
 * `// kilolint: allow(layering)` on an #include line covers a
 * model finding exactly like a per-file one.
 */
class Analysis
{
  public:
    /** @p layers: the module DAG; loaded => layering checks. */
    explicit Analysis(const RuleRegistry &rules, LayerSpec layers = {})
        : rules_(rules), layers_(std::move(layers))
    {}

    /** Queue one in-memory buffer. */
    void addSource(std::string path, const std::string &content);

    /**
     * Queue a file, or recursively every .hh/.h/.hpp/.cc/.cpp file
     * under a directory. Traversal is sorted, so finding order is
     * deterministic — the linter holds itself to the reproducibility
     * bar it enforces. Throws std::runtime_error on unreadable paths.
     */
    void addPath(const std::string &path);

    /** Build the model, run every rule, apply suppressions. */
    LintReport run();

  private:
    const RuleRegistry &rules_;
    LayerSpec layers_;
    std::vector<SourceFile> files_;
};

} // namespace kilo::lint
