#include "src/lint/model.hh"

#include <algorithm>
#include <functional>
#include <sstream>

namespace kilo::lint
{

namespace
{

const char *const kRoots[] = {"src/", "tools/", "bench/",
                              "examples/", "tests/"};

/** Skip a balanced bracket run starting at @p i (tokens[i] must be
 *  @p open); returns the index one past the matching close, or
 *  t.size() when unbalanced. */
size_t
skipBalanced(const std::vector<Token> &t, size_t i, const char *open,
             const char *close)
{
    int depth = 0;
    for (; i < t.size(); ++i) {
        if (isPunct(t[i], open))
            ++depth;
        else if (isPunct(t[i], close) && --depth == 0)
            return i + 1;
    }
    return t.size();
}

bool
isMutatingOp(const Token &t)
{
    if (t.kind != TokKind::Punct)
        return false;
    const std::string &x = t.text;
    // The lexer pairs ++ -- <= >= == != << >> :: -> && ||; compound
    // assignments arrive as op + '=' token pairs ("+" then "="), so
    // checking the single-char op followed by '=' is the caller's
    // job. Here: the tokens that alone imply mutation.
    return x == "++" || x == "--";
}

} // anonymous namespace

std::string
normalizePath(const std::string &path)
{
    for (const char *root : kRoots) {
        size_t n = std::string(root).size();
        size_t pos = 0;
        while ((pos = path.find(root, pos)) != std::string::npos) {
            if (pos == 0 || path[pos - 1] == '/')
                return path.substr(pos);
            pos += n;
        }
    }
    return path;
}

std::string
moduleOf(const std::string &norm_path)
{
    size_t slash = norm_path.find('/');
    if (slash == std::string::npos)
        return "";
    std::string top = norm_path.substr(0, slash);
    if (top != "src")
        return top;
    size_t next = norm_path.find('/', slash + 1);
    if (next == std::string::npos)
        return "";
    return norm_path.substr(slash + 1, next - slash - 1);
}

// ------------------------------------------------------ layer spec

LayerSpec
LayerSpec::parse(const std::string &path, const std::string &text)
{
    LayerSpec spec;
    spec.path = path;
    spec.loaded = true;

    // Declared direct edges, in declaration order for deterministic
    // cycle reporting.
    std::vector<std::string> order;
    std::map<std::string, std::set<std::string>> direct;

    std::istringstream in(text);
    std::string raw;
    int lineno = 0;
    while (std::getline(in, raw)) {
        ++lineno;
        size_t hash = raw.find('#');
        std::string ln =
            hash == std::string::npos ? raw : raw.substr(0, hash);
        // Trim.
        size_t b = ln.find_first_not_of(" \t\r");
        if (b == std::string::npos)
            continue;
        size_t e = ln.find_last_not_of(" \t\r");
        ln = ln.substr(b, e - b + 1);

        size_t colon = ln.find(':');
        if (colon == std::string::npos) {
            spec.errors.push_back(
                {lineno, "expected '<module>: <deps...>'"});
            continue;
        }
        std::string mod = ln.substr(0, colon);
        size_t me = mod.find_last_not_of(" \t");
        mod = me == std::string::npos ? "" : mod.substr(0, me + 1);
        if (mod.empty()) {
            spec.errors.push_back({lineno, "empty module name"});
            continue;
        }
        if (direct.count(mod)) {
            spec.errors.push_back(
                {lineno, "module '" + mod + "' declared twice"});
            continue;
        }
        order.push_back(mod);
        std::set<std::string> &deps = direct[mod];
        std::istringstream rest(ln.substr(colon + 1));
        std::string dep;
        while (rest >> dep) {
            if (dep == mod)
                spec.errors.push_back(
                    {lineno, "module '" + mod + "' lists itself"});
            else
                deps.insert(dep);
        }
    }

    for (const auto &[mod, deps] : direct) {
        for (const std::string &d : deps) {
            if (!direct.count(d))
                spec.errors.push_back(
                    {0, "module '" + mod + "' depends on '" + d +
                            "', which is not declared"});
        }
    }

    // Transitive closure by DFS, with cycle detection over the
    // declared edges (0 = unvisited, 1 = on stack, 2 = done).
    std::map<std::string, int> state;
    std::vector<std::string> stack;
    bool cycle = false;

    std::function<void(const std::string &)> close =
        [&](const std::string &mod) {
            state[mod] = 1;
            stack.push_back(mod);
            auto it = direct.find(mod);
            std::set<std::string> &out = spec.allowed[mod];
            out.insert(mod);
            if (it != direct.end()) {
                for (const std::string &d : it->second) {
                    if (state[d] == 1) {
                        if (!cycle) {
                            std::string msg = "layer cycle: ";
                            auto from = std::find(stack.begin(),
                                                  stack.end(), d);
                            for (auto s = from; s != stack.end();
                                 ++s)
                                msg += *s + " -> ";
                            msg += d;
                            spec.errors.push_back({0, msg});
                        }
                        cycle = true;
                        continue;
                    }
                    if (state[d] == 0 && direct.count(d))
                        close(d);
                    out.insert(d);
                    auto dit = spec.allowed.find(d);
                    if (dit != spec.allowed.end())
                        out.insert(dit->second.begin(),
                                   dit->second.end());
                }
            }
            stack.pop_back();
            state[mod] = 2;
        };

    for (const std::string &mod : order)
        if (state[mod] == 0)
            close(mod);

    return spec;
}

// ----------------------------------------------- function bodies

/** Keywords that look like `name (` but never open a function. */
static bool
controlKeyword(const std::string &s)
{
    static const std::set<std::string> kw = {
        "if",       "for",          "while",    "switch",
        "catch",    "return",       "sizeof",   "alignof",
        "decltype", "static_assert", "new",     "delete",
        "throw",    "case",         "defined",  "alignas",
        "operator", "noexcept",     "requires", "assert"};
    return kw.count(s) != 0;
}

std::vector<std::string>
enclosingFunctions(const SourceFile &f)
{
    const auto &t = f.tokens;
    std::vector<std::string> out(t.size());

    struct Open
    {
        std::string name;
        int depth;  ///< brace depth at which the body opened
    };
    std::vector<Open> stack;
    int depth = 0;

    std::string pendingName;
    size_t pendingBody = size_t(-1);

    for (size_t i = 0; i < t.size(); ++i) {
        if (!stack.empty())
            out[i] = stack.back().name;

        const Token &tok = t[i];
        if (tok.kind == TokKind::Punct) {
            if (tok.text == "{") {
                if (i == pendingBody) {
                    stack.push_back(Open{pendingName, depth});
                    pendingBody = size_t(-1);
                }
                ++depth;
                continue;
            }
            if (tok.text == "}") {
                --depth;
                if (!stack.empty() && depth <= stack.back().depth)
                    stack.pop_back();
                continue;
            }
        }

        if (!stack.empty() || pendingBody != size_t(-1))
            continue;
        if (tok.kind != TokKind::Identifier ||
            controlKeyword(tok.text) ||
            !isPunct(at(t, i + 1), "("))
            continue;

        // Match the parameter list.
        size_t j = i + 1;
        int paren = 0;
        bool balanced = false;
        for (; j < t.size(); ++j) {
            if (isPunct(t[j], "(")) {
                ++paren;
            } else if (isPunct(t[j], ")")) {
                if (--paren == 0) {
                    balanced = true;
                    break;
                }
            } else if (isPunct(t[j], "{") ||
                       isPunct(t[j], "}") ||
                       isPunct(t[j], ";")) {
                break;
            }
        }
        if (!balanced)
            continue;

        // Scan the post-parameter tail for a body brace.
        bool inInit = false;
        int nest = 0;
        for (size_t k = j + 1; k < t.size(); ++k) {
            const Token &u = t[k];
            if (u.kind == TokKind::Directive)
                continue;
            if (u.kind == TokKind::Punct) {
                const std::string &x = u.text;
                if (x == "(") {
                    ++nest;
                    continue;
                }
                if (x == ")") {
                    --nest;
                    continue;
                }
                if (x == "{") {
                    if (nest == 0 && inInit) {
                        // `b{y}` member initializer vs the body: an
                        // initializer brace directly follows a name
                        // or template close.
                        const Token &prev = at(t, k - 1);
                        bool init_brace =
                            prev.kind == TokKind::Identifier ||
                            isPunct(prev, ">") ||
                            isPunct(prev, "::");
                        if (init_brace) {
                            ++nest;
                            continue;
                        }
                    }
                    if (nest == 0) {
                        pendingName = tok.text;
                        pendingBody = k;
                        break;
                    }
                    ++nest;
                    continue;
                }
                if (x == "}") {
                    --nest;
                    continue;
                }
                if (nest > 0)
                    continue;
                if (x == ":" && !inInit) {
                    inInit = true;  // constructor initializer list
                    continue;
                }
                if (x == ";" || x == "=")
                    break;  // declaration / = default / variable
                if (x == "->" || x == "::" || x == "<" || x == ">" ||
                    x == "*" || x == "&" || x == "," || x == "[" ||
                    x == "]")
                    continue;
                break;
            }
        }
    }
    return out;
}

// --------------------------------------------------- model build

namespace
{

/** Extract project includes from one file's directive tokens. */
void
collectIncludes(const SourceFile &f, const std::string &norm,
                std::map<std::string, std::vector<IncludeRef>> &out)
{
    std::vector<IncludeRef> &refs = out[norm];
    for (const Token &t : f.tokens) {
        if (t.kind != TokKind::Directive)
            continue;
        // Directive text is normalised: `include "src/foo/bar.hh"`.
        if (t.text.compare(0, 7, "include") != 0)
            continue;
        size_t open = t.text.find('"');
        if (open == std::string::npos)
            continue;  // <system> include
        size_t close = t.text.find('"', open + 1);
        if (close == std::string::npos)
            continue;
        std::string target =
            t.text.substr(open + 1, close - open - 1);
        refs.push_back(IncludeRef{std::move(target), t.line});
    }
}

/** The registry registration methods the stats rules key on. */
bool
isRegMethod(const std::string &s)
{
    return s == "counter" || s == "gauge" || s == "gaugeInt" ||
           s == "histogram";
}

/**
 * Extract registration sites and the token ranges of their argument
 * lists (so the update scan can exclude the `&field` binding at the
 * registration itself).
 */
void
collectStatRegs(const SourceFile &f, const std::string &norm,
                std::vector<StatReg> &out,
                std::vector<std::pair<size_t, size_t>> &arg_ranges)
{
    const auto &t = f.tokens;
    for (size_t i = 0; i + 2 < t.size(); ++i) {
        if (t[i].kind != TokKind::Identifier ||
            !isRegMethod(t[i].text))
            continue;
        const Token &prev = at(t, i ? i - 1 : t.size());
        if (!(isPunct(prev, ".") || isPunct(prev, "->")))
            continue;
        if (!isPunct(t[i + 1], "(") ||
            t[i + 2].kind != TokKind::String)
            continue;

        size_t close = skipBalanced(t, i + 1, "(", ")");
        StatReg reg;
        reg.name = t[i + 2].text;
        reg.method = t[i].text;
        reg.file = norm;
        reg.line = t[i + 2].line;

        // The bound field: the argument that starts with '&'. Its
        // chain's last identifier at relative bracket depth 0 is the
        // field name (&st.stallSlots[idx] -> stallSlots).
        int depth = 1;
        bool argStart = false;
        for (size_t j = i + 2; j + 1 < close; ++j) {
            if (isPunct(t[j], "(") || isPunct(t[j], "[")) {
                ++depth;
                continue;
            }
            if (isPunct(t[j], ")") || isPunct(t[j], "]")) {
                --depth;
                continue;
            }
            if (depth == 1 && isPunct(t[j], ",")) {
                argStart = true;
                continue;
            }
            if (depth == 1 && argStart && isPunct(t[j], "&")) {
                // Walk the ident chain.
                std::string field;
                size_t k = j + 1;
                while (k < close) {
                    const Token &u = t[k];
                    if (u.kind == TokKind::Identifier) {
                        field = u.text;
                        ++k;
                        continue;
                    }
                    if (isPunct(u, ".") || isPunct(u, "->") ||
                        isPunct(u, "::")) {
                        ++k;
                        continue;
                    }
                    if (isPunct(u, "[")) {
                        k = skipBalanced(t, k, "[", "]");
                        continue;
                    }
                    break;
                }
                reg.field = field;
                break;
            }
            if (depth == 1 && !isPunct(t[j], ","))
                argStart = false;
        }

        arg_ranges.emplace_back(i + 1, close);
        out.push_back(std::move(reg));
        i = close > i ? close - 1 : i;
    }
}

/**
 * Project-wide update scan: identifiers that are mutated (++/--,
 * compound or plain assignment outside a declaration), sampled into
 * (.addSample), or address-taken outside a registration argument
 * list. Anything in this set is "live" for dead-stat purposes.
 */
void
collectUpdates(const SourceFile &f,
               const std::vector<std::pair<size_t, size_t>> &reg_args,
               std::set<std::string> &out)
{
    const auto &t = f.tokens;
    auto inRegArgs = [&](size_t i) {
        for (const auto &[b, e] : reg_args)
            if (i >= b && i < e)
                return true;
        return false;
    };

    for (size_t i = 0; i < t.size(); ++i) {
        const Token &tok = t[i];

        // Prefix ++x / --x: the chain's last identifier mutates.
        if (isMutatingOp(tok)) {
            std::string field;
            size_t k = i + 1;
            while (k < t.size()) {
                const Token &u = t[k];
                if (u.kind == TokKind::Identifier) {
                    field = u.text;
                    ++k;
                    continue;
                }
                if (isPunct(u, ".") || isPunct(u, "->") ||
                    isPunct(u, "::")) {
                    ++k;
                    continue;
                }
                break;
            }
            if (!field.empty())
                out.insert(field);
            continue;
        }

        if (tok.kind != TokKind::Identifier)
            continue;

        // x.sample(...) / x.addSample(...) — histogram feed.
        if ((isPunct(at(t, i + 1), ".") ||
             isPunct(at(t, i + 1), "->")) &&
            at(t, i + 2).kind == TokKind::Identifier &&
            (at(t, i + 2).text == "sample" ||
             at(t, i + 2).text == "addSample") &&
            isPunct(at(t, i + 3), "(")) {
            out.insert(tok.text);
            continue;
        }

        // Postfix / assignment: skip subscripts, then look at the
        // operator. Plain '=' only counts when the identifier is not
        // a declaration's name (previous token is not an identifier
        // or type punctuation), so `uint64_t cycles = 0;` at the
        // declaration does not mark the stat live.
        size_t j = i + 1;
        while (isPunct(at(t, j), "["))
            j = skipBalanced(t, j, "[", "]");
        const Token &op = at(t, j);
        bool mutated = false;
        if (isMutatingOp(op)) {
            mutated = true;
        } else if (op.kind == TokKind::Punct &&
                   (op.text == "+" || op.text == "-" ||
                    op.text == "*" || op.text == "/" ||
                    op.text == "|" || op.text == "&" ||
                    op.text == "^" || op.text == "%") &&
                   isPunct(at(t, j + 1), "=")) {
            mutated = true;
        } else if (isPunct(op, "=") &&
                   !isPunct(at(t, j + 1), "=")) {
            const Token &prev = at(t, i ? i - 1 : t.size());
            bool decl = prev.kind == TokKind::Identifier ||
                        isPunct(prev, "*") ||
                        isPunct(prev, "&") ||
                        isPunct(prev, ">") ||
                        isPunct(prev, "::");
            mutated = !decl;
        }
        if (mutated) {
            out.insert(tok.text);
            continue;
        }

        // Address-taken outside a registration: passed somewhere
        // that may mutate it — conservatively live.
        const Token &prev = at(t, i ? i - 1 : t.size());
        if (isPunct(prev, "&") && !inRegArgs(i)) {
            // Only the chain head matters for `&x`; `&st.f` puts the
            // '&' before `st`, so walk the chain to its last ident.
            std::string field = tok.text;
            size_t k = i + 1;
            while (k < t.size()) {
                const Token &u = t[k];
                if (isPunct(u, ".") || isPunct(u, "->") ||
                    isPunct(u, "::")) {
                    const Token &nx = at(t, k + 1);
                    if (nx.kind != TokKind::Identifier)
                        break;
                    field = nx.text;
                    k += 2;
                    continue;
                }
                break;
            }
            out.insert(field);
        }
    }
}

} // anonymous namespace

ProjectModel
ProjectModel::build(const std::vector<SourceFile> &files,
                    LayerSpec layers)
{
    ProjectModel m;
    m.layers_ = std::move(layers);

    for (const SourceFile &f : files) {
        m.files_.push_back(&f);
        std::string norm = normalizePath(f.path);
        m.scanned_.insert(norm);
        collectIncludes(f, norm, m.includes_);

        // Stats indices only consider src/ files: a test or bench
        // fixture registering or poking a stat must not change what
        // the production tree is judged on.
        bool inSrc = norm.compare(0, 4, "src/") == 0;
        std::vector<std::pair<size_t, size_t>> regArgs;
        if (inSrc) {
            collectStatRegs(f, norm, m.regs_, regArgs);
            collectUpdates(f, regArgs, m.updated_);
        }
    }
    return m;
}

} // namespace kilo::lint
