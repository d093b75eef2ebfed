#include "src/lint/lexer.hh"

#include <cctype>

namespace kilo::lint
{

namespace
{

bool
identStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool
identChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/**
 * Parse "kilolint: allow(rule-a, rule-b)" out of one comment body.
 * Returns the rule names (possibly "*"); empty when the comment is
 * not an annotation.
 */
std::set<std::string>
parseAllow(const std::string &comment)
{
    std::set<std::string> rules;
    // Only a comment that *is* an annotation counts; documentation
    // that merely mentions the syntax mid-text does not.
    size_t at = comment.find_first_not_of(" \t");
    if (at == std::string::npos ||
        comment.compare(at, 9, "kilolint:") != 0)
        return rules;
    size_t open = comment.find("allow(", at);
    if (open == std::string::npos)
        return rules;
    size_t close = comment.find(')', open);
    if (close == std::string::npos)
        return rules;
    std::string list =
        comment.substr(open + 6, close - (open + 6));
    std::string cur;
    for (char c : list) {
        if (c == ',') {
            if (!cur.empty())
                rules.insert(cur);
            cur.clear();
        } else if (!std::isspace(static_cast<unsigned char>(c))) {
            cur.push_back(c);
        }
    }
    if (!cur.empty())
        rules.insert(cur);
    return rules;
}

/** Multi-character punctuators the rules care about. */
bool
isPunctPair(char a, char b)
{
    return (a == ':' && b == ':') || (a == '-' && b == '>') ||
           (a == '+' && b == '+') || (a == '-' && b == '-') ||
           (a == '<' && b == '<') || (a == '>' && b == '>') ||
           (a == '&' && b == '&') || (a == '|' && b == '|') ||
           (a == '=' && b == '=') || (a == '!' && b == '=') ||
           (a == '<' && b == '=') || (a == '>' && b == '=');
}

} // anonymous namespace

bool
SourceFile::allowed(int line, const std::string &rule) const
{
    auto it = allows.find(line);
    if (it == allows.end())
        return false;
    return it->second.count(rule) || it->second.count("*");
}

bool
pathInDir(const std::string &path, const std::string &dir)
{
    size_t at = path.find(dir);
    while (at != std::string::npos) {
        bool starts = at == 0 || path[at - 1] == '/';
        bool ends = at + dir.size() == path.size() ||
                    path[at + dir.size()] == '/';
        if (starts && ends)
            return true;
        at = path.find(dir, at + 1);
    }
    return false;
}

SourceFile
lex(std::string path, const std::string &content)
{
    SourceFile f;
    f.path = std::move(path);
    size_t dot = f.path.rfind('.');
    if (dot != std::string::npos) {
        std::string ext = f.path.substr(dot);
        f.isHeader = ext == ".hh" || ext == ".h" || ext == ".hpp";
    }

    const std::string &s = content;
    size_t i = 0;
    int line = 1;
    // Line of the last code token emitted: decides whether a comment
    // annotation targets its own line (trailing) or the next one.
    int lastCodeLine = 0;

    auto recordAllow = [&](const std::string &body, int startLine,
                           int endLine) {
        std::set<std::string> rules = parseAllow(body);
        if (rules.empty())
            return;
        int target =
            lastCodeLine == startLine ? startLine : endLine + 1;
        f.allows[target].insert(rules.begin(), rules.end());
    };

    auto push = [&](TokKind kind, std::string text, int at) {
        lastCodeLine = at;
        f.tokens.push_back(Token{kind, std::move(text), at});
    };

    while (i < s.size()) {
        char c = s[i];

        if (c == '\n') {
            ++line;
            ++i;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c))) {
            ++i;
            continue;
        }

        // ---------------------------------------------- comments
        if (c == '/' && i + 1 < s.size() && s[i + 1] == '/') {
            size_t start = i + 2;
            size_t eol = s.find('\n', start);
            if (eol == std::string::npos)
                eol = s.size();
            recordAllow(s.substr(start, eol - start), line, line);
            i = eol;
            continue;
        }
        if (c == '/' && i + 1 < s.size() && s[i + 1] == '*') {
            int startLine = line;
            size_t end = s.find("*/", i + 2);
            size_t stop = end == std::string::npos ? s.size() : end;
            std::string body = s.substr(i + 2, stop - (i + 2));
            for (char bc : body)
                if (bc == '\n')
                    ++line;
            recordAllow(body, startLine, line);
            i = end == std::string::npos ? s.size() : end + 2;
            continue;
        }

        // ------------------------------------ preprocessor lines
        // Only when '#' is the first code on its source line; a
        // directive token carries the whole (continuation-joined)
        // normalised text, so rules can match "pragma once" without
        // caring about spacing.
        if (c == '#') {
            int startLine = line;
            std::string text;
            ++i;
            bool lastWasSpace = true;
            while (i < s.size()) {
                char d = s[i];
                if (d == '\\' && i + 1 < s.size() &&
                    s[i + 1] == '\n') {
                    ++line;
                    i += 2;
                    continue;
                }
                if (d == '\n')
                    break;
                if (d == '/' && i + 1 < s.size() &&
                    (s[i + 1] == '/' || s[i + 1] == '*'))
                    break; // trailing comment handled by main loop
                if (std::isspace(static_cast<unsigned char>(d))) {
                    if (!lastWasSpace)
                        text.push_back(' ');
                    lastWasSpace = true;
                } else {
                    text.push_back(d);
                    lastWasSpace = false;
                }
                ++i;
            }
            while (!text.empty() && text.back() == ' ')
                text.pop_back();
            push(TokKind::Directive, std::move(text), startLine);
            continue;
        }

        // ------------------------------------------ raw strings
        if (c == 'R' && i + 1 < s.size() && s[i + 1] == '"') {
            size_t open = s.find('(', i + 2);
            if (open != std::string::npos) {
                std::string delim;
                delim.reserve(open - (i + 2) + 2);
                delim.push_back(')');
                delim.append(s, i + 2, open - (i + 2));
                delim.push_back('"');
                size_t close = s.find(delim, open + 1);
                size_t stop =
                    close == std::string::npos ? s.size() : close;
                std::string body =
                    s.substr(open + 1, stop - (open + 1));
                int startLine = line;
                for (char bc : body)
                    if (bc == '\n')
                        ++line;
                push(TokKind::String, std::move(body), startLine);
                i = close == std::string::npos ? s.size()
                                               : close + delim.size();
                continue;
            }
        }

        // --------------------------------- string/char literals
        if (c == '"' || c == '\'') {
            char quote = c;
            std::string body;
            ++i;
            while (i < s.size() && s[i] != quote) {
                if (s[i] == '\\' && i + 1 < s.size()) {
                    body.push_back(s[i]);
                    body.push_back(s[i + 1]);
                    if (s[i + 1] == '\n')
                        ++line;
                    i += 2;
                    continue;
                }
                if (s[i] == '\n') {
                    ++line; // unterminated; tolerate
                    break;
                }
                body.push_back(s[i]);
                ++i;
            }
            if (i < s.size() && s[i] == quote)
                ++i;
            push(quote == '"' ? TokKind::String : TokKind::CharLit,
                 std::move(body), line);
            continue;
        }

        // ---------------------------------------------- numbers
        if (std::isdigit(static_cast<unsigned char>(c)) ||
            (c == '.' && i + 1 < s.size() &&
             std::isdigit(static_cast<unsigned char>(s[i + 1])))) {
            size_t start = i;
            while (i < s.size() &&
                   (identChar(s[i]) || s[i] == '.' || s[i] == '\'' ||
                    ((s[i] == '+' || s[i] == '-') && i > start &&
                     (s[i - 1] == 'e' || s[i - 1] == 'E' ||
                      s[i - 1] == 'p' || s[i - 1] == 'P'))))
                ++i;
            push(TokKind::Number, s.substr(start, i - start), line);
            continue;
        }

        // ------------------------------------------ identifiers
        if (identStart(c)) {
            size_t start = i;
            while (i < s.size() && identChar(s[i]))
                ++i;
            push(TokKind::Identifier, s.substr(start, i - start),
                 line);
            continue;
        }

        // --------------------------------------------- puncts
        if (i + 1 < s.size() && isPunctPair(c, s[i + 1])) {
            push(TokKind::Punct, s.substr(i, 2), line);
            i += 2;
            continue;
        }
        push(TokKind::Punct, std::string(1, c), line);
        ++i;
    }

    return f;
}

} // namespace kilo::lint
