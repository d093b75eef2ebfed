/**
 * @file
 * Comment-, string- and preprocessor-aware C++ tokenizer for kilolint.
 *
 * This is not a compiler front end: kilolint's rules are pattern
 * checks over token streams ("identifier `rand` called as a free
 * function", "string literal at a Registry registration site"), so
 * the lexer only has to get the *boundaries* right — where comments,
 * string/char literals (including raw strings) and preprocessor
 * directives start and end — never the grammar. Everything a rule
 * sees has already had comments stripped and literals reduced to
 * single tokens, which is what makes the rules trivially immune to
 * the classic grep false positives (a banned name inside a comment,
 * a string, or an #ifdef'd-out include).
 *
 * Suppression comments are recognised here as well:
 *
 *     ::read(fd, buf, n);  // kilolint: allow(raw-serialization)
 *
 * A trailing comment suppresses findings on its own line; a comment
 * alone on a line suppresses the line below it. Multiple rules can
 * be listed, comma separated. The linter counts every annotation and
 * flags the ones that suppressed nothing (see linter.hh).
 */

#pragma once

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace kilo::lint
{

/** Lexical class of one token. */
enum class TokKind : uint8_t
{
    Identifier,  ///< identifiers and keywords (text = spelling)
    Number,      ///< numeric literal
    String,      ///< string literal (text = contents, unquoted)
    CharLit,     ///< character literal
    Punct,       ///< operator/punctuator (::, ->, ., {, }, ...)
    Directive,   ///< whole preprocessor directive (text = normalised)
};

/** One token and the 1-based line it starts on. */
struct Token
{
    TokKind kind = TokKind::Punct;
    std::string text;
    int line = 0;
};

/** True when @p t is the punctuator @p text. */
inline bool
isPunct(const Token &t, std::string_view text)
{
    return t.kind == TokKind::Punct && t.text == text;
}

/** tokens[i], or a harmless empty punctuator when out of range. */
inline const Token &
at(const std::vector<Token> &t, size_t i)
{
    static const Token sentinel{};
    return i < t.size() ? t[i] : sentinel;
}

/** A lexed translation unit plus its suppression annotations. */
struct SourceFile
{
    std::string path;     ///< as passed in (display + rule scoping)
    std::vector<Token> tokens;
    bool isHeader = false;  ///< path ends in .hh/.h/.hpp

    /**
     * Suppressions by target line: the set of rule names a
     * `// kilolint: allow(rule, ...)` annotation covers on that line
     * ("*" covers every rule).
     */
    std::map<int, std::set<std::string>> allows;

    /** True when @p line carries an allow() for @p rule. */
    bool allowed(int line, const std::string &rule) const;
};

/**
 * Tokenize @p content. Never throws on malformed input: an
 * unterminated literal or comment simply ends at EOF — lint rules
 * must degrade gracefully on code that does not compile yet.
 */
SourceFile lex(std::string path, const std::string &content);

/**
 * True when @p path contains directory @p dir ("src/core") either at
 * the start or after a '/'. Both "src/core/lsq.cc" and
 * "/root/repo/src/core/lsq.cc" match "src/core".
 */
bool pathInDir(const std::string &path, const std::string &dir);

} // namespace kilo::lint
