#include "rules.hpp"

#include <array>
#include <cstddef>
#include <cstdlib>
#include <optional>

namespace edgepc::lint {
namespace {

constexpr std::size_t npos = static_cast<std::size_t>(-1);

// ------------------------------------------------------ rule scopes
/**
 * The single shared rule-scope configuration. Every path-scoped rule
 * draws its directory predicate from this table instead of keeping a
 * private copy, so adding a subsystem directory is a one-line change
 * and the per-rule columns document exactly which rules patrol it:
 *
 *  data       R1  data-dependent failures must raise(), not fatal()
 *  kernel     R4  float-literal ==/!= bans in hot numeric code
 *  arena      R8  ScratchArena lifetimes (kernels + concurrent subsys)
 *  subsystem  R9  mutex members need rank + capability annotations
 *
 * R10 patrols every row: no getenv outside common/dispatch.cpp.
 */
struct DirScope
{
    const char *dir;
    bool data;
    bool kernel;
    bool arena;
    bool subsystem;
};

constexpr std::array<DirScope, 11> kDirScopes = {{
    // dir            data   kernel arena  subsystem
    {"neighbor/",     true,  true,  true,  true},
    {"sampling/",     true,  true,  true,  true},
    {"pointcloud/",   true,  false, true,  true},
    {"models/",       true,  false, false, true},
    {"datasets/",     true,  false, false, true},
    {"obs/",          true,  false, true,  true},
    {"nn/",           false, true,  true,  true},
    {"geometry/",     false, true,  true,  true},
    {"serve/",        false, false, true,  true},
    {"common/",       false, false, true,  true},
    {"core/",         false, false, true,  true},
}};

bool
pathContains(const std::string &path, const char *segment)
{
    return path.find(segment) != std::string::npos;
}

/** True when @p path lies in a directory whose scope row sets @p pred. */
bool
inScope(const std::string &path, bool DirScope::*pred)
{
    for (const DirScope &scope : kDirScopes) {
        if (scope.*pred && pathContains(path, scope.dir)) {
            return true;
        }
    }
    return false;
}

bool
isHeader(const std::string &path)
{
    const auto dot = path.rfind('.');
    if (dot == std::string::npos) {
        return false;
    }
    const std::string ext = path.substr(dot);
    return ext == ".hpp" || ext == ".h" || ext == ".hh" || ext == ".hxx";
}

/** True for a floating-point literal (1.0, 0.5f, 1e-3, …). */
bool
isFloatLiteral(const Token &tok)
{
    if (tok.kind != TokenKind::Number) {
        return false;
    }
    const std::string &t = tok.text;
    if (t.size() > 1 && t[0] == '0' && (t[1] == 'x' || t[1] == 'X')) {
        return false; // Hex (incl. hex floats): out of scope.
    }
    return t.find('.') != std::string::npos ||
           t.find('e') != std::string::npos ||
           t.find('E') != std::string::npos;
}

/**
 * @p open indexes a '<'; return the index of the matching '>'
 * (treating ">>" as two closers), or npos when unbalanced / too far.
 */
std::size_t
matchAngle(const std::vector<Token> &toks, std::size_t open)
{
    int depth = 0;
    const std::size_t limit = std::min(toks.size(), open + 64);
    for (std::size_t i = open; i < limit; ++i) {
        const Token &t = toks[i];
        if (t.kind != TokenKind::Punct) {
            continue;
        }
        if (t.text == "<") {
            ++depth;
        } else if (t.text == ">") {
            if (--depth == 0) {
                return i;
            }
        } else if (t.text == ">>") {
            depth -= 2;
            if (depth <= 0) {
                return i;
            }
        } else if (t.text == ";" || t.text == "{" || t.text == "}") {
            return npos; // A type never spans a statement boundary.
        }
    }
    return npos;
}

/** @p open indexes a '('; index of the matching ')' or npos. */
std::size_t
matchParen(const std::vector<Token> &toks, std::size_t open)
{
    int depth = 0;
    for (std::size_t i = open; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.kind != TokenKind::Punct) {
            continue;
        }
        if (t.text == "(") {
            ++depth;
        } else if (t.text == ")") {
            if (--depth == 0) {
                return i;
            }
        }
    }
    return npos;
}

/** @p close indexes a ')' or ']'; index of its opener or npos. */
std::size_t
matchBackwards(const std::vector<Token> &toks, std::size_t close)
{
    const std::string closer = toks[close].text;
    const std::string opener = closer == ")" ? "(" : "[";
    int depth = 0;
    for (std::size_t i = close + 1; i-- > 0;) {
        const Token &t = toks[i];
        if (t.kind != TokenKind::Punct) {
            continue;
        }
        if (t.text == closer) {
            ++depth;
        } else if (t.text == opener) {
            if (--depth == 0) {
                return i;
            }
        }
    }
    return npos;
}

/** Index of the token opening the statement containing @p at: the
    first token after the previous ';', '{' or '}'. */
std::size_t
statementStart(const std::vector<Token> &toks, std::size_t at)
{
    for (std::size_t i = at; i-- > 0;) {
        const Token &t = toks[i];
        if (t.kind == TokenKind::Punct &&
            (t.text == ";" || t.text == "{" || t.text == "}")) {
            return i + 1;
        }
    }
    return 0;
}

/**
 * @p at indexes `Result` followed by '<'. When the token run describes
 * a function declaration/definition — `Result<...> [quals::]name(` —
 * return the index of the function-name token; npos otherwise.
 */
std::size_t
resultFunctionName(const std::vector<Token> &toks, std::size_t at)
{
    const std::size_t close = matchAngle(toks, at + 1);
    if (close == npos) {
        return npos;
    }
    // `Result<T>::value()` — qualification on the Result type itself,
    // not a return type. Skip.
    if (close + 1 < toks.size() && toks[close + 1].isPunct("::")) {
        return npos;
    }
    std::size_t i = close + 1;
    std::size_t name = npos;
    while (i < toks.size()) {
        if (toks[i].kind == TokenKind::Ident) {
            name = i;
            ++i;
            if (i < toks.size() && toks[i].isPunct("::")) {
                ++i;
                continue;
            }
            break;
        }
        return npos;
    }
    if (name == npos || i >= toks.size() || !toks[i].isPunct("(")) {
        return npos;
    }
    return name;
}

/** True when the declaration introduced at @p at (`Result` token) has
    a [[nodiscard]] within the same declarator prefix. */
bool
hasNodiscardBefore(const std::vector<Token> &toks, std::size_t at)
{
    const std::size_t lookback = 12;
    for (std::size_t steps = 0; steps < lookback && at-- > 0; ++steps) {
        const Token &t = toks[at];
        if (t.kind == TokenKind::Punct &&
            (t.text == ";" || t.text == "{" || t.text == "}")) {
            return false;
        }
        if (t.isIdent("nodiscard")) {
            return true;
        }
    }
    return false;
}

/**
 * @p at indexes the final identifier of a call whose ')' is directly
 * followed by ';'. True when the whole postfix chain forms an
 * expression statement, i.e. the value is discarded. Walking stops —
 * and the call is treated as used — at `return`, `=`, a cast like
 * `(void)`, or any other non-chain token.
 */
bool
isDiscardedStatement(const std::vector<Token> &toks, std::size_t at)
{
    std::size_t p = at;
    for (;;) {
        if (p == 0) {
            return true; // Chain reaches the start of the file.
        }
        const Token &t = toks[p - 1];
        if (t.kind == TokenKind::Punct &&
            (t.text == ";" || t.text == "{" || t.text == "}")) {
            return true;
        }
        if (t.isIdent("else") || t.isIdent("do")) {
            return true; // `else call();` is still a statement.
        }
        if (t.kind == TokenKind::Punct &&
            (t.text == "." || t.text == "->" || t.text == "::")) {
            // Step over the member-access operator to the object…
            std::size_t q = p - 2;
            if (q + 1 == 0) {
                return true;
            }
            const Token &obj = toks[q];
            if (obj.kind == TokenKind::Ident) {
                p = q;
                continue;
            }
            if (obj.kind == TokenKind::Punct &&
                (obj.text == ")" || obj.text == "]")) {
                const std::size_t open = matchBackwards(toks, q);
                if (open == npos) {
                    return false;
                }
                p = open;
                continue;
            }
            return false;
        }
        // Anything else (`=`, `return`, `(`, `,`, a cast's ')' …)
        // consumes or deliberately discards the value.
        return false;
    }
}

void
addFinding(std::vector<Finding> &findings, const LexedFile &file,
           const Token &tok, const char *rule, std::string message)
{
    findings.push_back(
        Finding{rule, file.path, tok.line, tok.col, std::move(message)});
}

// ---------------------------------------------------------------- R1
void
ruleFatalInDataCode(const LexedFile &file, std::vector<Finding> &out)
{
    if (!inScope(file.path, &DirScope::data)) {
        return;
    }
    const auto &toks = file.tokens;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (!(toks[i].isIdent("fatal") || toks[i].isIdent("panic")) ||
            !toks[i + 1].isPunct("(")) {
            continue;
        }
        if (i > 0 &&
            (toks[i - 1].isPunct(".") || toks[i - 1].isPunct("->"))) {
            continue; // Member function of some other class.
        }
        addFinding(out, file, toks[i], "edgepc-R1",
                   toks[i].text +
                       "() in data-dependent code; use raise() so the "
                       "serving layer can recover (CONTRIBUTING.md: "
                       "error tiers)");
    }
}

// ---------------------------------------------------------------- R2
void
ruleNodiscardDecl(const LexedFile &file, std::vector<Finding> &out)
{
    if (!isHeader(file.path)) {
        return;
    }
    const auto &toks = file.tokens;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (!toks[i].isIdent("Result") || !toks[i + 1].isPunct("<")) {
            continue;
        }
        const std::size_t name = resultFunctionName(toks, i);
        if (name == npos || hasNodiscardBefore(toks, i)) {
            continue;
        }
        addFinding(out, file, toks[name], "edgepc-R2",
                   "Result-returning function '" + toks[name].text +
                       "' must be declared [[nodiscard]]");
    }
}

void
ruleDiscardedResult(const LexedFile &file,
                    const std::set<std::string> &resultFns,
                    std::vector<Finding> &out)
{
    const auto &toks = file.tokens;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (toks[i].kind != TokenKind::Ident ||
            !toks[i + 1].isPunct("(") ||
            resultFns.count(toks[i].text) == 0) {
            continue;
        }
        const std::size_t close = matchParen(toks, i + 1);
        if (close == npos || close + 1 >= toks.size() ||
            !toks[close + 1].isPunct(";")) {
            continue; // Value is consumed by the surrounding context.
        }
        // Declarations (`Result<T> name(…);`) stop the statement walk
        // at the `>` of the return type, so only true calls survive.
        if (!isDiscardedStatement(toks, i)) {
            continue;
        }
        addFinding(out, file, toks[i], "edgepc-R2",
                   "discarded Result from '" + toks[i].text +
                       "'; handle the error or cast to (void) with a "
                       "comment");
    }
}

// ---------------------------------------------------------------- R3
void
ruleRawRng(const LexedFile &file, std::vector<Finding> &out)
{
    if (pathContains(file.path, "common/rng")) {
        return;
    }
    const auto &toks = file.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        const bool isRandCall =
            (t.isIdent("rand") || t.isIdent("srand")) &&
            i + 1 < toks.size() && toks[i + 1].isPunct("(");
        const bool isRandomDevice = t.isIdent("random_device");
        if (!isRandCall && !isRandomDevice) {
            continue;
        }
        addFinding(out, file, t, "edgepc-R3",
                   "'" + t.text +
                       "' is thread-unsafe and breaks seeded "
                       "determinism; use edgepc::Rng (common/rng.hpp)");
    }
}

// --------------------------------------------------------------- R10
/** True when @p path lies in any directory of the scope table. */
bool
inAnyScope(const std::string &path)
{
    for (const DirScope &scope : kDirScopes) {
        if (pathContains(path, scope.dir)) {
            return true;
        }
    }
    return false;
}

void
ruleGetenv(const LexedFile &file, std::vector<Finding> &out)
{
    if (!inAnyScope(file.path) ||
        pathContains(file.path, "common/dispatch.cpp")) {
        return;
    }
    const auto &toks = file.tokens;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        const Token &t = toks[i];
        if ((t.isIdent("getenv") || t.isIdent("secure_getenv")) &&
            toks[i + 1].isPunct("(")) {
            addFinding(out, file, t, "edgepc-R10",
                       "'" + t.text +
                           "' outside common/dispatch.cpp; the "
                           "environment is parsed once there and only "
                           "sets EdgePcConfig defaults (dispatchEnv())");
        }
    }
}

// ---------------------------------------------------------------- R4
void
ruleFloatCompare(const LexedFile &file, std::vector<Finding> &out)
{
    if (!inScope(file.path, &DirScope::kernel)) {
        return;
    }
    const auto &toks = file.tokens;
    for (std::size_t i = 1; i + 1 < toks.size(); ++i) {
        if (!toks[i].isPunct("==") && !toks[i].isPunct("!=")) {
            continue;
        }
        std::size_t rhs = i + 1;
        if ((toks[rhs].isPunct("-") || toks[rhs].isPunct("+")) &&
            rhs + 1 < toks.size()) {
            ++rhs;
        }
        if (!isFloatLiteral(toks[i - 1]) && !isFloatLiteral(toks[rhs])) {
            continue;
        }
        addFinding(out, file, toks[i], "edgepc-R4",
                   "raw " + toks[i].text +
                       " against a floating-point literal in kernel "
                       "code; compare with an epsilon");
    }
}

// ---------------------------------------------------------------- R6
/** Container member calls that may (re)allocate their storage. */
const std::array<const char *, 7> kAllocMembers = {
    "push_back", "emplace_back", "resize", "reserve",
    "insert",    "emplace",      "assign",
};

/** Free functions that allocate. */
const std::array<const char *, 7> kAllocCalls = {
    "malloc",       "calloc",      "realloc",    "aligned_alloc",
    "posix_memalign", "make_unique", "make_shared",
};

template <std::size_t N>
bool
isOneOf(const std::array<const char *, N> &names, const std::string &text)
{
    for (const char *name : names) {
        if (text == name) {
            return true;
        }
    }
    return false;
}

/** True when the comment's first word is the hot-region marker. The
    marker must open the comment, so prose that merely mentions it
    (like this file's own documentation) never creates a region. */
bool
startsWithHotMarker(const std::string &text)
{
    const std::size_t at = text.find_first_not_of(" \t");
    return at != std::string::npos &&
           text.compare(at, 10, "EDGEPC_HOT") == 0;
}

/**
 * The hot region opened by a marker comment is the first braced scope
 * at or after the comment's last line (the loop/lambda/function body
 * the comment annotates), through its matching close. Inside it,
 * operator new, the malloc family, std::vector construction and
 * reallocating container members are all steady-state heap traffic the
 * kernels must route through the ScratchArena instead.
 */
void
ruleHotRegionAllocation(const LexedFile &file, std::vector<Finding> &out)
{
    const auto &toks = file.tokens;
    for (const Comment &marker : file.comments) {
        if (!startsWithHotMarker(marker.text)) {
            continue;
        }
        std::size_t open = npos;
        for (std::size_t i = 0; i < toks.size(); ++i) {
            if (toks[i].line >= marker.endLine && toks[i].isPunct("{")) {
                open = i;
                break;
            }
        }
        if (open == npos) {
            continue;
        }
        std::size_t close = toks.size();
        int depth = 0;
        for (std::size_t i = open; i < toks.size(); ++i) {
            if (toks[i].kind != TokenKind::Punct) {
                continue;
            }
            if (toks[i].text == "{") {
                ++depth;
            } else if (toks[i].text == "}" && --depth == 0) {
                close = i;
                break;
            }
        }
        for (std::size_t i = open + 1; i < close; ++i) {
            const Token &t = toks[i];
            if (t.kind != TokenKind::Ident) {
                continue;
            }
            const bool called =
                i + 1 < close && toks[i + 1].isPunct("(");
            const bool member =
                i > 0 && (toks[i - 1].isPunct(".") ||
                          toks[i - 1].isPunct("->"));
            std::string what;
            if (t.text == "new") {
                what = "operator new";
            } else if (t.text == "vector" && i + 1 < close &&
                       toks[i + 1].isPunct("<")) {
                what = "std::vector construction";
            } else if ((t.text == "Matrix" || t.text == "PointCloud" ||
                        t.text == "QuantizedWeights") &&
                       i + 1 < close &&
                       (toks[i + 1].isPunct("(") ||
                        (toks[i + 1].kind == TokenKind::Ident &&
                         i + 2 < close && toks[i + 2].isPunct("(")))) {
                // The nn/serve idiom: Matrix, PointCloud and
                // QuantizedWeights own heap buffers, so sizing one
                // inside a hot loop is steady-state allocation —
                // gemm/pack scratch belongs in the arena, quantized
                // panels come from the one-time layer cache, and the
                // serving dispatch loop must move frames, never
                // copy-construct them.
                what = t.text == "PointCloud"
                           ? "PointCloud construction"
                           : "nn::" + t.text + " construction";
            } else if (called && member &&
                       isOneOf(kAllocMembers, t.text)) {
                what = "reallocating call '" + t.text + "'";
            } else if (called && !member &&
                       isOneOf(kAllocCalls, t.text)) {
                what = "allocating call '" + t.text + "'";
            }
            if (!what.empty()) {
                addFinding(out, file, t, "edgepc-R6",
                           what +
                               " inside an EDGEPC_HOT region; hot-path "
                               "scratch must come from the ScratchArena");
            }
        }
    }
}

// ---------------------------------------------------------------- R5
void
ruleHeaderHygiene(const LexedFile &file, std::vector<Finding> &out)
{
    if (!isHeader(file.path) || file.tokens.empty()) {
        return;
    }
    const auto &toks = file.tokens;

    // (a) Include guard: the first directive must be `#pragma once` or
    // an `#ifndef G` immediately confirmed by `#define G`.
    bool guarded = false;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].kind != TokenKind::Directive) {
            continue;
        }
        if (toks[i].text == "pragma" && i + 1 < toks.size() &&
            toks[i + 1].isIdent("once")) {
            guarded = true;
        } else if (toks[i].text == "ifndef" && i + 1 < toks.size() &&
                   toks[i + 1].kind == TokenKind::Ident) {
            const std::string &guard = toks[i + 1].text;
            for (std::size_t j = i + 2; j < toks.size(); ++j) {
                if (toks[j].kind != TokenKind::Directive) {
                    continue;
                }
                guarded = toks[j].text == "define" &&
                          j + 1 < toks.size() &&
                          toks[j + 1].text == guard;
                break;
            }
        }
        break; // Only the first directive can open the guard.
    }
    if (!guarded) {
        Finding f{"edgepc-R5", file.path, 1, 1,
                  "header is missing an include guard (#pragma once or "
                  "#ifndef/#define)"};
        out.push_back(std::move(f));
    }

    // (b) `using namespace` leaks into every includer.
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (toks[i].isIdent("using") && toks[i + 1].isIdent("namespace")) {
            addFinding(out, file, toks[i], "edgepc-R5",
                       "'using namespace' in a header leaks into every "
                       "includer");
        }
    }
}

// ------------------------------------------------- R7/R9 mutex scan

/** One mutex(-like) variable declaration: `[std::]mutex name;` or
    `[edgepc::]Mutex name;` (guard objects don't match — they are
    constructed with parens). */
struct MutexDecl
{
    std::size_t nameTok = 0;
    std::string name;
    int line = 0;
    /** True for a raw standard mutex type (std::mutex & friends). */
    bool raw = false;
};

std::vector<MutexDecl>
collectMutexDecls(const LexedFile &file)
{
    std::vector<MutexDecl> out;
    const auto &toks = file.tokens;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.kind != TokenKind::Ident) {
            continue;
        }
        const bool wrapped = t.text == "Mutex";
        const bool raw = t.text == "mutex" || t.text == "shared_mutex" ||
                         t.text == "recursive_mutex" ||
                         t.text == "timed_mutex" ||
                         t.text == "recursive_timed_mutex";
        if (!wrapped && !raw) {
            continue;
        }
        if (toks[i + 1].kind != TokenKind::Ident ||
            !toks[i + 2].isPunct(";")) {
            continue;
        }
        out.push_back(MutexDecl{i + 1, toks[i + 1].text,
                                toks[i + 1].line, raw});
    }
    return out;
}

/** Parse "EDGEPC_LOCK_RANK(n)" opening @p text; nullopt otherwise. */
std::optional<int>
parseLockRankMarker(const std::string &text)
{
    static const std::string kMarker = "EDGEPC_LOCK_RANK(";
    const std::size_t at = text.find_first_not_of(" \t");
    if (at == std::string::npos ||
        text.compare(at, kMarker.size(), kMarker) != 0) {
        return std::nullopt;
    }
    const std::size_t digits = at + kMarker.size();
    const std::size_t close = text.find(')', digits);
    if (close == std::string::npos || close == digits) {
        return std::nullopt;
    }
    const std::string num = text.substr(digits, close - digits);
    for (const char c : num) {
        if (c < '0' || c > '9') {
            return std::nullopt;
        }
    }
    return std::atoi(num.c_str());
}

/** How many lines below its marker comment a mutex declaration may
    sit (rank comments often continue for a couple of prose lines). */
constexpr int kRankWindowLines = 6;

/**
 * Associate each EDGEPC_LOCK_RANK marker with the first mutex
 * declaration at/after it (same line, or within the window below).
 * Returns decl-index -> rank for @p file.
 */
std::map<std::size_t, int>
associateRanks(const LexedFile &file, const std::vector<MutexDecl> &decls)
{
    std::map<std::size_t, int> ranks;
    for (const Comment &comment : file.comments) {
        const std::optional<int> rank = parseLockRankMarker(comment.text);
        if (!rank) {
            continue;
        }
        for (std::size_t d = 0; d < decls.size(); ++d) {
            if (ranks.count(d) != 0) {
                continue;
            }
            if (decls[d].line >= comment.startLine &&
                decls[d].line <= comment.endLine + kRankWindowLines) {
                ranks[d] = *rank;
                break;
            }
        }
    }
    return ranks;
}

// ---------------------------------------------------------------- R7
/** RAII guard types whose construction acquires a mutex. */
const std::array<const char *, 6> kGuardTypes = {
    "lock_guard", "unique_lock",    "scoped_lock",
    "shared_lock", "MutexLock",     "UniqueMutexLock",
};

/** Rank of @p name per the repo-global table; nullopt if unranked. */
std::optional<int>
rankOf(const LintContext &ctx, const std::string &name)
{
    const auto at = ctx.lockRanks.find(name);
    if (at == ctx.lockRanks.end() || at->second.empty()) {
        return std::nullopt;
    }
    return *at->second.begin();
}

/**
 * Lock-rank order within function bodies: a brace-depth-scoped stack
 * of held guards; acquiring a ranked mutex while holding one of equal
 * or lower rank is a deadlock-shaped ordering violation. Manual
 * guard.unlock()/guard.lock() toggles are honoured. Only mutexes with
 * a declared rank participate (R9 chases the undeclared ones).
 */
void
ruleLockRankOrder(const LexedFile &file, const LintContext &ctx,
                  std::vector<Finding> &out)
{
    const auto &toks = file.tokens;

    // Conflicting rank declarations for one repo-global name.
    const std::vector<MutexDecl> decls = collectMutexDecls(file);
    const std::map<std::size_t, int> fileRanks =
        associateRanks(file, decls);
    for (const auto &[d, rank] : fileRanks) {
        const auto at = ctx.lockRanks.find(decls[d].name);
        if (at != ctx.lockRanks.end() && at->second.size() > 1) {
            std::string ranks;
            for (const int r : at->second) {
                ranks += (ranks.empty() ? "" : ", ") + std::to_string(r);
            }
            addFinding(out, file, toks[decls[d].nameTok], "edgepc-R7",
                       "conflicting EDGEPC_LOCK_RANK declarations for "
                       "mutex '" +
                           decls[d].name + "' (ranks " + ranks +
                           "); rank names must be repo-unique");
        }
    }

    struct Held
    {
        std::string guardVar;
        std::string mutexName;
        int rank = 0;
        int depth = 0;
        bool active = true;
    };
    std::vector<Held> held;
    int depth = 0;

    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.kind == TokenKind::Punct) {
            if (t.text == "{") {
                ++depth;
            } else if (t.text == "}") {
                depth = std::max(0, depth - 1);
                while (!held.empty() && held.back().depth > depth) {
                    held.pop_back();
                }
            }
            continue;
        }
        if (t.kind != TokenKind::Ident) {
            continue;
        }

        // Manual unlock()/lock() on a tracked guard variable.
        if (i + 3 < toks.size() && toks[i + 1].isPunct(".") &&
            toks[i + 3].isPunct("(") &&
            (toks[i + 2].isIdent("unlock") ||
             toks[i + 2].isIdent("lock"))) {
            const bool activate = toks[i + 2].text == "lock";
            for (Held &h : held) {
                if (h.guardVar == t.text) {
                    h.active = activate;
                }
            }
        }

        // Guard construction: Guard[<...>] var(mutex[, mutex...]);
        if (!isOneOf(kGuardTypes, t.text)) {
            continue;
        }
        std::size_t j = i + 1;
        if (j < toks.size() && toks[j].isPunct("<")) {
            j = matchAngle(toks, j);
            if (j == npos) {
                continue;
            }
            ++j;
        }
        if (j + 1 >= toks.size() || toks[j].kind != TokenKind::Ident ||
            !toks[j + 1].isPunct("(")) {
            continue;
        }
        const std::string guardVar = toks[j].text;
        const std::size_t close = matchParen(toks, j + 1);
        if (close == npos) {
            continue;
        }

        // Each top-level comma-separated argument names one mutex
        // (its last identifier: `engineMu`, `buf.ringMu`,
        // `b->errorMutex` all resolve to the member name).
        std::vector<std::size_t> acquired;
        int argDepth = 0;
        std::size_t lastIdent = npos;
        for (std::size_t k = j + 2; k <= close; ++k) {
            const Token &a = toks[k];
            if (a.kind == TokenKind::Punct) {
                if (a.text == "(" || a.text == "[" || a.text == "<") {
                    ++argDepth;
                } else if (a.text == ")" || a.text == "]" ||
                           a.text == ">") {
                    --argDepth;
                } else if (a.text == "," && argDepth <= 0) {
                    if (lastIdent != npos) {
                        acquired.push_back(lastIdent);
                    }
                    lastIdent = npos;
                }
                continue;
            }
            if (a.kind == TokenKind::Ident && argDepth <= 0 &&
                k < close) {
                lastIdent = k;
            }
        }
        if (lastIdent != npos) {
            acquired.push_back(lastIdent);
        }

        for (const std::size_t nameTok : acquired) {
            const std::string &mutexName = toks[nameTok].text;
            const std::optional<int> rank = rankOf(ctx, mutexName);
            if (!rank) {
                continue;
            }
            for (const Held &h : held) {
                if (!h.active || h.rank > *rank) {
                    continue;
                }
                addFinding(
                    out, file, t, "edgepc-R7",
                    "acquires '" + mutexName + "' (rank " +
                        std::to_string(*rank) + ") while holding '" +
                        h.mutexName + "' (rank " +
                        std::to_string(h.rank) +
                        "); nested acquisitions must strictly decrease "
                        "in rank (lock hierarchy, DESIGN.md §12)");
            }
            held.push_back(
                Held{guardVar, mutexName, *rank, depth, true});
        }
        i = close;
    }
}

// ---------------------------------------------------------------- R8
/** Annotation macros whose argument "uses" a mutex (R9 coverage). */
const std::array<const char *, 9> kCapabilityAnnotations = {
    "EDGEPC_GUARDED_BY",     "EDGEPC_PT_GUARDED_BY",
    "EDGEPC_REQUIRES",       "EDGEPC_ACQUIRE",
    "EDGEPC_RELEASE",        "EDGEPC_TRY_ACQUIRE",
    "EDGEPC_EXCLUDES",       "EDGEPC_ACQUIRED_BEFORE",
    "EDGEPC_ACQUIRED_AFTER",
};

/**
 * Arena-escape: values derived from a ScratchArena allocation are only
 * valid while the caller's Frame is open, so they must never outlive
 * the function. Tracks (brace-scoped) locals tainted by
 * `arena.alloc<...>` results, arena-backed PointsSoA views and
 * taint-propagating assignments; flags
 *   - `return tainted...;`
 *   - member stores `obj.field = tainted;` / `this->field = tainted;`
 *   - out-parameter stores `*out = tainted;`
 *   - `static ... = tainted;`
 * Known limitation (documented in DESIGN.md §12): stores to members
 * through an implicit `this` are not distinguishable from local
 * assignments at token level and propagate taint instead.
 */
void
ruleArenaEscape(const LexedFile &file, std::vector<Finding> &out)
{
    if (!inScope(file.path, &DirScope::arena)) {
        return;
    }
    const auto &toks = file.tokens;

    std::map<std::string, int> arenaVars; // name -> decl depth
    std::map<std::string, int> tainted;   // name -> decl depth
    arenaVars["arena"] = 0; // The repo-wide naming convention.
    int depth = 0;

    auto eraseDeeper = [&](std::map<std::string, int> &vars) {
        for (auto it = vars.begin(); it != vars.end();) {
            if (it->second > depth) {
                it = vars.erase(it);
            } else {
                ++it;
            }
        }
    };

    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.kind == TokenKind::Punct) {
            if (t.text == "{") {
                ++depth;
            } else if (t.text == "}") {
                depth = std::max(0, depth - 1);
                eraseDeeper(arenaVars);
                eraseDeeper(tainted);
            }
            continue;
        }
        if (t.kind != TokenKind::Ident) {
            continue;
        }

        // Arena handles: `ScratchArena &a = …` / `… = ScratchArena::local()`.
        if (t.text == "ScratchArena" && i + 2 < toks.size()) {
            if (toks[i + 1].isPunct("&") &&
                toks[i + 2].kind == TokenKind::Ident) {
                arenaVars[toks[i + 2].text] = depth;
            }
        }

        // Taint source: `<arena>.alloc<T>(…)`.
        const bool isAllocCall =
            t.text == "alloc" && i >= 2 && i + 1 < toks.size() &&
            (toks[i - 1].isPunct(".") || toks[i - 1].isPunct("->")) &&
            toks[i + 1].isPunct("<") &&
            toks[i - 2].kind == TokenKind::Ident &&
            arenaVars.count(toks[i - 2].text) != 0;

        // Taint source: arena-backed PointsSoA view.
        bool isArenaView = false;
        std::size_t viewName = npos;
        if (t.text == "PointsSoA" && i + 2 < toks.size() &&
            toks[i + 1].kind == TokenKind::Ident &&
            toks[i + 2].isPunct("(")) {
            const std::size_t close = matchParen(toks, i + 2);
            if (close != npos) {
                for (std::size_t k = i + 3; k < close; ++k) {
                    if (toks[k].kind == TokenKind::Ident &&
                        arenaVars.count(toks[k].text) != 0) {
                        isArenaView = true;
                        viewName = i + 1;
                        break;
                    }
                }
            }
        }

        if (isAllocCall || isArenaView) {
            const std::size_t start = statementStart(toks, i);
            if (toks[start].isIdent("return")) {
                addFinding(out, file, toks[start], "edgepc-R8",
                           "returns a ScratchArena-backed value; it "
                           "dangles when the caller's Frame rewinds — "
                           "copy into caller-owned storage instead");
                continue;
            }
            if (isArenaView) {
                tainted[toks[viewName].text] = depth;
                continue;
            }
            // Find the assignment target: `… name = <expr with alloc>`
            // or the ctor form `Type name(<expr with alloc>)`.
            std::size_t target = npos;
            for (std::size_t k = start; k < i; ++k) {
                if (toks[k].isPunct("=") && k > start &&
                    toks[k - 1].kind == TokenKind::Ident) {
                    target = k - 1;
                    break;
                }
            }
            if (target == npos && i >= 2 && start + 2 <= i &&
                toks[start].kind == TokenKind::Ident) {
                // `KHeap heap(arena.alloc<…>(k));` — at least two
                // leading identifiers before the '(' mark a decl.
                for (std::size_t k = start + 1; k + 1 < i; ++k) {
                    if (toks[k].kind == TokenKind::Ident &&
                        toks[k + 1].isPunct("(")) {
                        target = k;
                        break;
                    }
                }
            }
            if (target != npos) {
                tainted[toks[target].text] = depth;
            }
            continue;
        }

        // `return tainted;` — the whole view escapes. Returning a
        // value copied *out* of it (`return scratch.p[0];`) is fine,
        // so the tainted name must be the entire return expression.
        if (t.text == "return" && i + 2 < toks.size() &&
            toks[i + 1].kind == TokenKind::Ident &&
            tainted.count(toks[i + 1].text) != 0 &&
            toks[i + 2].isPunct(";")) {
            addFinding(out, file, t, "edgepc-R8",
                       "returns '" + toks[i + 1].text +
                           "', a ScratchArena-backed value; it dangles "
                           "when the caller's Frame rewinds — copy "
                           "into caller-owned storage instead");
            continue;
        }

        // Stores: `<lhs> = tainted[;.]`.
        if (i + 2 < toks.size() && toks[i + 1].isPunct("=") &&
            toks[i + 2].kind == TokenKind::Ident &&
            tainted.count(toks[i + 2].text) != 0 &&
            (i + 3 >= toks.size() || toks[i + 3].isPunct(";") ||
             toks[i + 3].isPunct("."))) {
            const std::string &src = toks[i + 2].text;
            const Token *before = i > 0 ? &toks[i - 1] : nullptr;
            if (before != nullptr && (before->isPunct(".") ||
                                      before->isPunct("->"))) {
                addFinding(out, file, t, "edgepc-R8",
                           "stores ScratchArena-backed '" + src +
                               "' into a member; it dangles when the "
                               "Frame rewinds — copy instead");
                continue;
            }
            if (before != nullptr && before->isPunct("*")) {
                addFinding(out, file, t, "edgepc-R8",
                           "stores ScratchArena-backed '" + src +
                               "' through an out-parameter; it dangles "
                               "when the Frame rewinds — copy instead");
                continue;
            }
            const std::size_t start = statementStart(toks, i);
            bool isStatic = false;
            for (std::size_t k = start; k < i; ++k) {
                if (toks[k].isIdent("static")) {
                    isStatic = true;
                    break;
                }
            }
            if (isStatic) {
                addFinding(out, file, t, "edgepc-R8",
                           "stores ScratchArena-backed '" + src +
                               "' into a static; it dangles when the "
                               "Frame rewinds — copy instead");
                continue;
            }
            // Plain local assignment propagates the taint.
            tainted[t.text] = depth;
        }
    }
}

// ---------------------------------------------------------------- R9
/**
 * Annotation coverage for mutexes in subsystem code: every mutex
 * member must be an edgepc::Mutex (raw std types defeat the clang
 * thread-safety analysis), declare its lock rank, and actually guard
 * something (at least one capability annotation in the same file must
 * name it). Pre-existing debt rides the baseline ratchet like every
 * other rule.
 */
void
ruleAnnotationCoverage(const LexedFile &file, std::vector<Finding> &out)
{
    if (!inScope(file.path, &DirScope::subsystem)) {
        return;
    }
    // The wrapper definitions themselves (std::mutex member by design).
    if (pathContains(file.path, "thread_annotations")) {
        return;
    }
    const auto &toks = file.tokens;
    const std::vector<MutexDecl> decls = collectMutexDecls(file);
    if (decls.empty()) {
        return;
    }
    const std::map<std::size_t, int> ranks = associateRanks(file, decls);

    // Mutex names used by a capability annotation anywhere in the file.
    std::set<std::string> annotated;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (toks[i].kind != TokenKind::Ident ||
            !isOneOf(kCapabilityAnnotations, toks[i].text) ||
            !toks[i + 1].isPunct("(")) {
            continue;
        }
        const std::size_t close = matchParen(toks, i + 1);
        if (close == npos) {
            continue;
        }
        for (std::size_t k = i + 2; k < close; ++k) {
            if (toks[k].kind == TokenKind::Ident) {
                annotated.insert(toks[k].text);
            }
        }
    }

    for (std::size_t d = 0; d < decls.size(); ++d) {
        const MutexDecl &decl = decls[d];
        const Token &name = toks[decl.nameTok];
        if (decl.raw) {
            addFinding(out, file, name, "edgepc-R9",
                       "raw std mutex '" + decl.name +
                           "' in subsystem code defeats -Wthread-safety; "
                           "use edgepc::Mutex (common/"
                           "thread_annotations.hpp)");
            continue;
        }
        if (ranks.count(d) == 0) {
            addFinding(out, file, name, "edgepc-R9",
                       "mutex '" + decl.name +
                           "' has no EDGEPC_LOCK_RANK(n) comment; every "
                           "mutex declares its place in the lock "
                           "hierarchy (DESIGN.md §12)");
        }
        if (annotated.count(decl.name) == 0) {
            addFinding(out, file, name, "edgepc-R9",
                       "mutex '" + decl.name +
                           "' guards nothing: no EDGEPC_GUARDED_BY/"
                           "EDGEPC_REQUIRES/... annotation in this file "
                           "names it");
        }
    }
}

} // namespace

std::vector<std::pair<std::string, std::string>>
ruleDescriptions()
{
    return {
        {"edgepc-R1",
         "no fatal()/panic() in neighbor/, sampling/, pointcloud/, "
         "models/, datasets/, obs/ — use raise()"},
        {"edgepc-R2",
         "Result-returning functions are [[nodiscard]] and no call "
         "discards a Result"},
        {"edgepc-R3",
         "no rand()/srand()/std::random_device outside common/rng — "
         "use edgepc::Rng"},
        {"edgepc-R4",
         "no raw ==/!= against float literals in kernel code "
         "(neighbor/, sampling/, nn/, geometry/)"},
        {"edgepc-R5",
         "headers carry an include guard and never 'using namespace'"},
        {"edgepc-R6",
         "no heap allocation (new, malloc family, std::vector, "
         "nn::Matrix, PointCloud, push_back/resize/insert/...) inside "
         "EDGEPC_HOT-marked regions (kernel scratch and the serving "
         "dispatch loop)"},
        {"edgepc-R7",
         "nested lock acquisitions follow the declared "
         "EDGEPC_LOCK_RANK(n) hierarchy (strictly decreasing inward); "
         "rank names are repo-unique"},
        {"edgepc-R8",
         "no ScratchArena-derived pointer/span/PointsSoA view escapes "
         "its function (return, member/static/out-param store) — they "
         "dangle when the Frame rewinds"},
        {"edgepc-R9",
         "every mutex member in subsystem code is an edgepc::Mutex "
         "with an EDGEPC_LOCK_RANK(n) comment and at least one "
         "EDGEPC_GUARDED_BY/EDGEPC_REQUIRES user"},
        {"edgepc-R10",
         "no getenv in library code (the rule-scope directories) "
         "outside common/dispatch.cpp, the one environment parser"},
    };
}

void
collectContext(const LexedFile &file, LintContext &ctx)
{
    const auto &toks = file.tokens;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (!toks[i].isIdent("Result") || !toks[i + 1].isPunct("<")) {
            continue;
        }
        const std::size_t name = resultFunctionName(toks, i);
        if (name != npos) {
            ctx.resultFns.insert(toks[name].text);
        }
    }

    const std::vector<MutexDecl> decls = collectMutexDecls(file);
    for (const auto &[d, rank] : associateRanks(file, decls)) {
        ctx.lockRanks[decls[d].name].insert(rank);
    }
}

std::vector<Finding>
runRules(const LexedFile &file, const LintContext &ctx,
         std::size_t &suppressed)
{
    std::vector<Finding> all;
    ruleFatalInDataCode(file, all);
    ruleNodiscardDecl(file, all);
    ruleDiscardedResult(file, ctx.resultFns, all);
    ruleRawRng(file, all);
    ruleFloatCompare(file, all);
    ruleHeaderHygiene(file, all);
    ruleHotRegionAllocation(file, all);
    ruleLockRankOrder(file, ctx, all);
    ruleArenaEscape(file, all);
    ruleAnnotationCoverage(file, all);
    ruleGetenv(file, all);

    std::vector<Finding> kept;
    for (Finding &f : all) {
        const auto at = file.nolint.find(f.line);
        const bool silenced =
            at != file.nolint.end() &&
            (at->second.count(f.rule) != 0 || at->second.count("*") != 0);
        if (silenced) {
            ++suppressed;
        } else {
            kept.push_back(std::move(f));
        }
    }
    return kept;
}

} // namespace edgepc::lint
