/**
 * @file
 * Shared CLI parsing for the example binaries.
 *
 * The examples used to funnel argv through std::atoll, which silently
 * wraps negative or garbage input to an enormous size_t and then
 * allocates accordingly. These helpers validate instead: on bad input
 * they print what was wrong plus the usage line and the caller exits
 * with status 2.
 */

#ifndef EDGEPC_EXAMPLES_EXAMPLE_UTIL_HPP
#define EDGEPC_EXAMPLES_EXAMPLE_UTIL_HPP

#include <cerrno>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>

#include "core/config.hpp"

namespace edgepc {
namespace examples {

/**
 * Parse a strictly positive count argument.
 *
 * @param arg Raw argv value.
 * @param name Argument name for diagnostics ("frames", "points", …).
 * @param usage One-line usage string printed on failure.
 * @param out Parsed value (untouched on failure).
 * @return true on success; false after printing a diagnostic.
 */
inline bool
parseCount(const char *arg, const char *name, const std::string &usage,
           std::size_t &out)
{
    errno = 0;
    char *end = nullptr;
    const long long value = std::strtoll(arg, &end, 10);
    if (errno != 0 || end == arg || *end != '\0' || value <= 0) {
        std::cerr << "error: " << name << " must be a positive integer "
                  << "(got '" << arg << "')\nusage: " << usage << "\n";
        return false;
    }
    out = static_cast<std::size_t>(value);
    return true;
}

/** Parse a strictly positive int argument (epoch counts etc.). */
inline bool
parseCount(const char *arg, const char *name, const std::string &usage,
           int &out)
{
    std::size_t wide = 0;
    if (!parseCount(arg, name, usage, wide) ||
        wide > static_cast<std::size_t>(std::numeric_limits<int>::max())) {
        if (wide > 0) {
            std::cerr << "error: " << name << " is out of range ('"
                      << arg << "')\nusage: " << usage << "\n";
        }
        return false;
    }
    out = static_cast<int>(wide);
    return true;
}

/** The dispatch of a run under @p cfg for a banner: "key=value ...". */
inline std::string
dispatchLine(const EdgePcConfig &cfg)
{
    std::string line;
    for (const auto &[key, value] : dispatchSummary(cfg)) {
        line += (line.empty() ? "" : " ") + key + "=" + value;
    }
    return line;
}

} // namespace examples
} // namespace edgepc

#endif // EDGEPC_EXAMPLES_EXAMPLE_UTIL_HPP
