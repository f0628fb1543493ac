// Fixture: R10 — the one environment parser may read the environment.
// Expected: no edgepc-R10 finding in this file.
#include <cstdlib>

const char *
lookup(const char *name)
{
    return std::getenv(name);
}
