// Fixture: R10 — getenv in library code outside common/dispatch.cpp.
// Expected finding: edgepc-R10 at the getenv() call line.
#include <cstdlib>

bool
verbose()
{
    return std::getenv("EDGEPC_VERBOSE") != nullptr; // line 8
}
