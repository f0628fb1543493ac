/**
 * @file
 * The test suite's one guard over the per-process kernel builds
 * (common/dispatch.hpp): it forces a family's build for its scope and
 * restores the previous build when it ends. Routes need no guard: a
 * test sets them in the EdgePcConfig or GemmRoute it passes.
 */

#ifndef EDGEPC_TESTS_BUILD_GUARD_HPP
#define EDGEPC_TESTS_BUILD_GUARD_HPP

#include "common/dispatch.hpp"

namespace edgepc {
namespace test {

class BuildGuard
{
  public:
    BuildGuard(KernelFamily family_, KernelBuild build)
        : family(family_), saved(kernelBuild(family_))
    {
        setKernelBuild(family, build);
    }
    ~BuildGuard() { setKernelBuild(family, saved); }

    BuildGuard(const BuildGuard &) = delete;
    BuildGuard &operator=(const BuildGuard &) = delete;

  private:
    KernelFamily family;
    KernelBuild saved;
};

} // namespace test
} // namespace edgepc

#endif // EDGEPC_TESTS_BUILD_GUARD_HPP
