/**
 * @file
 * The baseline: a shared-everything single kernel on the strong
 * domain, as in the paper's evaluation ("Linux can only use the
 * strong core"). The weak domain exists but is left idle (it
 * power-gates shortly after boot), mirroring stock Linux on OMAP4
 * where the Cortex-M3 is held by firmware.
 *
 * Light tasks (spawnNightWatch) run as ordinary threads on the strong
 * domain. Shared regions are backed by hardware cache coherence and
 * cost nothing to touch.
 */

#ifndef K2_BASELINE_LINUX_SYSTEM_H
#define K2_BASELINE_LINUX_SYSTEM_H

#include <memory>

#include "sim/engine.h"
#include "kern/layout.h"
#include "os/system.h"

namespace k2 {
namespace baseline {

struct LinuxConfig
{
    soc::SocConfig soc = soc::omap4Config();
};

class LinuxSystem : public os::SystemImage
{
  public:
    explicit LinuxSystem(LinuxConfig cfg = {});
    ~LinuxSystem() override;

    const char *modelName() const override { return "Linux"; }
    soc::Soc &soc() override { return *soc_; }
    kern::Kernel &kernelAt(soc::DomainId domain) override;
    std::vector<kern::Kernel *> kernels() override;
    kern::Kernel &mainKernel() override { return *kernel_; }
    kern::Kernel &nightWatchKernel() override { return *kernel_; }
    std::unique_ptr<os::SharedRegion>
    createSharedRegion(std::string name, std::uint64_t pages) override;
    kern::Thread *spawnNormal(kern::Process &proc, std::string name,
                              kern::Thread::Body body) override;
    kern::Thread *spawnNightWatch(kern::Process &proc, std::string name,
                                  kern::Thread::Body body) override;
    sim::Task<kern::PageRange>
    allocPages(kern::Thread &t, unsigned order,
               kern::Migrate migrate = kern::Migrate::Movable) override;
    sim::Task<void> freePages(kern::Thread &t,
                              kern::PageRange range) override;

    sim::Engine &ownedEngine() { return engine_; }
    const kern::AddressSpaceLayout &layout() const { return *layout_; }

    void snapState(snap::Io &io) override;

  private:
    sim::Engine engine_;
    std::unique_ptr<soc::Soc> soc_;
    std::unique_ptr<kern::AddressSpaceLayout> layout_;
    std::unique_ptr<kern::Kernel> kernel_;
};

} // namespace baseline
} // namespace k2

#endif // K2_BASELINE_LINUX_SYSTEM_H
