#include "baseline/linux_system.h"

#include "sim/log.h"
#include "snap/io.h"

namespace k2 {
namespace baseline {

namespace {

/** Kernel local-region pages (the rest of RAM is the page pool). */
constexpr std::uint64_t kLocalPages = 12288;

/** Hardware coherence makes shared-state touches free. */
class LocalSharedRegion : public os::SharedRegion
{
  public:
    LocalSharedRegion(std::string name, std::uint64_t pages)
        : SharedRegion(std::move(name), pages)
    {}

    sim::Task<void>
    touch(kern::Kernel &, soc::Core &, std::uint64_t page_idx,
          os::Access) override
    {
        K2_ASSERT(page_idx < numPages());
        co_return;
    }
};

} // namespace

LinuxSystem::LinuxSystem(LinuxConfig cfg)
{
    soc_ = std::make_unique<soc::Soc>(engine_, std::move(cfg.soc));
    layout_ = std::make_unique<kern::AddressSpaceLayout>(
        soc_->pageBytes(), soc_->numPages(),
        std::vector<std::pair<std::string, std::uint64_t>>{
            {"linux", kLocalPages}});

    kernel_ = std::make_unique<kern::Kernel>(*soc_, soc::kStrongDomain,
                                             "linux");
    kernel_->boot();
    // The single kernel owns the whole page pool from boot.
    kernel_->pageAllocator().addFreeRange(layout_->global().pages);
}

LinuxSystem::~LinuxSystem() = default;

kern::Kernel &
LinuxSystem::kernelAt(soc::DomainId domain)
{
    if (domain != soc::kStrongDomain)
        K2_PANIC("the baseline has no kernel on domain %u", domain);
    return *kernel_;
}

std::vector<kern::Kernel *>
LinuxSystem::kernels()
{
    return {kernel_.get()};
}

std::unique_ptr<os::SharedRegion>
LinuxSystem::createSharedRegion(std::string name, std::uint64_t pages)
{
    return std::make_unique<LocalSharedRegion>(std::move(name), pages);
}

kern::Thread *
LinuxSystem::spawnNormal(kern::Process &proc, std::string name,
                         kern::Thread::Body body)
{
    return kernel_->spawnThread(&proc, std::move(name),
                                kern::ThreadKind::Normal,
                                std::move(body));
}

kern::Thread *
LinuxSystem::spawnNightWatch(kern::Process &proc, std::string name,
                             kern::Thread::Body body)
{
    // No weak domain: light tasks run as ordinary threads on the
    // strong domain, as in the paper's baseline measurements.
    return spawnNormal(proc, std::move(name), std::move(body));
}

sim::Task<kern::PageRange>
LinuxSystem::allocPages(kern::Thread &t, unsigned order,
                        kern::Migrate migrate)
{
    co_return co_await kernel_->allocPages(t, order, migrate);
}

sim::Task<void>
LinuxSystem::freePages(kern::Thread &t, kern::PageRange range)
{
    co_await kernel_->freePages(t, range);
}

void
LinuxSystem::snapState(snap::Io &io)
{
    engine_.snapState(io);
    soc_->snapState(io);
    kernel_->snapState(io);
    SystemImage::snapState(io);
}

} // namespace baseline
} // namespace k2
