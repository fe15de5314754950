#include "os/balloon.h"

#include "sim/log.h"

namespace k2 {
namespace os {

sim::Task<void>
BalloonDriver::deflate(kern::Thread &t, kern::PageRange block)
{
    K2_ASSERT(block.count == kBlockPages);
    const sim::Time start = kernel_.engine().now();

    const std::uint64_t work = kernel_.pageAllocator().addFreeRange(block) +
                               kWorkPerPageDeflate * block.count;
    co_await t.execTime(kPlatformPerPageDeflate * block.count);
    co_await kernel_.chargeKernelWork(t, work);

    deflates.inc();
    deflateUs.sample(sim::toUsec(kernel_.engine().now() - start));
}

sim::Task<bool>
BalloonDriver::inflate(kern::Thread &t, kern::PageRange block)
{
    K2_ASSERT(block.count == kBlockPages);
    const sim::Time start = kernel_.engine().now();

    auto res = kernel_.pageAllocator().reclaimRange(block);
    if (!res.ok) {
        failedInflates.inc();
        co_return false;
    }

    co_await t.execTime(kPlatformPerPageInflate * block.count +
                        kPerMigratedPage * res.migrated);
    co_await kernel_.chargeKernelWork(
        t, res.work + kWorkPerPageInflate * block.count);

    inflates.inc();
    migratedPages.sample(static_cast<double>(res.migrated));
    inflateUs.sample(sim::toUsec(kernel_.engine().now() - start));
    co_return true;
}

} // namespace os
} // namespace k2
