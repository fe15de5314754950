#include "baseline/shared_alloc_system.h"

namespace k2 {
namespace baseline {

namespace {

/** Page keys inside the allocator-state region. */
constexpr std::uint64_t kZonePage = 0;      // zone counters/watermarks
constexpr std::uint64_t kFreeListPage0 = 1; // per-order list heads
constexpr std::uint64_t kFreeListPages = 4;
constexpr std::uint64_t kStructPage0 = 5;   // struct-page array chunks
constexpr std::uint64_t kStructPages = 8;

} // namespace

SharedAllocSystem::SharedAllocSystem(os::K2Config cfg)
    : K2System(std::move(cfg))
{
    state_ = createSharedRegion("shared-page-allocator",
                                kStructPage0 + kStructPages);
}

sim::Task<void>
SharedAllocSystem::touchAllocatorState(kern::Thread &t, unsigned order,
                                       kern::Pfn pfn)
{
    // The hot path of __alloc_pages: zone counters, the free list of
    // the order (and of the order split from), the struct pages of the
    // block and of its buddy. All are written.
    co_await state_->touch(t.kernel(), t.core(), kZonePage,
                           os::Access::Write);
    co_await state_->touch(t.kernel(), t.core(),
                           kFreeListPage0 + order % kFreeListPages,
                           os::Access::Write);
    co_await state_->touch(t.kernel(), t.core(),
                           kFreeListPage0 + (order + 1) % kFreeListPages,
                           os::Access::Write);
    co_await state_->touch(t.kernel(), t.core(),
                           kStructPage0 + (pfn / 1024) % kStructPages,
                           os::Access::Write);
    co_await state_->touch(
        t.kernel(), t.core(),
        kStructPage0 + (pfn / 1024 + 1) % kStructPages,
        os::Access::Write);
}

sim::Task<kern::PageRange>
SharedAllocSystem::allocPages(kern::Thread &t, unsigned order,
                              kern::Migrate migrate)
{
    // One logical allocator (the main kernel's instance) serves both
    // kernels; its state is kept coherent by the DSM.
    auto res = mainKernel().pageAllocator().alloc(order, migrate);
    if (!res)
        co_return kern::PageRange{};
    co_await touchAllocatorState(t, order, res->range.first);
    co_await t.kernel().chargeKernelWork(t, res->work);
    co_return res->range;
}

sim::Task<void>
SharedAllocSystem::freePages(kern::Thread &t, kern::PageRange range)
{
    co_await touchAllocatorState(t, 0, range.first);
    co_await t.kernel().chargeKernelWork(
        t, mainKernel().pageAllocator().free(range.first));
}

} // namespace baseline
} // namespace k2
