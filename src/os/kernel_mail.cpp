#include "os/kernel_mail.h"

#include "sim/log.h"

namespace k2 {
namespace os {

KernelIndex::KernelIndex(const std::vector<kern::Kernel *> &kernels)
    : size_(kernels.size())
{
    for (KernelIdx i = 0; i < kernels.size(); ++i) {
        const soc::DomainId d = kernels[i]->domainId();
        if (d >= idx_.size())
            idx_.resize(d + 1, size_);
        K2_ASSERT(idx_[d] == size_); // One kernel a domain.
        idx_[d] = i;
    }
}

KernelIdx
KernelIndex::at(soc::DomainId d) const
{
    const KernelIdx k = find(d);
    if (k < size_)
        return k;
    K2_PANIC("domain %u has no kernel", static_cast<unsigned>(d));
}

sim::Task<void>
chargeMailWrites(kern::Kernel &kern, std::uint64_t n)
{
    soc::Core &core = kern.domain().core(0);
    if (!core.awake())
        co_await core.ensureAwake();
    core.pinActive();
    co_await core.execTime(kern.soc().costs().busAccess * n);
    core.unpinActive();
}

} // namespace os
} // namespace k2
