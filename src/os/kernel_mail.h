/**
 * @file
 * What every kernel-to-kernel mail protocol shares: the kernel a
 * mail's sender domain names, and the charge for a send's mailbox-
 * register writes.
 */

#ifndef K2_OS_KERNEL_MAIL_H
#define K2_OS_KERNEL_MAIL_H

#include <cstdint>
#include <vector>

#include "kern/kernel.h"
#include "os/messages.h"

namespace k2 {
namespace os {

/** Kernel index by domain id, built once from a kernel list. */
class KernelIndex
{
  public:
    /** @p kernels in KernelIdx order, at most one per domain. */
    explicit KernelIndex(const std::vector<kern::Kernel *> &kernels);

    /** The kernel on domain @p d, or size() if there is none. */
    KernelIdx find(soc::DomainId d) const
    {
        return d < idx_.size() ? idx_[d] : size_;
    }
    /** The kernel on domain @p d; panics if there is none. */
    KernelIdx at(soc::DomainId d) const;
    /** Number of kernels indexed. */
    std::size_t size() const { return size_; }

  private:
    std::vector<KernelIdx> idx_; //!< size_ where no kernel.
    std::size_t size_;
};

/**
 * Charge @p n mailbox-register writes as kernel work of @p kern: wake
 * core 0 of its domain if needed and run the writes there, pinned
 * active.
 */
sim::Task<void> chargeMailWrites(kern::Kernel &kern, std::uint64_t n);

} // namespace os
} // namespace k2

#endif // K2_OS_KERNEL_MAIL_H
