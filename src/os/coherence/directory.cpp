#include "os/coherence/directory.h"

namespace k2 {
namespace os {
namespace coherence {

Directory::Directory(ProtocolKind kind, std::size_t num_kernels)
    : kind_(kind), n_(num_kernels)
{
    K2_ASSERT(kind != ProtocolKind::Rac);
    K2_ASSERT(n_ >= 2 && n_ <= kMaxKernels);
}

Copies
Directory::born() const
{
    const bool clean_exclusive =
        kind_ == ProtocolKind::Mesi || kind_ == ProtocolKind::Moesi;
    Copies e{}; // All I.
    e[0] = clean_exclusive ? Copy::E : Copy::M;
    return e;
}

std::size_t
Directory::ownerOf(const Copies &e) const
{
    for (std::size_t k = 0; k < n_; ++k) {
        if (e[k] == Copy::M || e[k] == Copy::E || e[k] == Copy::O)
            return k;
    }
    for (std::size_t k = 0; k < n_; ++k) {
        if (e[k] != Copy::I)
            return k;
    }
    return 0;
}

std::uint32_t
Directory::targets(const Copies &e, std::size_t k, bool exclusive) const
{
    std::uint32_t holders = 0;
    for (std::size_t j = 0; j < n_; ++j) {
        if (j != k && e[j] != Copy::I)
            holders |= bit(j);
    }
    if (holders != 0) {
        if (exclusive)
            return holders;
        for (std::size_t j = 0; j < n_; ++j) {
            if ((holders & bit(j)) != 0 &&
                (e[j] == Copy::M || e[j] == Copy::E || e[j] == Copy::O))
                return bit(j);
        }
        return holders & (~holders + 1); // Lowest-index sharer.
    }
    return bit(k == 0 ? 1 : 0);
}

RepOp
Directory::serve(Copies &e, std::size_t t, bool exclusive) const
{
    const Copy s = e[t];
    if (exclusive) {
        e[t] = Copy::I;
        return RepOp::GrantX;
    }
    if (s == Copy::M)
        e[t] = kind_ == ProtocolKind::Moesi ? Copy::O : Copy::S;
    else if (s == Copy::E)
        e[t] = Copy::S;
    return (s == Copy::I && kind_ != ProtocolKind::ThreeState)
        ? RepOp::GrantE
        : RepOp::GrantS;
}

Copy
Directory::granted(RepOp op)
{
    switch (op) {
      case RepOp::GrantS: return Copy::S;
      case RepOp::GrantE: return Copy::E;
      case RepOp::GrantX: return Copy::M;
    }
    K2_PANIC("unknown grant opcode %u", static_cast<unsigned>(op));
}

bool
Directory::reclaim(Copies &e, std::size_t dead, std::size_t to,
                   bool elsewhere) const
{
    if (elsewhere) {
        const bool changed = e[dead] != Copy::I;
        e[dead] = Copy::I;
        return changed;
    }
    // The dirty copy (if any) died with the domain; the replica layer
    // re-syncs content, so only a Modified survivor stays dirty.
    const bool clean_exclusive =
        kind_ == ProtocolKind::Mesi || kind_ == ProtocolKind::Moesi;
    const Copy ns =
        (clean_exclusive && e[to] != Copy::M) ? Copy::E : Copy::M;
    const bool changed = e[to] != ns || e[dead] != Copy::I;
    e[to] = ns;
    e[dead] = Copy::I;
    return changed;
}

} // namespace coherence
} // namespace os
} // namespace k2
