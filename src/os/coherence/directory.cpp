#include "os/coherence/directory.h"

#include "snap/io.h"

namespace k2 {
namespace os {
namespace coherence {

Directory::Directory(ProtocolKind kind, std::size_t num_kernels,
                     std::uint64_t num_pages)
    : kind_(kind), n_(num_kernels), numPages_(num_pages)
{
    K2_ASSERT(kind != ProtocolKind::Rac);
    K2_ASSERT(n_ >= 2 && n_ <= 32);
}

Copy
Directory::born(std::size_t k) const
{
    if (k != 0)
        return Copy::I;
    const bool clean_exclusive =
        kind_ == ProtocolKind::Mesi || kind_ == ProtocolKind::Moesi;
    return clean_exclusive ? Copy::E : Copy::M;
}

Directory::Entry &
Directory::entry(std::uint64_t page)
{
    K2_ASSERT(page < numPages_);
    auto it = entries_.find(page);
    if (it == entries_.end()) {
        Entry e(n_);
        for (std::size_t k = 0; k < n_; ++k)
            e[k] = born(k);
        it = entries_.emplace(page, std::move(e)).first;
    }
    return it->second;
}

Copy
Directory::state(std::size_t k, std::uint64_t page) const
{
    auto it = entries_.find(page);
    return it == entries_.end() ? born(k) : it->second[k];
}

std::size_t
Directory::ownerOf(std::uint64_t page) const
{
    auto it = entries_.find(page);
    if (it == entries_.end())
        return 0;
    const Entry &e = it->second;
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
Directory::targets(const Entry &e, std::size_t k, bool exclusive) const
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
Directory::downgrade(Entry &e, std::size_t t) const
{
    const Copy s = e[t];
    if (s == Copy::M)
        e[t] = kind_ == ProtocolKind::Moesi ? Copy::O : Copy::S;
    else if (s == Copy::E)
        e[t] = Copy::S;
    return (s == Copy::I && kind_ != ProtocolKind::ThreeState)
        ? RepOp::GrantE
        : RepOp::GrantS;
}

bool
Directory::reclaim(Entry &e, std::size_t dead, std::size_t to,
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

void
Directory::snapState(snap::Io &io)
{
    for (std::uint64_t page : io.keys(entries_)) {
        Entry &e = entry(page);
        for (Copy &c : e)
            io.pod(c);
    }
}

} // namespace coherence
} // namespace os
} // namespace k2
