#include "kern/service.h"

#include "sim/log.h"

namespace k2 {
namespace kern {

void
ServiceRegistry::classify(const std::string &service, ServiceClass cls)
{
    map_[service] = cls;
}

ServiceClass
ServiceRegistry::of(const std::string &service) const
{
    auto it = map_.find(service);
    if (it == map_.end())
        K2_FATAL("unknown OS service '%s'", service.c_str());
    return it->second;
}

std::vector<std::string>
ServiceRegistry::listed(ServiceClass cls) const
{
    std::vector<std::string> out;
    for (const auto &[name, c] : map_) {
        if (c == cls)
            out.push_back(name);
    }
    return out;
}

ServiceRegistry
defaultK2Registry()
{
    ServiceRegistry reg;
    // Step 1 (§5.3): core-type / domain-local services stay private.
    reg.classify("power-management", ServiceClass::Private);
    reg.classify("exception-handling", ServiceClass::Private);
    // Step 2: complicated, rarely-used global operations are private
    // to the main kernel.
    reg.classify("platform-init", ServiceClass::Private);
    // Step 3: high performance impact => independent instances.
    reg.classify("page-allocator", ServiceClass::Independent);
    reg.classify("interrupt-management", ServiceClass::Independent);
    reg.classify("scheduler", ServiceClass::Independent);
    // Step 4: everything managing platform resources with low-to-
    // moderate performance impact is shadowed.
    reg.classify("dma-driver", ServiceClass::Shadowed);
    reg.classify("block-driver", ServiceClass::Shadowed);
    reg.classify("ext2", ServiceClass::Shadowed);
    reg.classify("udp-stack", ServiceClass::Shadowed);
    return reg;
}

} // namespace kern
} // namespace k2
