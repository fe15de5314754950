#include "os/coherence/protocol.h"

#include "sim/log.h"

namespace k2 {
namespace os {
namespace coherence {

const char *
protocolName(ProtocolKind kind)
{
    switch (kind) {
      case ProtocolKind::TwoState:   return "2state";
      case ProtocolKind::ThreeState: return "3state";
      case ProtocolKind::Mesi:       return "mesi";
      case ProtocolKind::Moesi:      return "moesi";
      case ProtocolKind::Rac:        return "rac";
    }
    K2_PANIC("unknown ProtocolKind %u", static_cast<unsigned>(kind));
}

std::array<ProtocolKind, kNumProtocols>
allProtocols()
{
    return {ProtocolKind::TwoState, ProtocolKind::ThreeState,
            ProtocolKind::Mesi, ProtocolKind::Moesi, ProtocolKind::Rac};
}

std::string
protocolNames()
{
    std::string names;
    for (ProtocolKind kind : allProtocols()) {
        if (!names.empty())
            names += ", ";
        names += protocolName(kind);
    }
    return names;
}

bool
lookupProtocol(const std::string &name, ProtocolKind &out)
{
    for (ProtocolKind kind : allProtocols()) {
        if (name == protocolName(kind)) {
            out = kind;
            return true;
        }
    }
    return false;
}

ProtocolKind
parseProtocol(const std::string &name, std::size_t at)
{
    ProtocolKind kind;
    if (!lookupProtocol(name, kind))
        K2_FATAL("unknown DSM protocol '%s' at char %zu (valid: %s)",
                 name.c_str(), at, protocolNames().c_str());
    return kind;
}

bool
readSharing(ProtocolKind kind)
{
    switch (kind) {
      case ProtocolKind::ThreeState:
      case ProtocolKind::Mesi:
      case ProtocolKind::Moesi:
        return true;
      case ProtocolKind::TwoState:
      case ProtocolKind::Rac:
        return false;
    }
    K2_PANIC("unknown ProtocolKind %u", static_cast<unsigned>(kind));
}

} // namespace coherence
} // namespace os
} // namespace k2
