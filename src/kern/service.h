/**
 * @file
 * OS service classification (paper §5.3).
 *
 * Refactoring a mature OS for multiple coherence domains classifies
 * each service by how it is replicated:
 *  - Private: specific to one core type or domain-local resource;
 *    implemented separately per kernel with unrelated state.
 *  - Independent: high performance impact; per-kernel instances with
 *    no shared state, coordinated at the meta level (page allocator,
 *    interrupt management).
 *  - Shadowed: everything else (device drivers, file systems, network
 *    stack); one implementation whose state K2 keeps coherent
 *    transparently through the DSM.
 */

#ifndef K2_KERN_SERVICE_H
#define K2_KERN_SERVICE_H

#include <map>
#include <string>
#include <vector>

namespace k2 {
namespace kern {

enum class ServiceClass
{
    Private,
    Independent,
    Shadowed,
};

class ServiceRegistry
{
  public:
    /** Record @p service as belonging to @p cls. */
    void classify(const std::string &service, ServiceClass cls);

    /** Look up a service; fatal if unknown. */
    ServiceClass of(const std::string &service) const;

    /** All services of a given class, sorted by name. */
    std::vector<std::string> listed(ServiceClass cls) const;

    std::size_t size() const { return map_.size(); }

  private:
    std::map<std::string, ServiceClass> map_;
};

/** The classification K2 applies to the kernel it refactors (§5.3). */
ServiceRegistry defaultK2Registry();

} // namespace kern
} // namespace k2

#endif // K2_KERN_SERVICE_H
