/**
 * @file
 * A UDP socket stack with loopback delivery (the paper's network
 * service; exercised by the UDP-loopback benchmark of §9.2).
 *
 * Implements sockets, ephemeral/bound ports, datagram send/receive
 * with bounded per-socket receive buffers, and loopback delivery
 * through a modelled softirq. Costs: per-packet header processing,
 * per-byte checksum+copy at the core's memory bandwidth, and
 * socket-table state touches (shadowed service).
 */

#ifndef K2_SVC_UDP_H
#define K2_SVC_UDP_H

#include <cstdint>
#include <deque>
#include <span>
#include <memory>
#include <optional>
#include <vector>

#include "sim/stats.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "os/system.h"

namespace k2 {
namespace svc {

/** UDP result codes. */
enum class NetStatus
{
    Ok = 0,
    BadSocket,
    AddrInUse,
    NoBufs,
    WouldBlock,
    MsgTooBig,
    PortUnreachable,
};

class UdpStack
{
  public:
    static constexpr std::size_t kSpinlockIdx = 3;
    static constexpr std::size_t kMaxDatagram = 65507;
    static constexpr std::size_t kDefaultRcvBuf = 256 * 1024;

    explicit UdpStack(os::SystemImage &sys, std::size_t max_sockets = 64);

    /** Create a socket; returns the socket id or -(NetStatus). */
    sim::Task<std::int64_t> socket(kern::Thread &t);

    /** Bind a socket to a port (0 picks an ephemeral port).
     *  @return The bound port, or -(NetStatus). */
    sim::Task<std::int64_t> bind(kern::Thread &t, int sock,
                                 std::uint16_t port);

    /**
     * Send a datagram with real payload to @p dst_port over loopback.
     * @return Bytes queued, or -(NetStatus).
     */
    sim::Task<std::int64_t> sendTo(kern::Thread &t, int sock,
                                   std::uint16_t dst_port,
                                   std::span<const std::uint8_t> data);

    /**
     * Send @p bytes of synthetic payload (workload-generator
     * convenience).
     */
    sim::Task<std::int64_t> sendTo(kern::Thread &t, int sock,
                                   std::uint16_t dst_port,
                                   std::uint64_t bytes);

    /**
     * Receive one datagram (blocking), copying its payload into
     * @p out (truncating if small). @return The datagram size in
     * bytes, or -(NetStatus).
     */
    sim::Task<std::int64_t> recvFrom(kern::Thread &t, int sock,
                                     std::span<std::uint8_t> out);

    /** Receive one datagram, discarding the payload. */
    sim::Task<std::int64_t> recvFrom(kern::Thread &t, int sock);

    /** Close and release a socket. */
    sim::Task<NetStatus> close(kern::Thread &t, int sock);

    /** @name Statistics. @{ */
    sim::Counter packetsSent;
    sim::Counter packetsDropped;
    sim::Counter bytesSent;
    sim::Counter socketsCreated;

    /** Register stack statistics under "<prefix>.*". */
    void registerMetrics(obs::MetricsRegistry &reg,
                         const std::string &prefix) const;
    /** @} */

    /** Capture/restore: socket table (ports, receive queues), the
     *  ephemeral-port cursor, and stats. */
    void snapState(snap::Io &io);

  private:
    struct Socket
    {
        bool used = false;
        std::uint16_t port = 0;
        std::deque<std::vector<std::uint8_t>> rxQueue;
        std::uint64_t rxBytes = 0;
        std::unique_ptr<sim::Event> readable;
    };

    sim::Task<void> deliver(int dst_sock,
                            std::vector<std::uint8_t> data);

    int findByPort(std::uint16_t port) const;

    os::SystemImage &sys_;
    std::vector<Socket> sockets_;
    std::uint16_t nextEphemeral_ = 32768;
    std::unique_ptr<os::SharedRegion> state_;
};

} // namespace svc
} // namespace k2

#endif // K2_SVC_UDP_H
