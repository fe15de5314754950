#include "svc/udp.h"

#include <cstring>

#include "obs/metrics.h"
#include "sim/log.h"
#include "snap/io.h"

namespace k2 {
namespace svc {

namespace {

/** Work units for socket create/close. */
constexpr std::uint64_t kSocketWork = 900;
/** Work units of header processing per packet, each direction. */
constexpr std::uint64_t kPacketWork = 350;
/** Function pointers per stack entry (§5.4). */
constexpr std::uint64_t kNetPointers = 3;
/** Loopback "wire" latency (softirq scheduling). */
constexpr sim::Duration kLoopbackDelay = sim::usec(8);

/** Shared-state pages: 0 = socket/port table, 1-2 = sk_buff pools. */
constexpr std::uint64_t kTablePage = 0;
constexpr std::uint64_t kBufPage0 = 1;
constexpr std::uint64_t kBufPages = 2;

} // namespace

UdpStack::UdpStack(os::SystemImage &sys, std::size_t max_sockets)
    : sys_(sys), sockets_(max_sockets)
{
    for (auto &s : sockets_)
        s.readable = std::make_unique<sim::Event>(sys.engine());
    state_ = sys_.createSharedRegion("udp-state",
                                     kBufPage0 + kBufPages);
}

sim::Task<std::int64_t>
UdpStack::socket(kern::Thread &t)
{
    co_await sys_.chargeCrossIsa(t.kernel(), t.core(), kNetPointers);
    co_await sys_.soc().spinlocks().acquire(kSpinlockIdx, t.core());
    co_await state_->touch(t.kernel(), t.core(), kTablePage,
                           os::Access::Write);
    co_await t.exec(kSocketWork);

    std::int64_t result = -static_cast<std::int64_t>(NetStatus::NoBufs);
    for (std::size_t i = 0; i < sockets_.size(); ++i) {
        if (!sockets_[i].used) {
            sockets_[i].used = true;
            sockets_[i].port = 0;
            sockets_[i].rxQueue.clear();
            sockets_[i].rxBytes = 0;
            sockets_[i].readable->reset();
            socketsCreated.inc();
            result = static_cast<std::int64_t>(i);
            break;
        }
    }
    sys_.soc().spinlocks().release(kSpinlockIdx);
    co_return result;
}

int
UdpStack::findByPort(std::uint16_t port) const
{
    for (std::size_t i = 0; i < sockets_.size(); ++i) {
        if (sockets_[i].used && sockets_[i].port == port)
            return static_cast<int>(i);
    }
    return -1;
}

sim::Task<std::int64_t>
UdpStack::bind(kern::Thread &t, int sock, std::uint16_t port)
{
    co_await sys_.chargeCrossIsa(t.kernel(), t.core(), 1);
    if (sock < 0 || static_cast<std::size_t>(sock) >= sockets_.size() ||
        !sockets_[static_cast<std::size_t>(sock)].used) {
        co_return -static_cast<std::int64_t>(NetStatus::BadSocket);
    }
    co_await sys_.soc().spinlocks().acquire(kSpinlockIdx, t.core());
    co_await state_->touch(t.kernel(), t.core(), kTablePage,
                           os::Access::Write);
    co_await t.exec(kPacketWork);

    std::int64_t result;
    if (port == 0) {
        while (findByPort(nextEphemeral_) >= 0)
            ++nextEphemeral_;
        port = nextEphemeral_++;
        if (nextEphemeral_ == 0)
            nextEphemeral_ = 32768;
    }
    if (findByPort(port) >= 0) {
        result = -static_cast<std::int64_t>(NetStatus::AddrInUse);
    } else {
        sockets_[static_cast<std::size_t>(sock)].port = port;
        result = static_cast<std::int64_t>(port);
    }
    sys_.soc().spinlocks().release(kSpinlockIdx);
    co_return result;
}

sim::Task<std::int64_t>
UdpStack::sendTo(kern::Thread &t, int sock, std::uint16_t dst_port,
                 std::uint64_t bytes)
{
    // Synthetic-payload convenience for workload generators.
    if (bytes > kMaxDatagram)
        co_return -static_cast<std::int64_t>(NetStatus::MsgTooBig);
    std::vector<std::uint8_t> data(bytes, 0xD6);
    co_return co_await sendTo(t, sock, dst_port,
                              std::span<const std::uint8_t>(data));
}

sim::Task<std::int64_t>
UdpStack::sendTo(kern::Thread &t, int sock, std::uint16_t dst_port,
                 std::span<const std::uint8_t> payload)
{
    const std::uint64_t bytes = payload.size();
    co_await sys_.chargeCrossIsa(t.kernel(), t.core(), kNetPointers);
    if (sock < 0 || static_cast<std::size_t>(sock) >= sockets_.size() ||
        !sockets_[static_cast<std::size_t>(sock)].used) {
        co_return -static_cast<std::int64_t>(NetStatus::BadSocket);
    }
    if (bytes > kMaxDatagram)
        co_return -static_cast<std::int64_t>(NetStatus::MsgTooBig);

    // Header processing + checksum/copy at memory bandwidth.
    co_await t.exec(kPacketWork);
    const double bw = t.core().spec().memBytesPerSec;
    co_await t.execTime(static_cast<sim::Duration>(
        static_cast<double>(bytes) / bw * 1e12));

    co_await sys_.soc().spinlocks().acquire(kSpinlockIdx, t.core());
    co_await state_->touch(t.kernel(), t.core(), kTablePage,
                           os::Access::Read);
    co_await state_->touch(t.kernel(), t.core(),
                           kBufPage0 + bytesSent.value() % kBufPages,
                           os::Access::Write);
    const int dst = findByPort(dst_port);
    std::int64_t result;
    if (dst < 0) {
        result = -static_cast<std::int64_t>(NetStatus::PortUnreachable);
    } else if (sockets_[static_cast<std::size_t>(dst)].rxBytes + bytes >
               kDefaultRcvBuf) {
        packetsDropped.inc();
        result = -static_cast<std::int64_t>(NetStatus::NoBufs);
    } else {
        packetsSent.inc();
        bytesSent.inc(bytes);
        // Softirq loopback delivery carries the real payload.
        sys_.engine().spawn(deliver(
            dst, std::vector<std::uint8_t>(payload.begin(),
                                           payload.end())));
        result = static_cast<std::int64_t>(bytes);
    }
    sys_.soc().spinlocks().release(kSpinlockIdx);
    co_return result;
}

sim::Task<void>
UdpStack::deliver(int dst_sock, std::vector<std::uint8_t> data)
{
    co_await sys_.engine().sleep(kLoopbackDelay);
    Socket &s = sockets_[static_cast<std::size_t>(dst_sock)];
    if (!s.used)
        co_return; // closed in flight
    s.rxBytes += data.size();
    s.rxQueue.push_back(std::move(data));
    s.readable->set();
}

sim::Task<std::int64_t>
UdpStack::recvFrom(kern::Thread &t, int sock)
{
    co_return co_await recvFrom(t, sock, std::span<std::uint8_t>{});
}

sim::Task<std::int64_t>
UdpStack::recvFrom(kern::Thread &t, int sock,
                   std::span<std::uint8_t> out)
{
    co_await sys_.chargeCrossIsa(t.kernel(), t.core(), kNetPointers);
    if (sock < 0 || static_cast<std::size_t>(sock) >= sockets_.size() ||
        !sockets_[static_cast<std::size_t>(sock)].used) {
        co_return -static_cast<std::int64_t>(NetStatus::BadSocket);
    }
    Socket &s = sockets_[static_cast<std::size_t>(sock)];
    while (s.rxQueue.empty()) {
        s.readable->reset();
        co_await t.wait(*s.readable);
        if (!s.used)
            co_return -static_cast<std::int64_t>(NetStatus::BadSocket);
    }

    co_await state_->touch(t.kernel(), t.core(), kTablePage,
                           os::Access::Read);
    co_await t.exec(kPacketWork);
    std::vector<std::uint8_t> data = std::move(s.rxQueue.front());
    s.rxQueue.pop_front();
    const std::uint64_t bytes = data.size();
    s.rxBytes -= bytes;
    if (!out.empty()) {
        std::memcpy(out.data(), data.data(),
                    std::min<std::size_t>(out.size(), data.size()));
    }
    // Copy out to the caller's buffer.
    const double bw = t.core().spec().memBytesPerSec;
    co_await t.execTime(static_cast<sim::Duration>(
        static_cast<double>(bytes) / bw * 1e12));
    co_return static_cast<std::int64_t>(bytes);
}

sim::Task<NetStatus>
UdpStack::close(kern::Thread &t, int sock)
{
    co_await sys_.chargeCrossIsa(t.kernel(), t.core(), 1);
    if (sock < 0 || static_cast<std::size_t>(sock) >= sockets_.size() ||
        !sockets_[static_cast<std::size_t>(sock)].used) {
        co_return NetStatus::BadSocket;
    }
    co_await sys_.soc().spinlocks().acquire(kSpinlockIdx, t.core());
    co_await state_->touch(t.kernel(), t.core(), kTablePage,
                           os::Access::Write);
    co_await t.exec(kSocketWork / 2);
    Socket &s = sockets_[static_cast<std::size_t>(sock)];
    s.used = false;
    s.port = 0;
    s.rxQueue.clear();
    s.rxBytes = 0;
    s.readable->set(); // wake any blocked receiver to fail cleanly
    sys_.soc().spinlocks().release(kSpinlockIdx);
    co_return NetStatus::Ok;
}

void
UdpStack::registerMetrics(obs::MetricsRegistry &reg,
                          const std::string &prefix) const
{
    reg.addCounter(prefix + ".packets_sent", packetsSent);
    reg.addCounter(prefix + ".packets_dropped", packetsDropped);
    reg.addCounter(prefix + ".bytes_sent", bytesSent);
    reg.addCounter(prefix + ".sockets_created", socketsCreated);
}

void
UdpStack::snapState(snap::Io &io)
{
    io.pod(nextEphemeral_);
    io.pod(packetsSent);
    io.pod(packetsDropped);
    io.pod(bytesSent);
    io.pod(socketsCreated);

    io.check(sockets_.size(), "UdpStack::sockets");
    for (Socket &s : sockets_) {
        io.pod(s.used);
        io.pod(s.port);
        io.pod(s.rxBytes);
        std::uint64_t n = io.count(s.rxQueue.size());
        if (io.restoring()) {
            s.rxQueue.clear();
            for (std::uint64_t i = 0; i < n; ++i) {
                std::vector<std::uint8_t> dgram;
                io.podVec(dgram);
                s.rxQueue.push_back(std::move(dgram));
            }
        } else {
            for (auto &dgram : s.rxQueue)
                io.podVec(dgram);
        }
        s.readable->snapState(io);
    }
}

} // namespace svc
} // namespace k2
