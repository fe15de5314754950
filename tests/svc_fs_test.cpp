/**
 * @file
 * Filesystem tests: data round trips, directories, error paths, block
 * accounting, and parameterized size sweeps -- run on the baseline
 * system (hardware coherence) for speed; the integration tests cover
 * the shadowed (DSM-backed) configuration.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "workloads/testbed.h"

namespace k2::svc {
namespace {

using kern::Thread;
using sim::Task;

class FsTest : public ::testing::Test
{
  protected:
    FsTest()
        : tb(wl::Testbed::makeLinux())
    {}

    /** Run a body to completion on the system. */
    void
    run(std::function<Task<void>(Thread &)> body)
    {
        tb.sys().spawnNormal(tb.proc(), "t", std::move(body));
        tb.engine().run();
    }

    wl::Testbed tb;
};

TEST_F(FsTest, CreateWriteReadRoundTrip)
{
    run([&](Thread &t) -> Task<void> {
        auto &fs = tb.fs();
        const std::int64_t fd = co_await fs.create(t, "/hello.txt");
        EXPECT_GE(fd, 0);

        std::vector<std::uint8_t> data(10000);
        std::iota(data.begin(), data.end(), 0);
        EXPECT_EQ(co_await fs.write(t, static_cast<int>(fd), data),
                  10000);
        co_await fs.seek(t, static_cast<int>(fd), 0);

        std::vector<std::uint8_t> back(10000, 0);
        EXPECT_EQ(co_await fs.read(t, static_cast<int>(fd), back),
                  10000);
        EXPECT_EQ(back, data);
        EXPECT_EQ(co_await fs.close(t, static_cast<int>(fd)),
                  FsStatus::Ok);

        auto st = co_await fs.stat(t, "/hello.txt");
        EXPECT_TRUE(st.has_value());
        EXPECT_EQ(st->size, 10000u);
        EXPECT_FALSE(st->isDir);
    });
}

TEST_F(FsTest, LargeFileUsesIndirectBlocks)
{
    run([&](Thread &t) -> Task<void> {
        auto &fs = tb.fs();
        const std::int64_t fd = co_await fs.create(t, "/big.bin");
        EXPECT_GE(fd, 0);
        // 1 MB > 12 direct blocks (48 KB): exercises the indirect
        // block.
        std::vector<std::uint8_t> chunk(32768);
        for (std::size_t i = 0; i < chunk.size(); ++i)
            chunk[i] = static_cast<std::uint8_t>(i * 7);
        for (int i = 0; i < 32; ++i) {
            EXPECT_EQ(co_await fs.write(t, static_cast<int>(fd), chunk),
                      32768);
        }
        auto st = co_await fs.stat(t, "/big.bin");
        EXPECT_TRUE(st);
        EXPECT_EQ(st->size, 1048576u);

        // Read back a slice that crosses the direct/indirect boundary.
        co_await fs.seek(t, static_cast<int>(fd), 48 * 1024 - 100);
        std::vector<std::uint8_t> back(200);
        EXPECT_EQ(co_await fs.read(t, static_cast<int>(fd), back), 200);
        for (std::size_t i = 0; i < back.size(); ++i) {
            const std::size_t off = (48 * 1024 - 100 + i) % 32768;
            EXPECT_EQ(back[i], static_cast<std::uint8_t>(off * 7));
        }
        co_await fs.close(t, static_cast<int>(fd));
    });
}

TEST_F(FsTest, DirectoriesNestAndList)
{
    run([&](Thread &t) -> Task<void> {
        auto &fs = tb.fs();
        EXPECT_EQ(co_await fs.mkdir(t, "/a"), FsStatus::Ok);
        EXPECT_EQ(co_await fs.mkdir(t, "/a/b"), FsStatus::Ok);
        const std::int64_t fd = co_await fs.create(t, "/a/b/f.txt");
        EXPECT_GE(fd, 0);
        co_await fs.close(t, static_cast<int>(fd));

        auto st = co_await fs.stat(t, "/a/b");
        EXPECT_TRUE(st);
        EXPECT_TRUE(st->isDir);

        // Non-empty directory cannot be unlinked.
        EXPECT_EQ(co_await fs.unlink(t, "/a/b"), FsStatus::NotEmpty);
        EXPECT_EQ(co_await fs.unlink(t, "/a/b/f.txt"), FsStatus::Ok);
        EXPECT_EQ(co_await fs.unlink(t, "/a/b"), FsStatus::Ok);
        EXPECT_EQ(co_await fs.unlink(t, "/a"), FsStatus::Ok);
    });
}

TEST_F(FsTest, ErrorPaths)
{
    run([&](Thread &t) -> Task<void> {
        auto &fs = tb.fs();
        EXPECT_EQ(co_await fs.open(t, "/nope"),
                  -static_cast<std::int64_t>(FsStatus::NotFound));
        const std::int64_t fd = co_await fs.create(t, "/x");
        EXPECT_GE(fd, 0);
        EXPECT_EQ(co_await fs.create(t, "/x"),
                  -static_cast<std::int64_t>(FsStatus::Exists));
        std::vector<std::uint8_t> buf(10);
        EXPECT_EQ(co_await fs.write(t, 63, buf),
                  -static_cast<std::int64_t>(FsStatus::BadFd));
        EXPECT_EQ(co_await fs.close(t, -1), FsStatus::BadFd);
        EXPECT_EQ(co_await fs.unlink(t, "/nope"), FsStatus::NotFound);
        const std::string long_name(80, 'z');
        EXPECT_EQ(co_await fs.create(t, "/" + long_name),
                  -static_cast<std::int64_t>(FsStatus::NameTooLong));
        co_await fs.close(t, static_cast<int>(fd));
        co_await fs.unlink(t, "/x");
    });
}

TEST_F(FsTest, UnlinkReleasesBlocks)
{
    run([&](Thread &t) -> Task<void> {
        auto &fs = tb.fs();
        // Force the root directory to allocate its entry block first;
        // that block legitimately stays allocated after unlink.
        const std::int64_t warm = co_await fs.create(t, "/warm");
        co_await fs.close(t, static_cast<int>(warm));
        co_await fs.unlink(t, "/warm");

        const auto free0 = fs.freeBlocks();
        const std::int64_t fd = co_await fs.create(t, "/tmp.bin");
        std::vector<std::uint8_t> chunk(65536, 1);
        co_await fs.write(t, static_cast<int>(fd), chunk);
        co_await fs.close(t, static_cast<int>(fd));
        EXPECT_LT(fs.freeBlocks(), free0);
        EXPECT_EQ(co_await fs.unlink(t, "/tmp.bin"), FsStatus::Ok);
        EXPECT_EQ(fs.freeBlocks(), free0);
        EXPECT_EQ(fs.freeInodes(), 1022u); // 1024 - reserved - root
    });
}

TEST_F(FsTest, FillDiskThenNoSpace)
{
    run([&](Thread &t) -> Task<void> {
        auto &fs = tb.fs();
        const std::int64_t fd = co_await fs.create(t, "/fill");
        EXPECT_GE(fd, 0);
        std::vector<std::uint8_t> chunk(1 << 20, 9);
        std::int64_t total = 0;
        for (;;) {
            const std::int64_t got =
                co_await fs.write(t, static_cast<int>(fd), chunk);
            if (got < static_cast<std::int64_t>(chunk.size())) {
                if (got > 0)
                    total += got;
                break;
            }
            total += got;
            // Files are capped at ~4.2 MB by the single indirect
            // block; create more files as needed.
            if (total % (4 << 20) == 0)
                break;
        }
        EXPECT_GT(total, 0);
        co_await fs.close(t, static_cast<int>(fd));
        co_await fs.unlink(t, "/fill");
    });
}

TEST_F(FsTest, PersistenceAcrossReopen)
{
    run([&](Thread &t) -> Task<void> {
        auto &fs = tb.fs();
        const std::int64_t fd = co_await fs.create(t, "/persist");
        std::vector<std::uint8_t> data{1, 2, 3, 4, 5};
        co_await fs.write(t, static_cast<int>(fd), data);
        co_await fs.close(t, static_cast<int>(fd));

        const std::int64_t fd2 = co_await fs.open(t, "/persist");
        EXPECT_GE(fd2, 0);
        std::vector<std::uint8_t> back(5);
        EXPECT_EQ(co_await fs.read(t, static_cast<int>(fd2), back), 5);
        EXPECT_EQ(back, data);
        co_await fs.close(t, static_cast<int>(fd2));
    });
}

/** Parameterized sweep: write/read round trip across sizes spanning
 *  partial blocks, block boundaries, and the indirect boundary. */
class FsSizeSweep : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(FsSizeSweep, RoundTrip)
{
    auto tb = wl::Testbed::makeLinux();
    const std::uint64_t size = GetParam();
    bool done = false;
    tb.sys().spawnNormal(
        tb.proc(), "t", [&](Thread &t) -> Task<void> {
            auto &fs = tb.fs();
            const std::int64_t fd = co_await fs.create(t, "/f");
            EXPECT_GE(fd, 0);
            std::vector<std::uint8_t> data(size);
            for (std::size_t i = 0; i < size; ++i)
                data[i] = static_cast<std::uint8_t>(i * 131 + 7);
            EXPECT_EQ(co_await fs.write(t, static_cast<int>(fd), data),
                      static_cast<std::int64_t>(size));
            co_await fs.seek(t, static_cast<int>(fd), 0);
            std::vector<std::uint8_t> back(size, 0);
            EXPECT_EQ(co_await fs.read(t, static_cast<int>(fd), back),
                      static_cast<std::int64_t>(size));
            EXPECT_EQ(back, data);
            co_await fs.close(t, static_cast<int>(fd));
            done = true;
        });
    tb.engine().run();
    EXPECT_TRUE(done);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, FsSizeSweep,
    ::testing::Values(1, 100, 4095, 4096, 4097, 8192, 40000, 49152,
                      49153, 200000, 1048576));

} // namespace
} // namespace k2::svc
