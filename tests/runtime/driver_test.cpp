// Tests for the CMA allocator, the kernel driver emulation and the
// accelerator's context-register protocol.
#include <gtest/gtest.h>

#include "cim/accelerator.hpp"
#include "runtime/cma.hpp"
#include "runtime/driver.hpp"
#include "testing/fixture.hpp"

namespace tdo::rt {
namespace {

TEST(CmaTest, AllocatesContiguousRanges) {
  CmaAllocator cma{sim::CmaRegion{0x100000, 16 * sim::kPageSize}};
  auto a = cma.allocate(3 * sim::kPageSize);
  ASSERT_TRUE(a.is_ok());
  auto b = cma.allocate(2 * sim::kPageSize);
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(*b, *a + 3 * sim::kPageSize);  // first fit packs forward
  EXPECT_EQ(cma.bytes_allocated(), 5 * sim::kPageSize);
}

TEST(CmaTest, RoundsUpToPageGranularity) {
  CmaAllocator cma{sim::CmaRegion{0, 8 * sim::kPageSize}};
  auto a = cma.allocate(1);
  ASSERT_TRUE(a.is_ok());
  EXPECT_EQ(cma.bytes_allocated(), sim::kPageSize);
}

TEST(CmaTest, CoalescesOnRelease) {
  CmaAllocator cma{sim::CmaRegion{0, 8 * sim::kPageSize}};
  auto a = cma.allocate(2 * sim::kPageSize);
  auto b = cma.allocate(2 * sim::kPageSize);
  auto c = cma.allocate(2 * sim::kPageSize);
  ASSERT_TRUE(a.is_ok() && b.is_ok() && c.is_ok());
  ASSERT_TRUE(cma.release(*a).is_ok());
  ASSERT_TRUE(cma.release(*c).is_ok());
  ASSERT_TRUE(cma.release(*b).is_ok());  // merges both neighbours
  // After full coalescing the region-sized allocation must succeed again.
  EXPECT_TRUE(cma.allocate(8 * sim::kPageSize).is_ok());
}

TEST(CmaTest, ExhaustionAndDoubleFree) {
  CmaAllocator cma{sim::CmaRegion{0, 4 * sim::kPageSize}};
  auto a = cma.allocate(4 * sim::kPageSize);
  ASSERT_TRUE(a.is_ok());
  EXPECT_FALSE(cma.allocate(sim::kPageSize).is_ok());
  EXPECT_TRUE(cma.release(*a).is_ok());
  EXPECT_FALSE(cma.release(*a).is_ok());
}

TEST(DriverTest, AllocBufferIsContiguousAndMapped) {
  testing::Platform p;
  CimDriver& driver = p.runtime().driver();
  auto buffer = driver.alloc_buffer(10 * sim::kPageSize);
  ASSERT_TRUE(buffer.is_ok());
  EXPECT_TRUE(p.system().mmu().is_contiguous(buffer->va, buffer->bytes));
  auto pa = driver.translate(buffer->va);
  ASSERT_TRUE(pa.is_ok());
  EXPECT_EQ(*pa, buffer->pa);
  EXPECT_GE(driver.ioctl_count(), 1u);
  EXPECT_TRUE(driver.free_buffer(*buffer).is_ok());
}

TEST(DriverTest, SubmitFlushesCachesAndChargesHost) {
  testing::Platform p;
  CimDriver& driver = p.runtime().driver();
  // Dirty the caches with some host stores.
  for (int i = 0; i < 64; ++i) p.system().cpu().store(i * 64);
  const std::uint64_t insts_before = p.system().cpu().instructions();

  cim::ContextRegs image;
  image.write(cim::Reg::kOpcode, static_cast<std::uint64_t>(cim::Opcode::kNop));
  ASSERT_TRUE(driver.submit_queued(image, 0).is_ok());
  EXPECT_EQ(driver.flush_count(), 1u);
  // Syscall + register MMIO + flush loop cost real instructions.
  EXPECT_GT(p.system().cpu().instructions(), insts_before + 1000);
  // The flush wrote back the dirty lines.
  EXPECT_GE(p.system().caches().l1d().writebacks(), 1u);
  EXPECT_TRUE(driver.drain(0).is_ok());
}

TEST(DriverTest, WaitObservesCompletionStatus) {
  testing::Platform p;
  CimDriver& driver = p.runtime().driver();
  cim::ContextRegs image;
  image.write(cim::Reg::kOpcode, static_cast<std::uint64_t>(cim::Opcode::kNop));
  ASSERT_TRUE(driver.submit_queued(image, 0).is_ok());
  auto status = driver.drain(0);
  ASSERT_TRUE(status.is_ok());
  EXPECT_EQ(*status, cim::DeviceStatus::kDone);
  // Acknowledged back to idle.
  EXPECT_EQ(p.accel().regs().status(), cim::DeviceStatus::kIdle);
}

TEST(AcceleratorTest, RejectsMisalignedRegisterIo) {
  testing::Platform p;
  std::array<std::uint8_t, 4> small{};
  EXPECT_FALSE(p.accel().mmio_read(0, small).is_ok());
  std::array<std::uint8_t, 8> ok{};
  EXPECT_FALSE(p.accel().mmio_read(3, ok).is_ok());
  EXPECT_TRUE(p.accel().mmio_read(0, ok).is_ok());
}

TEST(AcceleratorTest, OnlyStatusRegisterIsHostWritable) {
  testing::Platform p;
  auto& bus = p.system().bus();
  const auto addr = [&p](cim::Reg reg) {
    return p.accel().params().pmio_base + cim::reg_offset(reg);
  };
  // Jobs enter only through the work queue: an MMIO command trigger, or a
  // write to any job register, fails and starts nothing.
  for (const cim::Reg reg :
       {cim::Reg::kCommand, cim::Reg::kOpcode, cim::Reg::kCompleted}) {
    EXPECT_EQ(bus.write_scalar<std::uint64_t>(addr(reg), 1).code(),
              support::StatusCode::kFailedPrecondition)
        << "register " << static_cast<std::uint32_t>(reg);
  }
  EXPECT_EQ(p.accel().regs().status(), cim::DeviceStatus::kIdle);
  EXPECT_EQ(p.accel().jobs_completed(), 0u);
  EXPECT_FALSE(p.accel().has_work());
  // The DONE/ERROR acknowledge is the one host write.
  EXPECT_TRUE(bus.write_scalar<std::uint64_t>(
                     addr(cim::Reg::kStatus),
                     static_cast<std::uint64_t>(cim::DeviceStatus::kIdle))
                  .is_ok());
}

TEST(AcceleratorTest, BadJobSetsErrorStatus) {
  testing::Platform p;
  auto& regs = p.accel().regs();
  CimDriver& driver = p.runtime().driver();
  cim::ContextRegs image;
  image.write(cim::Reg::kOpcode, static_cast<std::uint64_t>(cim::Opcode::kGemm));
  image.write(cim::Reg::kM, 0);  // zero dimension -> invalid
  ASSERT_TRUE(driver.submit_queued(image, 0).is_ok());
  auto status = driver.drain(0);
  ASSERT_TRUE(status.is_ok());
  EXPECT_EQ(*status, cim::DeviceStatus::kError);
  EXPECT_EQ(static_cast<support::StatusCode>(regs.read(cim::Reg::kResult)),
            support::StatusCode::kInvalidArgument);
}

TEST(AcceleratorTest, OversizedTileIsRejectedByEngine) {
  testing::Platform p;
  ASSERT_TRUE(p.runtime().init(0).is_ok());
  CimDriver& driver = p.runtime().driver();
  cim::ContextRegs image;
  image.write(cim::Reg::kOpcode, static_cast<std::uint64_t>(cim::Opcode::kGemm));
  image.write(cim::Reg::kM, 4);
  image.write(cim::Reg::kN, 512);  // > 256 columns: caller must tile
  image.write(cim::Reg::kK, 4);
  image.write(cim::Reg::kLda, 4);
  image.write(cim::Reg::kLdb, 512);
  image.write(cim::Reg::kLdc, 512);
  image.write_f64(cim::Reg::kScaleA, 0.01);
  image.write_f64(cim::Reg::kScaleB, 0.01);
  ASSERT_TRUE(driver.submit_queued(image, 0).is_ok());
  auto status = driver.drain(0);
  ASSERT_TRUE(status.is_ok());
  EXPECT_EQ(*status, cim::DeviceStatus::kError);
}

TEST(AcceleratorTest, DoubleBufferingShortensJobs) {
  auto run = [](bool db) {
    rt::RuntimeConfig config;
    config.double_buffering = db;
    testing::Platform p{config};
    EXPECT_TRUE(p.runtime().init(0).is_ok());
    const auto a = testing::random_matrix(64 * 64, 1.0, 1);
    const auto b = testing::random_matrix(64 * 64, 1.0, 2);
    const auto va_a = p.upload(a);
    const auto va_b = p.upload(b);
    const auto va_c = p.device_zeros(64 * 64);
    EXPECT_TRUE(p.runtime()
                    .sgemm_async(64, 64, 64, 1.0f, va_a, 64, va_b, 64, 0.0f,
                                 va_c, 64, cim::StationaryOperand::kB)
                    .is_ok());
    EXPECT_TRUE(p.runtime().synchronize().is_ok());
    return p.accel().last_timeline().total();
  };
  EXPECT_LT(run(true).picoseconds(), run(false).picoseconds());
}

}  // namespace
}  // namespace tdo::rt
