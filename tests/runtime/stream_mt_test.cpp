// Multi-threaded CimStream submission (satellite stress layer): N real OS
// threads push fully-prepared compute commands and DMA copies through
// enqueue_from_thread, the driver thread pumps and synchronizes, and the
// memory state must match a single-threaded reference run bit for bit.
// Rides the TDO_FUZZ_SEED CI loop like the other *Fuzz* tests.
#include "runtime/stream.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <thread>
#include <vector>

#include "cim/context_regs.hpp"
#include "runtime/cim_blas.hpp"
#include "support/fixed_point.hpp"
#include "testing/fixture.hpp"

namespace tdo::rt {
namespace {

using tdo::testing::fuzz_seed;
using tdo::testing::Platform;
using tdo::testing::random_matrix;
using tdo::testing::ref_gemm;

[[nodiscard]] double max_abs_of(const std::vector<float>& data) {
  double out = 0.0;
  for (const float v : data) out = std::max(out, std::abs(static_cast<double>(v)));
  return out;
}

/// A fully-prepared single-tile GEMM image, the register file the runtime's
/// private make_job_image would produce (minus residency placement).
[[nodiscard]] cim::ContextRegs gemm_image(std::uint64_t m, std::uint64_t n,
                                          std::uint64_t k, sim::PhysAddr pa_a,
                                          sim::PhysAddr pa_b,
                                          sim::PhysAddr pa_c, double scale_a,
                                          double scale_b) {
  cim::ContextRegs image;
  image.write(cim::Reg::kOpcode,
              static_cast<std::uint64_t>(cim::Opcode::kGemm));
  image.write(cim::Reg::kM, m);
  image.write(cim::Reg::kN, n);
  image.write(cim::Reg::kK, k);
  image.write(cim::Reg::kPaA, pa_a);
  image.write(cim::Reg::kPaB, pa_b);
  image.write(cim::Reg::kPaC, pa_c);
  image.write(cim::Reg::kLda, k);
  image.write(cim::Reg::kLdb, n);
  image.write(cim::Reg::kLdc, n);
  image.write_f32(cim::Reg::kAlpha, 1.0f);
  image.write_f32(cim::Reg::kBeta, 0.0f);
  image.write_f64(cim::Reg::kScaleA,
                  support::QuantScale::for_max_abs(scale_a).scale);
  image.write_f64(cim::Reg::kScaleB,
                  support::QuantScale::for_max_abs(scale_b).scale);
  image.write(cim::Reg::kStationary,
              static_cast<std::uint64_t>(cim::StationaryOperand::kB));
  image.write(cim::Reg::kTileRow, 0);
  image.write(cim::Reg::kFlags, cim::JobFlags::kDoubleBuffering);
  return image;
}

TEST(StreamMtFuzz, ThreadedComputeSubmissionMatchesSingleThreadReference) {
  const std::uint64_t seed = fuzz_seed();
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kJobs = 24;
  constexpr std::uint64_t m = 8, n = 32, k = 32;

  // Each job gets its own operands and output, so results are independent
  // of dispatch order and device placement (round-robin differs between the
  // threaded and reference runs; the quantized math does not).
  const auto run = [&](bool threaded) -> std::vector<std::vector<float>> {
    Platform p{{}, {}, {}, 2};
    EXPECT_TRUE(p.runtime().init(0).is_ok());
    const auto translate = [&](sim::VirtAddr va) {
      auto pa = p.system().mmu().translate(va);
      EXPECT_TRUE(pa.is_ok());
      return *pa;
    };
    std::vector<CimStream::Command> commands;
    std::vector<sim::VirtAddr> outputs;
    std::vector<std::size_t> job_seed;
    for (std::size_t j = 0; j < kJobs; ++j) {
      const std::uint64_t s = seed + 10 * j;
      const auto a = random_matrix(m * k, 1.0, s);
      const auto b = random_matrix(k * n, 1.0, s + 1);
      const auto va_a = p.upload(a);
      const auto va_b = p.upload(b);
      const auto va_c = p.device_zeros(m * n);
      CimStream::Command command;
      command.kind = CimStream::Command::Kind::kCompute;
      command.image = gemm_image(m, n, k, translate(va_a), translate(va_b),
                                 translate(va_c), max_abs_of(a),
                                 max_abs_of(b));
      command.macs = m * n * k;
      command.cim_writes = k * n;
      commands.push_back(command);
      outputs.push_back(va_c);
      job_seed.push_back(s);
    }

    CimStream& stream = p.runtime().stream();
    if (threaded) {
      std::vector<std::thread> threads;
      for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
          for (std::size_t j = t; j < kJobs; j += kThreads) {
            const auto status = stream.enqueue_from_thread(commands[j]);
            ASSERT_TRUE(status.is_ok()) << status.to_string();
          }
        });
      }
      for (auto& thread : threads) thread.join();
      EXPECT_EQ(stream.ring_pending(), kJobs);
    } else {
      for (const auto& command : commands) {
        EXPECT_TRUE(stream.enqueue(command).is_ok());
      }
    }
    EXPECT_TRUE(stream.synchronize().is_ok());

    const CimStream::Counters& counters = stream.counters();
    EXPECT_EQ(counters.enqueued.value(), kJobs);
    EXPECT_EQ(counters.offloaded.value(), kJobs);
    EXPECT_EQ(counters.cpu_fallbacks.value(), 0u);
    EXPECT_EQ(counters.ring_submitted.value(), threaded ? kJobs : 0u);
    EXPECT_EQ(stream.ring_pending(), 0u);
    EXPECT_TRUE(stream.idle());

    std::vector<std::vector<float>> results;
    for (std::size_t j = 0; j < kJobs; ++j) {
      results.push_back(p.read_floats(outputs[j], m * n));
      // Sanity: each job is a real GEMM within the quantization bound.
      const auto a = random_matrix(m * k, 1.0, job_seed[j]);
      const auto b = random_matrix(k * n, 1.0, job_seed[j] + 1);
      std::vector<float> expected(m * n, 0.0f);
      ref_gemm(m, n, k, 1.0f, a, k, b, n, 0.0f, expected, n);
      const double bound =
          support::dot_quant_error_bound(1.0, 1.0, k) + 1e-3;
      for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_NEAR(results[j][i], expected[i], bound)
            << "job " << j << " element " << i;
      }
    }
    return results;
  };

  const auto threaded = run(true);
  const auto reference = run(false);
  ASSERT_EQ(threaded.size(), reference.size());
  for (std::size_t j = 0; j < kJobs; ++j) {
    for (std::size_t i = 0; i < threaded[j].size(); ++i) {
      ASSERT_EQ(threaded[j][i], reference[j][i])
          << "job " << j << " element " << i;
    }
  }
}

TEST(StreamMtFuzz, ThreadedCopiesLandExactly) {
  // DMA copy commands ride the same submission ring: four threads each move
  // a distinct seeded buffer device-to-device; after the pump and drain all
  // destinations must hold their source bytes.
  const std::uint64_t seed = fuzz_seed();
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kCopies = 16;
  constexpr std::size_t kFloats = 512;

  Platform p{{}, {}, {}, 2};
  ASSERT_TRUE(p.runtime().init(0).is_ok());
  const auto translate = [&](sim::VirtAddr va) {
    auto pa = p.system().mmu().translate(va);
    EXPECT_TRUE(pa.is_ok());
    return *pa;
  };
  std::vector<CimStream::Command> commands;
  std::vector<sim::VirtAddr> sources, destinations;
  for (std::size_t c = 0; c < kCopies; ++c) {
    const auto src = p.upload(random_matrix(kFloats, 1.0, seed + 100 + c));
    const auto dst = p.device_zeros(kFloats);
    CimStream::Command command;
    command.kind = CimStream::Command::Kind::kCopy;
    command.copy.dir = CopyDesc::Dir::kHostToDev;
    command.copy.segments.push_back(CopySeg{
        Rect::linear(translate(src), kFloats * sizeof(float)),
        Rect::linear(translate(dst), kFloats * sizeof(float))});
    commands.push_back(command);
    sources.push_back(src);
    destinations.push_back(dst);
  }

  CimStream& stream = p.runtime().stream();
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t c = t; c < kCopies; c += kThreads) {
        const auto status = stream.enqueue_from_thread(commands[c]);
        ASSERT_TRUE(status.is_ok()) << status.to_string();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(stream.ring_pending(), kCopies);
  ASSERT_TRUE(stream.synchronize().is_ok());

  const CimStream::Counters& counters = stream.counters();
  EXPECT_EQ(counters.copies_enqueued.value(), kCopies);
  EXPECT_EQ(counters.copy_bytes.value(), kCopies * kFloats * sizeof(float));
  EXPECT_EQ(counters.ring_submitted.value(), kCopies);
  for (std::size_t c = 0; c < kCopies; ++c) {
    const auto expected = p.read_floats(sources[c], kFloats);
    const auto got = p.read_floats(destinations[c], kFloats);
    for (std::size_t i = 0; i < kFloats; ++i) {
      ASSERT_EQ(got[i], expected[i]) << "copy " << c << " element " << i;
    }
  }
}

}  // namespace
}  // namespace tdo::rt
