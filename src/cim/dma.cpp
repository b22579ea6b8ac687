#include "cim/dma.hpp"

#include <algorithm>

namespace tdo::cim {

support::Duration Dma::block_time(std::uint64_t bytes) const {
  return params_.burst_setup +
         support::Duration::from_sec(static_cast<double>(bytes) /
                                     params_.bandwidth_bytes_per_sec);
}

support::Duration Dma::strided_time(std::uint64_t bytes) const {
  return params_.burst_setup +
         support::Duration::from_sec(static_cast<double>(bytes) *
                                     params_.strided_derate /
                                     params_.bandwidth_bytes_per_sec);
}

support::Duration Dma::read_block(sim::PhysAddr src, std::span<std::uint8_t> out) {
  memory_.read(src, out);
  bytes_read_.add(out.size());
  bursts_.add();
  return block_time(out.size());
}

support::Duration Dma::write_block(sim::PhysAddr dst,
                                   std::span<const std::uint8_t> in) {
  memory_.write(dst, in);
  bytes_written_.add(in.size());
  bursts_.add();
  return block_time(in.size());
}

support::Duration Dma::read_strided(sim::PhysAddr src, std::uint64_t stride,
                                    std::uint32_t elem_bytes, std::uint32_t count,
                                    std::span<std::uint8_t> out) {
  memory_.read_strided(src, stride, elem_bytes, count, out);
  const std::uint64_t bytes = static_cast<std::uint64_t>(elem_bytes) * count;
  bytes_read_.add(bytes);
  bursts_.add();
  return strided_time(bytes);
}

support::Duration Dma::write_strided(sim::PhysAddr dst, std::uint64_t stride,
                                     std::uint32_t elem_bytes, std::uint32_t count,
                                     std::span<const std::uint8_t> in) {
  memory_.write_strided(dst, stride, elem_bytes, count, in);
  const std::uint64_t bytes = static_cast<std::uint64_t>(elem_bytes) * count;
  bytes_written_.add(bytes);
  bursts_.add();
  return strided_time(bytes);
}

support::Duration Dma::copy_rect(sim::PhysAddr src, std::uint64_t src_pitch,
                                 sim::PhysAddr dst, std::uint64_t dst_pitch,
                                 std::uint64_t width, std::uint64_t rows) {
  const std::uint64_t bytes = width * rows;
  if (bytes == 0) return support::Duration::zero();
  std::vector<std::uint8_t> row(width);
  for (std::uint64_t r = 0; r < rows; ++r) {
    memory_.read(src + r * src_pitch, std::span(row.data(), row.size()));
    memory_.write(dst + r * dst_pitch,
                  std::span<const std::uint8_t>(row.data(), row.size()));
  }
  bytes_read_.add(bytes);
  bytes_written_.add(bytes);
  const bool contiguous =
      rows == 1 || (src_pitch == width && dst_pitch == width);
  if (contiguous) {
    bursts_.add(2);  // one read burst + one write burst
    return block_time(bytes) + block_time(bytes);
  }
  bursts_.add(2 * rows);
  support::Duration total = support::Duration::zero();
  for (std::uint64_t r = 0; r < rows; ++r) {
    total = total + block_time(width) + block_time(width);
  }
  return total;
}

void Dma::retire_windows_before(sim::Tick horizon) {
  for (auto& windows : channels_) {
    windows.erase(std::remove_if(windows.begin(), windows.end(),
                                 [horizon](const BusyWindow& w) {
                                   return w.end <= horizon;
                                 }),
                  windows.end());
  }
}

sim::Tick Dma::first_fit(std::uint32_t channel, sim::Tick earliest,
                         sim::Tick duration) const {
  sim::Tick start = earliest;
  // Windows are sorted by begin; slide the candidate start past every window
  // it would collide with. One forward pass suffices.
  for (const BusyWindow& w : channels_[channel]) {
    if (w.end <= start) continue;
    if (w.begin >= start + duration) break;
    start = w.end;
  }
  return start;
}

void Dma::reserve_engine(sim::Tick begin, sim::Tick end) {
  // No retirement here: `begin` can lie in the future (the stream-phase
  // window of a job being launched), and using it as a horizon would drop
  // the same job's weight window. The accelerator retires at job launch and
  // reserve_copy retires at submit time, both with the true current tick.
  if (end <= begin) return;
  auto& windows = channels_[0];
  const BusyWindow w{begin, end, /*engine=*/true};
  windows.insert(std::upper_bound(windows.begin(), windows.end(), w,
                                  [](const BusyWindow& a, const BusyWindow& b) {
                                    return a.begin < b.begin;
                                  }),
                 w);
}

void Dma::reserve_engine_advisory(sim::Tick begin, sim::Tick end) {
  if (end <= begin) return;
  auto& windows = channels_[0];
  const BusyWindow w{begin, end, /*engine=*/true, /*advisory=*/true};
  windows.insert(std::upper_bound(windows.begin(), windows.end(), w,
                                  [](const BusyWindow& a, const BusyWindow& b) {
                                    return a.begin < b.begin;
                                  }),
                 w);
}

void Dma::drop_advisory() {
  for (auto& windows : channels_) {
    windows.erase(std::remove_if(windows.begin(), windows.end(),
                                 [](const BusyWindow& w) { return w.advisory; }),
                  windows.end());
  }
}

Dma::CopySlot Dma::reserve_copy(sim::Tick earliest, sim::Tick duration) {
  retire_windows_before(earliest);
  // Earliest-finish channel wins; the dedicated copy channel (highest index)
  // wins ties, so copies only migrate toward the engine's channel when it is
  // strictly the earlier one free.
  CopySlot slot{static_cast<std::uint32_t>(channels_.size()) - 1,
                first_fit(static_cast<std::uint32_t>(channels_.size()) - 1,
                          earliest, duration)};
  for (std::uint32_t c = static_cast<std::uint32_t>(channels_.size()) - 1;
       c-- > 0;) {
    const sim::Tick start = first_fit(c, earliest, duration);
    if (start < slot.start) slot = CopySlot{c, start};
  }
  if (slot.channel != channels_.size() - 1) copy_migrations_.add();
  contended_copy_ticks_.add(slot.start - earliest);
  auto& windows = channels_[slot.channel];
  const BusyWindow w{slot.start, slot.start + duration, /*engine=*/false};
  windows.insert(std::upper_bound(windows.begin(), windows.end(), w,
                                  [](const BusyWindow& a, const BusyWindow& b) {
                                    return a.begin < b.begin;
                                  }),
                 w);
  return slot;
}

sim::Tick Dma::engine_busy_overlap(std::uint32_t channel, sim::Tick lo,
                                   sim::Tick hi) const {
  if (channel >= channels_.size() || hi <= lo) return 0;
  // Engine windows never overlap each other (jobs serialize on the engine),
  // so summing pairwise intersections is exact.
  sim::Tick covered = 0;
  for (const BusyWindow& w : channels_[channel]) {
    // Advisory windows are estimates of *future* engine traffic; the
    // authoritative launch-time reservation is what counts against overlap.
    if (!w.engine || w.advisory) continue;
    const sim::Tick begin = std::max(lo, w.begin);
    const sim::Tick end = std::min(hi, w.end);
    if (end > begin) covered += end - begin;
  }
  return std::min(covered, hi - lo);
}

void Dma::register_stats(support::StatsRegistry& registry,
                         const std::string& prefix) const {
  registry.register_counter(prefix + ".dma.bytes_read", &bytes_read_);
  registry.register_counter(prefix + ".dma.bytes_written", &bytes_written_);
  registry.register_counter(prefix + ".dma.bursts", &bursts_);
  registry.register_counter(prefix + ".dma.prefetch_bytes", &prefetch_bytes_);
  registry.register_counter(prefix + ".dma.overlapped_copy_bytes",
                            &overlap_copy_bytes_);
  registry.register_counter(prefix + ".dma.contended_copy_ticks",
                            &contended_copy_ticks_);
  registry.register_counter(prefix + ".dma.copy_migrations",
                            &copy_migrations_);
}

}  // namespace tdo::cim
