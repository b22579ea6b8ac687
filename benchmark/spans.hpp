// Bench-local wall-clock span recorder.
//
// The benchmark opens one span around every call it makes into a layer's
// public functions (frontend::parse_kernel, core::compile, Interpreter::run,
// Scheduler::pump, ...). Spans stay in memory; the benchmark turns them into
// per-layer self times (a span's duration minus the part its children cover)
// and writes one pass of them as Chrome trace JSON. Spans inside the library
// itself are out of scope here: every boundary below is a call site in
// tdo_bench.cpp.
//
// Single-threaded by design, like the benchmark: spans nest strictly, so a
// stack of open indices is enough to record parents.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tdo_bench {

/// The benchmark's layer map (see README.md). kBench is the benchmark's own
/// glue and workload generation, which belong to no layer of the simulator.
enum class Layer : std::uint8_t { kBench, kCompile, kHost, kRuntime, kDevice, kServe };
inline constexpr std::size_t kLayerCount = 6;
inline constexpr std::array<const char*, kLayerCount> kLayerNames{
    "bench", "compile", "host", "runtime", "device", "serve"};

struct Span {
  const char* name = "";
  Layer layer = Layer::kBench;
  std::int32_t parent = -1;  ///< index into the same span vector; -1 = root
  std::uint32_t item = 0;    ///< index into the recorder's item names
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class SpanRecorder {
 public:
  /// RAII span: records nothing while the recorder is disabled.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, const char* name, Layer layer)
        : recorder_{recorder.enabled_ ? &recorder : nullptr} {
      if (recorder_ != nullptr) index_ = recorder_->open(name, layer);
    }
    ~Scope() {
      if (recorder_ != nullptr) recorder_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
    std::int32_t index_ = -1;
  };

  SpanRecorder() : origin_{std::chrono::steady_clock::now()} {
    items_.emplace_back();
  }

  void set_enabled(bool on) { enabled_ = on; }

  /// Item id (kernel name or pass number) stamped on spans opened from now.
  void set_item(std::string item) {
    if (!enabled_) return;
    items_.push_back(std::move(item));
    item_ = static_cast<std::uint32_t>(items_.size() - 1);
  }

  /// Runs `fn` inside a span and returns its result.
  template <typename Fn>
  decltype(auto) call(const char* name, Layer layer, Fn&& fn) {
    const Scope scope{*this, name, layer};
    return std::forward<Fn>(fn)();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  void clear() {
    spans_.clear();
    items_.assign(1, std::string{});
    item_ = 0;
    open_.clear();
  }

  /// Chrome trace-event JSON ("X" complete events, microsecond timestamps).
  void write_chrome_json(std::ostream& os) const {
    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[160];
      std::snprintf(buf, sizeof buf, "%.3f,\"dur\":%.3f",
                    static_cast<double>(s.start_ns) * 1e-3,
                    static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
      os << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name << "\",\"cat\":\""
         << kLayerNames[static_cast<std::size_t>(s.layer)]
         << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << buf
         << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
         << ",\"item\":\"" << items_[s.item] << "\"}}";
    }
    os << "\n]}\n";
  }

 private:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::int32_t open(const char* name, Layer layer) {
    Span span;
    span.name = name;
    span.layer = layer;
    span.parent = open_.empty() ? -1 : open_.back();
    span.item = item_;
    span.start_ns = now_ns();
    spans_.push_back(span);
    const auto index = static_cast<std::int32_t>(spans_.size() - 1);
    open_.push_back(index);
    return index;
  }

  void close(std::int32_t index) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    open_.pop_back();
  }

  bool enabled_ = false;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::string> items_;
  std::uint32_t item_ = 0;
  std::vector<std::int32_t> open_;
};

/// Per-layer self time over every span below the roots named `root`.
struct SelfTimes {
  std::array<double, kLayerCount> self_s{};
  std::array<bool, kLayerCount> seen{};  ///< the layer has a span below a root
  double root_s = 0.0;  ///< summed duration of the roots themselves

  /// Share of the roots' duration that some simulator layer covers.
  [[nodiscard]] double coverage() const {
    double layers = 0.0;
    for (std::size_t l = 1; l < kLayerCount; ++l) layers += self_s[l];
    return root_s > 0.0 ? layers / root_s : 0.0;
  }
};

[[nodiscard]] inline SelfTimes self_times(const std::vector<Span>& spans,
                                          std::string_view root) {
  std::vector<double> child_s(spans.size(), 0.0);
  std::vector<char> inside(spans.size(), 0);
  SelfTimes out;
  // Parents precede children, so one forward pass settles membership and a
  // backward pass settles the child sums.
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    inside[i] = s.parent < 0 ? static_cast<char>(root == s.name)
                             : inside[static_cast<std::size_t>(s.parent)];
  }
  for (std::size_t i = spans.size(); i-- > 0;) {
    const Span& s = spans[i];
    const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    if (s.parent >= 0) child_s[static_cast<std::size_t>(s.parent)] += dur;
    if (inside[i] == 0) continue;
    out.self_s[static_cast<std::size_t>(s.layer)] += dur - child_s[i];
    out.seen[static_cast<std::size_t>(s.layer)] = true;
    if (s.parent < 0) out.root_s += dur;
  }
  return out;
}

}  // namespace tdo_bench
