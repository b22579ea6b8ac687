#include "obs/trace.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "support/log.hpp"

namespace tdo::obs {

namespace detail {
std::atomic<bool> g_trace_enabled{false};
}  // namespace detail

namespace {

/// Warn+ log lines become instants on the `log` track, stamped with the
/// tracer's last simulated tick (the log sink has no clock access).
void trace_log_tap(support::LogLevel level, const char* component,
                   const std::string& text) {
  if (!enabled()) return;
  Tracer& tracer = Tracer::instance();
  std::string name = std::string{support::to_string(level)} + " " +
                     component + ": " + text;
  tracer.instant("log", std::move(name), tracer.last_tick());
}

/// Full-tuple ordering: ties on (ts, track, name, ...) are broken by every
/// remaining field, so equal events are interchangeable and the sorted
/// stream is independent of thread arrival order.
bool event_less(const TraceEvent& a, const TraceEvent& b) {
  if (a.ts != b.ts) return a.ts < b.ts;
  if (a.track != b.track) return a.track < b.track;
  if (a.name != b.name) return a.name < b.name;
  if (a.phase != b.phase) return a.phase < b.phase;
  if (a.dur != b.dur) return a.dur < b.dur;
  if (a.value != b.value) return a.value < b.value;
  return a.args < b.args;
}

void append_json_string(std::string& out, const std::string& s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

/// Simulated ticks are integer picoseconds; trace-event ts/dur are
/// microseconds. %.6f of ticks/1e6 renders the tick count exactly.
void append_us(std::string& out, std::uint64_t ticks) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%" PRIu64 ".%06" PRIu64, ticks / 1000000,
                ticks % 1000000);
  out += buf;
}

}  // namespace

Tracer::Tracer()
    : ring_{std::make_unique<support::ShardedRing<TraceEvent>>(
          TracerParams{}.shard_capacity)} {}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::start(TracerParams params) {
  clear();
  params_ = params;
  ring_ = std::make_unique<support::ShardedRing<TraceEvent>>(
      params_.shard_capacity);
  support::set_log_tap(&trace_log_tap);
  detail::g_trace_enabled.store(true, std::memory_order_release);
}

void Tracer::stop() {
  detail::g_trace_enabled.store(false, std::memory_order_release);
  support::set_log_tap(nullptr);
  pump();
}

void Tracer::clear() {
  pump();
  collected_.clear();
  for (auto& shard : drop_shards_) {
    shard.count.store(0, std::memory_order_relaxed);
  }
  last_tick_.store(0, std::memory_order_relaxed);
}

void Tracer::note_tick(std::uint64_t tick) {
  std::uint64_t seen = last_tick_.load(std::memory_order_relaxed);
  while (tick > seen && !last_tick_.compare_exchange_weak(
                            seen, tick, std::memory_order_relaxed)) {
  }
}

void Tracer::record(TraceEvent event) {
  if (!ring_->push(std::move(event))) {
    drop_shards_[support::thread_shard_id() % support::kStatShards]
        .count.fetch_add(1, std::memory_order_relaxed);
  }
}

void Tracer::span(std::string track, std::string name, std::uint64_t ts,
                  std::uint64_t dur,
                  std::vector<std::pair<std::string, std::uint64_t>> args) {
  note_tick(ts + dur);
  TraceEvent event;
  event.track = std::move(track);
  event.name = std::move(name);
  event.phase = Phase::kSpan;
  event.ts = ts;
  event.dur = dur;
  event.args = std::move(args);
  record(std::move(event));
}

void Tracer::instant(std::string track, std::string name, std::uint64_t ts,
                     std::vector<std::pair<std::string, std::uint64_t>> args) {
  note_tick(ts);
  TraceEvent event;
  event.track = std::move(track);
  event.name = std::move(name);
  event.phase = Phase::kInstant;
  event.ts = ts;
  event.args = std::move(args);
  record(std::move(event));
}

void Tracer::counter(std::string track, std::string name, std::uint64_t ts,
                     std::uint64_t value) {
  note_tick(ts);
  TraceEvent event;
  event.track = std::move(track);
  event.name = std::move(name);
  event.phase = Phase::kCounter;
  event.ts = ts;
  event.value = value;
  record(std::move(event));
}

void Tracer::pump() {
  for (TraceEvent& event : ring_->drain_all()) {
    collected_.push_back(std::move(event));
  }
}

std::vector<TraceEvent> Tracer::sorted_events() {
  pump();
  std::vector<TraceEvent> events = collected_;
  std::stable_sort(events.begin(), events.end(), &event_less);
  return events;
}

void Tracer::export_json(std::ostream& os) {
  const std::vector<TraceEvent> events = sorted_events();

  // One tid per track, assigned by first appearance in the sorted stream —
  // deterministic, and Perfetto shows tracks in tid order.
  std::vector<std::string> tracks;
  auto tid_of = [&tracks](const std::string& track) -> std::size_t {
    for (std::size_t i = 0; i < tracks.size(); ++i) {
      if (tracks[i] == track) return i + 1;
    }
    tracks.push_back(track);
    return tracks.size();
  };
  for (const TraceEvent& event : events) (void)tid_of(event.track);

  std::string out;
  out.reserve(events.size() * 96 + 4096);
  out += "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  out +=
      "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
      "\"args\":{\"name\":\"tdo-cim simulation\"}}";
  for (std::size_t i = 0; i < tracks.size(); ++i) {
    out += ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":";
    out += std::to_string(i + 1);
    out += ",\"name\":\"thread_name\",\"args\":{\"name\":";
    append_json_string(out, tracks[i]);
    out += "}}";
  }
  for (const TraceEvent& event : events) {
    out += ",\n{\"pid\":1,\"tid\":";
    out += std::to_string(tid_of(event.track));
    out += ",\"name\":";
    append_json_string(out, event.name);
    const std::size_t slash = event.track.find('/');
    out += ",\"cat\":";
    append_json_string(out, slash == std::string::npos
                                ? event.track
                                : event.track.substr(0, slash));
    out += ",\"ts\":";
    append_us(out, event.ts);
    switch (event.phase) {
      case Phase::kSpan:
        out += ",\"ph\":\"X\",\"dur\":";
        append_us(out, event.dur);
        break;
      case Phase::kInstant:
        out += ",\"ph\":\"i\",\"s\":\"t\"";
        break;
      case Phase::kCounter:
        out += ",\"ph\":\"C\"";
        break;
    }
    if (event.phase == Phase::kCounter) {
      out += ",\"args\":{\"value\":";
      out += std::to_string(event.value);
      out += "}";
    } else if (!event.args.empty()) {
      out += ",\"args\":{";
      bool first = true;
      for (const auto& [key, value] : event.args) {
        if (!first) out += ",";
        first = false;
        append_json_string(out, key);
        out += ":";
        out += std::to_string(value);
      }
      out += "}";
    }
    out += "}";
  }
  // Overflow visibility: total + per-shard drop counts ride along as
  // top-level metadata (Perfetto ignores unknown keys; tools/tests read it).
  out += "\n],\"metadata\":{\"dropped\":";
  out += std::to_string(dropped());
  out += ",\"droppedByShard\":[";
  const auto by_shard = dropped_by_shard();
  for (std::size_t i = 0; i < by_shard.size(); ++i) {
    if (i != 0) out += ",";
    out += std::to_string(by_shard[i]);
  }
  out += "]}}\n";
  os << out;
}

}  // namespace tdo::obs
