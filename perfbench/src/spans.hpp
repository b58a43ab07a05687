// Span recorder for the traced run: one span per call the benchmark makes
// into a layer, timed with steady_clock on the calling thread.
//
// Every span feeds a per-name aggregate (count, total, self time); the first
// `keep` span records are also kept in memory and written out only when the
// run ends. A span's self time is its duration minus the time its child
// spans cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

class Spans {
 public:
  /// Span names. All but bench.sink time calls into the program; their self
  /// times make up trace.coverage_frac (see is_layer()). net.packet_copy is
  /// the full path's copy of a packet's bytes into the net::Packet handed to
  /// process_batch, the counterpart of the arena copy inside ingest.push.
  enum Name : std::uint8_t {
    kAttach,
    kRegisterChain,
    kCreateInstance,
    kIngestPush,
    kIngestFlush,
    kIngestDrain,
    kProcessBatch,
    kDecodeReport,
    kEncodeReport,
    kMboxApply,
    kDefragFeed,
    kReassemblyFeed,
    kInflate,
    kEngineScan,
    kPacketCopy,
    kBenchSink,
    kNumNames,
  };

  struct Record {
    std::uint8_t name = 0;
    std::int32_t parent = -1;  ///< index of the enclosing kept record
    std::uint64_t packet = 0;  ///< packet id (index in the trace pass)
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  struct Aggregate {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };

  explicit Spans(std::size_t keep = 0) : keep_(keep) {
    records_.reserve(keep);
  }

  static const char* name_of(std::uint8_t name) noexcept {
    static const char* const kNames[kNumNames] = {
        "controller.attach",    "controller.register_policy_chain",
        "controller.create_instance", "ingest.push",
        "ingest.flush",         "ingest.drain",
        "instance.process_batch", "net.decode_report",
        "net.encode_report",    "mbox.apply",
        "defrag.feed",          "reassembly.feed",
        "compress.inflate",     "engine.scan_packet",
        "net.packet_copy",      "bench.sink"};
    return name < kNumNames ? kNames[name] : "?";
  }

  static bool is_layer(std::uint8_t name) noexcept { return name != kBenchSink; }

  static std::int64_t now_ns() noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  void begin(Name name, std::uint64_t packet = 0) {
    Open open;
    open.name = name;
    open.record = -1;
    if (records_.size() < keep_) {
      open.record = static_cast<std::int32_t>(records_.size());
      Record r;
      r.name = name;
      r.parent = stack_.empty() ? -1 : stack_.back().record;
      r.packet = packet;
      records_.push_back(r);
    }
    open.start_ns = now_ns();
    stack_.push_back(open);
  }

  void end() {
    const std::int64_t end = now_ns();
    const Open open = stack_.back();
    stack_.pop_back();
    const std::int64_t dur = end - open.start_ns;
    Aggregate& a = agg_[open.name];
    ++a.count;
    a.total_ns += dur;
    a.self_ns += dur - open.child_ns;
    if (!stack_.empty()) stack_.back().child_ns += dur;
    if (open.record >= 0) {
      records_[static_cast<std::size_t>(open.record)].start_ns = open.start_ns;
      records_[static_cast<std::size_t>(open.record)].end_ns = end;
    }
  }

  const Aggregate& aggregate(Name name) const noexcept { return agg_[name]; }

  /// Sum of the self times of every layer span.
  std::int64_t layer_self_ns() const noexcept {
    std::int64_t total = 0;
    for (std::uint8_t n = 0; n < kNumNames; ++n) {
      if (is_layer(n)) total += agg_[n].self_ns;
    }
    return total;
  }

  void reset_aggregates() {
    for (Aggregate& a : agg_) a = Aggregate{};
  }

  /// Writes the kept records as JSON lines; returns false if the file
  /// could not be written.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Record& r : records_) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                   "\"parent\":%d,\"packet\":%llu}\n",
                   name_of(r.name), static_cast<long long>(r.start_ns),
                   static_cast<long long>(r.end_ns), r.parent,
                   static_cast<unsigned long long>(r.packet));
    }
    return std::fclose(f) == 0;
  }

 private:
  struct Open {
    std::uint8_t name = 0;
    std::int32_t record = -1;
    std::int64_t start_ns = 0;
    std::int64_t child_ns = 0;
  };

  std::size_t keep_;
  std::vector<Record> records_;
  std::vector<Open> stack_;
  Aggregate agg_[kNumNames];
};

/// Optional span scope: records nothing when `spans` is null, so the
/// untraced runs pay one branch per call.
class SpanScope {
 public:
  SpanScope(Spans* spans, Spans::Name name, std::uint64_t packet = 0)
      : spans_(spans) {
    if (spans_ != nullptr) spans_->begin(name, packet);
  }
  ~SpanScope() {
    if (spans_ != nullptr) spans_->end();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Spans* spans_;
};

}  // namespace perfbench
