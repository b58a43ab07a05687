#include "harness.hpp"

#include <algorithm>
#include <stdexcept>

#include "net/result.hpp"

namespace perfbench {

using namespace dpisvc;

namespace {

constexpr std::size_t kBatchPackets = 64;
/// Open loop: longest time a packet waits for its batch to fill.
constexpr std::int64_t kCoalesceNs = 100'000;
const std::vector<net::MatchEntry> kNoEntries;

std::int64_t to_ns(double seconds) {
  return static_cast<std::int64_t>(seconds * 1e9);
}

}  // namespace

Boxes::Boxes(const Inputs& inputs) {
  dpi::MiddleboxProfile ids;
  ids.id = kIds;
  ids.name = "ids";
  dpi::MiddleboxProfile fw;
  fw.id = kFirewall;
  fw.name = "session-fw";
  fw.stateful = true;
  box[0] = std::make_unique<mbox::Middlebox>(ids);
  box[1] = std::make_unique<mbox::Middlebox>(fw);
  for (int m = 0; m < 2; ++m) {
    for (const mbox::RuleSpec& rule : inputs.rules[m]) box[m]->add_rule(rule);
  }
}

service::InstanceConfig instance_config(const Inputs& inputs,
                                        std::size_t workers) {
  service::InstanceConfig config;
  config.num_workers = workers;
  config.queue_capacity = 1024;
  config.overload = service::OverloadPolicy::kBlock;
  // Room for both directions of every flow: an eviction would silently
  // restart a stateful cursor and change the reports.
  config.max_flows = 4 * static_cast<std::size_t>(inputs.num_flows) + 4096;
  if (inputs.workload == Workload::kFullChain) {
    config.defragment_ip = true;
    config.reassemble_tcp = true;
    config.decompress_payloads = true;
  }
  if (inputs.workload == Workload::kMatchDense) config.dedicated = true;
  return config;
}

Service set_up(Boxes& boxes, const service::InstanceConfig& config,
               Spans* spans) {
  Service s;
  const std::int64_t t0 = Spans::now_ns();
  s.controller = std::make_unique<service::DpiController>();
  const std::int64_t t_attach = Spans::now_ns();
  for (auto& box : boxes.box) {
    const SpanScope span(spans, Spans::kAttach);
    box->attach(*s.controller);
  }
  const std::int64_t t_chains = Spans::now_ns();
  dpi::ChainId stateless = 0;
  dpi::ChainId stateful = 0;
  {
    const SpanScope span(spans, Spans::kRegisterChain);
    stateless = s.controller->register_policy_chain(chain_members(kStatelessChain));
  }
  {
    const SpanScope span(spans, Spans::kRegisterChain);
    stateful = s.controller->register_policy_chain(chain_members(kStatefulChain));
  }
  if (stateless != kStatelessChain || stateful != kStatefulChain) {
    throw std::runtime_error("set-up: unexpected policy-chain ids");
  }
  const std::int64_t t_create = Spans::now_ns();
  {
    const SpanScope span(spans, Spans::kCreateInstance);
    s.instance = s.controller->create_instance("dpi-0", config);
  }
  if (!s.instance->has_engine()) {
    throw std::runtime_error("set-up: instance holds no engine");
  }
  const std::int64_t t1 = Spans::now_ns();
  s.setup_s = static_cast<double>(t1 - t0) * 1e-9;
  s.attach_s = static_cast<double>(t_chains - t_attach) * 1e-9;
  s.compile_s = static_cast<double>(t1 - t_create) * 1e-9;
  return s;
}

Driver::Driver(const Inputs& inputs, Boxes& boxes)
    : inputs_(inputs),
      boxes_(boxes),
      sched_(kSchedMask + 1, 0),
      planted_of_flow_(inputs.num_flows) {
  for (std::size_t i = 0; i < inputs.planted.size(); ++i) {
    planted_of_flow_[inputs.planted[i].flow].push_back(
        static_cast<std::uint32_t>(i));
  }
}

void Driver::note_entries(std::uint64_t seq, dpi::MiddleboxId mbox,
                          const std::vector<net::MatchEntry>& found_entries,
                          Digest& d) {
  entries += found_entries.size();
  packet_has_entries_ = true;
  if (mode_ != Mode::kVerify) return;
  d.section(mbox, found_entries);
  const std::uint32_t flow = inputs_.flow_of[index_of(seq)];
  for (const std::uint32_t pi : planted_of_flow_[flow]) {
    const Planted& p = inputs_.planted[pi];
    if (p.mbox != mbox) continue;
    for (const net::MatchEntry& e : found_entries) {
      if (e.pattern_id == p.rule) found[pi] = true;
    }
  }
}

void Driver::delivered(std::uint64_t seq, Digest& d,
                       const mbox::Verdict* verdicts, std::size_t n) {
  ++phase_.delivered;
  phase_.payload_bytes += inputs_.packets[index_of(seq)].payload.size();
  const bool had_entries = packet_has_entries_;
  packet_has_entries_ = false;
  if (mode_ != Mode::kVerify) return;
  if (!had_entries) ++matchless;
  for (std::size_t k = 0; k < n; ++k) {
    d.mix(static_cast<std::uint64_t>(verdicts[k]));
    if (verdicts[k] != mbox::Verdict::kPass) ++nonpass_verdicts;
  }
  digest[index_of(seq)] = d.h;
}

void Driver::begin(Mode mode, double open_loop_packets) {
  mode_ = mode;
  phase_ = PhaseStats{};
  phase_start_ns_ = Spans::now_ns();
  if (mode == Mode::kVerify) {
    if (index_of(next_) != 0) {
      throw std::logic_error("verify_pass must start at a pass boundary");
    }
    digest.assign(inputs_.packets.size(), 0);
    found.assign(inputs_.planted.size(), false);
    nonpass_verdicts = 0;
    matchless = 0;
    reports = 0;
    report_bytes = 0;
  }
  if (mode == Mode::kOpenLoop) {
    latency_us.clear();
    late_us.clear();
    latency_us.reserve(static_cast<std::size_t>(open_loop_packets * 1.2) + 64);
    late_us.reserve(static_cast<std::size_t>(open_loop_packets * 1.2) + 64);
  }
}

PhaseStats Driver::finish() {
  phase_.seconds =
      static_cast<double>(Spans::now_ns() - phase_start_ns_) * 1e-9;
  mode_ = Mode::kCount;
  return phase_;
}

namespace {

/// Fast path: one IngestPipeline; the sink fans each completed batch out to
/// the middleboxes with apply_report_batch.
class FastDriver final : public Driver {
 public:
  FastDriver(const Inputs& inputs, service::DpiInstance& instance,
             Boxes& boxes)
      : Driver(inputs, boxes),
        pipeline_(
            instance,
            [this](const service::BatchHandle& batch) { on_batch(batch); },
            service::IngestConfig{kBatchPackets, 8, 128 * 1024}) {}

  PhaseStats verify_pass() override {
    begin(Mode::kVerify);
    const std::uint64_t end = next_ + inputs_.packets.size();
    while (next_ < end) push(next_++);
    drain();
    return finish();
  }

  PhaseStats closed_loop(double seconds) override {
    begin(Mode::kCount);
    const std::int64_t deadline = Spans::now_ns() + to_ns(seconds);
    do {
      for (int k = 0; k < 256; ++k) {
        push(next_++);
        if (index_of(next_) == 0) drain();  // end of a pass
      }
    } while (Spans::now_ns() < deadline);
    drain();
    return finish();
  }

  PhaseStats open_loop(double seconds, double rate) override {
    begin(Mode::kOpenLoop, seconds * rate);
    const double period_ns = 1e9 / rate;
    const std::int64_t t0 = Spans::now_ns();
    const std::int64_t end = t0 + to_ns(seconds);
    std::int64_t oldest = -1;  // due time of the oldest unflushed packet
    std::size_t unflushed = 0;
    for (std::uint64_t k = 0;;) {
      const std::int64_t now = Spans::now_ns();
      if (now >= end) break;
      const std::int64_t due =
          t0 + static_cast<std::int64_t>(static_cast<double>(k) * period_ns);
      if (due <= now) {
        late_us.push_back(static_cast<double>(now - due) * 1e-3);
        const std::uint64_t seq = next_++;
        sched_[seq & kSchedMask] = due;
        push(seq);
        ++k;
        if (oldest < 0) oldest = due;
        if (++unflushed == kBatchPackets) {  // push() flushed a full batch
          oldest = -1;
          unflushed = 0;
        }
      } else if (oldest >= 0 && now - oldest >= kCoalesceNs) {
        // Coalescing deadline: a partial batch leaves once its oldest
        // packet has waited kCoalesceNs, as NIC interrupt moderation does.
        const SpanScope span(spans_, Spans::kIngestFlush);
        pipeline_.flush();
        oldest = -1;
        unflushed = 0;
      } else {
        const SpanScope span(spans_, Spans::kIngestFlush);
        pipeline_.poll();
      }
    }
    drain();
    return finish();
  }

 private:
  void push(std::uint64_t seq) {
    const std::size_t idx = index_of(seq);
    const net::Packet& p = inputs_.packets[idx];
    ++phase_.attempted;
    const SpanScope span(spans_, Spans::kIngestPush, idx);
    if (!pipeline_.push(inputs_.chain_of[idx], p.tuple, BytesView(p.payload),
                        seq)) {
      ++phase_.shed;
    }
  }

  void drain() {
    const SpanScope span(spans_, Spans::kIngestDrain);
    pipeline_.drain();
  }

  void on_batch(const service::BatchHandle& batch) {
    const SpanScope sink(spans_, Spans::kBenchSink);
    const std::int64_t t =
        mode_ == Mode::kOpenLoop ? Spans::now_ns() : std::int64_t{0};
    const auto& items = batch.items();
    const auto& results = batch.results();
    const auto& refs = batch.packet_refs();
    flows_.clear();
    fw_flows_.clear();
    fw_results_.clear();
    for (std::size_t i = 0; i < items.size(); ++i) {
      flows_.push_back(items[i].flow);
      if (items[i].chain == kStatefulChain) {
        fw_flows_.push_back(items[i].flow);
        fw_results_.push_back(results[i]);
      }
    }
    std::vector<mbox::Verdict> ids;
    std::vector<mbox::Verdict> fw;
    {
      const SpanScope span(spans_, Spans::kMboxApply);
      ids = boxes_.of(kIds).apply_report_batch(flows_, results);
      if (!fw_flows_.empty()) {
        fw = boxes_.of(kFirewall).apply_report_batch(fw_flows_, fw_results_);
      }
    }
    std::size_t j = 0;
    for (std::size_t i = 0; i < items.size(); ++i) {
      const std::uint64_t seq = refs[i];
      Digest d;
      for (const dpi::MiddleboxMatches& m : results[i].matches) {
        if (!m.entries.empty()) note_entries(seq, m.middlebox, m.entries, d);
      }
      mbox::Verdict v[2] = {ids[i], mbox::Verdict::kPass};
      std::size_t n = 1;
      if (items[i].chain == kStatefulChain) v[n++] = fw[j++];
      if (mode_ == Mode::kOpenLoop) {
        latency_us.push_back(static_cast<double>(t - sched_[seq & kSchedMask]) *
                             1e-3);
      }
      delivered(seq, d, v, n);
    }
  }

  std::vector<net::FiveTuple> flows_;
  std::vector<net::FiveTuple> fw_flows_;
  std::vector<dpi::ScanResult> fw_results_;
  /// Last: its destructor drains into on_batch, which uses the members above.
  service::IngestPipeline pipeline_;
};

/// Full path: synchronous process_batch, then each result packet's report
/// is decoded and applied by every middlebox on the packet's chain.
class FullDriver final : public Driver {
 public:
  FullDriver(const Inputs& inputs, service::DpiInstance& instance,
             Boxes& boxes)
      : Driver(inputs, boxes), instance_(instance) {}

  PhaseStats verify_pass() override {
    begin(Mode::kVerify);
    const std::uint64_t end = next_ + inputs_.packets.size();
    while (next_ < end) {
      run_batch(std::min<std::uint64_t>(kBatchPackets, end - next_), nullptr);
    }
    return finish();
  }

  PhaseStats closed_loop(double seconds) override {
    begin(Mode::kCount);
    const std::int64_t deadline = Spans::now_ns() + to_ns(seconds);
    do {
      run_batch(kBatchPackets, nullptr);
    } while (Spans::now_ns() < deadline);
    return finish();
  }

  PhaseStats open_loop(double seconds, double rate) override {
    begin(Mode::kOpenLoop, seconds * rate);
    const double period_ns = 1e9 / rate;
    const std::int64_t t0 = Spans::now_ns();
    const std::int64_t end = t0 + to_ns(seconds);
    std::int64_t due[kBatchPackets];
    std::size_t count = 0;
    for (std::uint64_t k = 0;;) {
      const std::int64_t now = Spans::now_ns();
      if (now >= end) break;
      for (; count < kBatchPackets; ++count, ++k) {
        due[count] =
            t0 + static_cast<std::int64_t>(static_cast<double>(k) * period_ns);
        if (due[count] > now) break;
        late_us.push_back(static_cast<double>(now - due[count]) * 1e-3);
      }
      // Same coalescing rule as the fast path: a batch leaves when full or
      // when its oldest packet has waited kCoalesceNs.
      if (count == kBatchPackets || (count > 0 && now - due[0] >= kCoalesceNs)) {
        run_batch(count, due);
        count = 0;
      }
    }
    if (count > 0) run_batch(count, due);
    return finish();
  }

 private:
  void run_batch(std::size_t count, const std::int64_t* due) {
    const std::size_t n = inputs_.packets.size();
    std::vector<net::Packet> batch;
    {
      // Copy-assigning into packets recycled from earlier outputs reuses
      // their buffers instead of allocating new ones.
      const SpanScope span(spans_, Spans::kPacketCopy);
      batch.reserve(count);
      for (std::size_t c = 0; c < count; ++c) {
        const std::uint64_t seq = next_ + c;
        const std::size_t idx = index_of(seq);
        net::Packet p;
        if (!spare_.empty()) {
          p = std::move(spare_.back());
          spare_.pop_back();
        }
        p = inputs_.packets[idx];
        p.tcp_seq += static_cast<std::uint32_t>(seq / n) * inputs_.seq_stride[idx];
        batch.push_back(std::move(p));
      }
    }
    phase_.attempted += count;
    std::vector<service::ProcessOutput> outs;
    {
      const SpanScope span(spans_, Spans::kProcessBatch);
      outs = instance_.process_batch(std::move(batch));
    }
    for (std::size_t c = 0; c < count; ++c) {
      const std::uint64_t seq = next_ + c;
      const std::size_t idx = index_of(seq);
      const service::ProcessOutput& out = outs[c];
      net::MatchReport report;
      if (out.result && out.result->service_header) {
        const Bytes& encoded = out.result->service_header->metadata;
        {
          const SpanScope span(spans_, Spans::kDecodeReport, idx);
          report = net::decode_report(encoded);
        }
        if (mode_ == Mode::kVerify) {
          ++reports;
          report_bytes += encoded.size();
        }
      }
      const auto& members = chain_members(inputs_.chain_of[idx]);
      mbox::Verdict v[2] = {mbox::Verdict::kPass, mbox::Verdict::kPass};
      {
        const SpanScope span(spans_, Spans::kMboxApply, idx);
        for (std::size_t k = 0; k < members.size(); ++k) {
          const std::vector<net::MatchEntry>* e = &kNoEntries;
          for (const net::MiddleboxSection& s : report.sections) {
            if (s.middlebox_id == members[k]) e = &s.entries;
          }
          v[k] = boxes_.of(members[k]).apply_report_entries(out.data, *e);
        }
      }
      Digest d;
      for (const net::MiddleboxSection& s : report.sections) {
        note_entries(seq, s.middlebox_id, s.entries, d);
      }
      if (due != nullptr) {
        latency_us.push_back(static_cast<double>(Spans::now_ns() - due[c]) *
                             1e-3);
      }
      delivered(seq, d, v, members.size());
    }
    for (service::ProcessOutput& out : outs) spare_.push_back(std::move(out.data));
    next_ += count;
  }

  service::DpiInstance& instance_;
  std::vector<net::Packet> spare_;
};

}  // namespace

std::unique_ptr<Driver> make_driver(const Inputs& inputs,
                                    service::DpiInstance& instance,
                                    Boxes& boxes) {
  if (inputs.workload == Workload::kHttpIngest) {
    return std::make_unique<FastDriver>(inputs, instance, boxes);
  }
  return std::make_unique<FullDriver>(inputs, instance, boxes);
}

}  // namespace perfbench
