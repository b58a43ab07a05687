#include "inputs.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string_view>

#include "common/rng.hpp"
#include "compress/deflate.hpp"
#include "net/defrag.hpp"
#include "workload/pattern_gen.hpp"
#include "workload/traffic_gen.hpp"

namespace perfbench {

using namespace dpisvc;

namespace {

constexpr std::size_t kExactRules = 4356;  // the paper's Snort exact set
constexpr std::uint64_t kPatternSeed = 17;
constexpr double kFragmentProbability = 0.03;
constexpr std::size_t kRegexRules = 64;
constexpr std::uint64_t kRegexSeed = 29;
constexpr dpi::PatternId kRegexRuleBase = 5000;
constexpr std::size_t kAttackTargets = 48;

const mbox::Verdict kVerdicts[] = {mbox::Verdict::kAlert, mbox::Verdict::kShape,
                                   mbox::Verdict::kQuarantine,
                                   mbox::Verdict::kDrop};

/// A rule the generator may plant: its owner, id, and a text that the rule
/// matches (the pattern itself, or an instance of the regex).
struct Plantable {
  dpi::MiddleboxId mbox = 0;
  dpi::PatternId rule = 0;
  std::string text;
};

/// generate_regex_rules joins letter/digit anchors with these glue
/// fragments; replacing each with a matching sample yields a string the
/// regex accepts.
std::string regex_instance(std::string rule) {
  static const std::pair<std::string_view, std::string_view> kGlue[] = {
      {R"(\s+\w+\s+)", " via "}, {R"(\s*)", " "}, {R"(\d+)", "42"},
      {R"([a-z]*)", "q"},        {R"(.{0,8})", "--"}};
  for (const auto& [glue, sample] : kGlue) {
    for (std::size_t at = rule.find(glue); at != std::string::npos;
         at = rule.find(glue, at + sample.size())) {
      rule.replace(at, glue.size(), sample);
    }
  }
  return rule;
}

std::size_t count_occurrences(BytesView hay, std::string_view needle) {
  std::size_t n = 0;
  const auto* first = reinterpret_cast<const char*>(hay.data());
  const std::string_view text(first, hay.size());
  for (std::size_t at = text.find(needle); at != std::string_view::npos;
       at = text.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

void splice(Bytes& payload, Rng& rng, std::string_view text) {
  if (payload.size() < text.size()) payload.resize(text.size(), ' ');
  const std::size_t at = rng.index(payload.size() - text.size() + 1);
  std::copy(text.begin(), text.end(),
            payload.begin() + static_cast<std::ptrdiff_t>(at));
}

/// Chooses what to plant: rules owned by a middlebox on the flow's chain,
/// never twice in one flow, drawn from texts that cannot occur in the
/// unplanted traffic (each holds a byte the traffic never uses).
class Planter {
 public:
  Planter(const Inputs& inputs, const std::array<bool, 256>& traffic_bytes,
          const std::vector<std::string>& excluded) {
    for (int m = 0; m < 2; ++m) {
      for (const mbox::RuleSpec& r : inputs.rules[m]) {
        Plantable p{static_cast<dpi::MiddleboxId>(m + 1), r.id,
                    r.exact.empty() ? regex_instance(r.regex) : r.exact};
        if (r.exact.empty()) {
          regex_[m].push_back(std::move(p));
          continue;
        }
        if (std::find(excluded.begin(), excluded.end(), r.exact) !=
            excluded.end()) {
          continue;
        }
        const bool rare = std::any_of(
            r.exact.begin(), r.exact.end(), [&](char c) {
              return !traffic_bytes[static_cast<std::uint8_t>(c)];
            });
        (rare ? exact_ : common_)[m].push_back(std::move(p));
      }
      // Traffic built from pattern text (match_dense) may leave few rare
      // candidates; the per-flow uniqueness check still rejects any plant
      // whose text also occurs elsewhere in its flow.
      if (exact_[m].size() < kMinRareCandidates) {
        exact_[m].insert(exact_[m].end(), common_[m].begin(), common_[m].end());
      }
      if (exact_[m].empty()) {
        throw std::runtime_error("inputs: no plantable rule for a middlebox");
      }
    }
  }

  /// Picks a rule for `flow` on `chain` not yet planted there.
  const Plantable& pick(Rng& rng, dpi::ChainId chain, double regex_share,
                        std::vector<const Plantable*>& used) {
    for (;;) {
      const int m =
          chain == kStatelessChain ? 0 : static_cast<int>(rng.index(2));
      const bool regex = !regex_[m].empty() && rng.bernoulli(regex_share);
      const auto& pool = regex ? regex_[m] : exact_[m];
      const Plantable& p = pool[rng.index(pool.size())];
      if (std::find(used.begin(), used.end(), &p) == used.end()) {
        used.push_back(&p);
        return p;
      }
    }
  }

 private:
  static constexpr std::size_t kMinRareCandidates = 64;
  std::vector<Plantable> exact_[2];
  std::vector<Plantable> common_[2];
  std::vector<Plantable> regex_[2];
};

/// One plant waiting for the per-flow uniqueness check.
struct PendingPlant {
  const Plantable* what = nullptr;
  Planted record;
};

/// Keeps a plant only if its text occurs exactly once in the flow's
/// plaintext; otherwise the ground truth would be ambiguous.
void commit_plants(Inputs& inputs, const std::vector<PendingPlant>& plants,
                   const std::vector<std::vector<const Bytes*>>& texts) {
  for (const PendingPlant& p : plants) {
    std::size_t n = 0;
    for (const Bytes* t : texts[p.record.flow]) {
      n += count_occurrences(*t, p.what->text);
    }
    if (n == 1) {
      inputs.planted.push_back(p.record);
    } else {
      ++inputs.ambiguous_plants;
    }
  }
}

void register_rules(Inputs& inputs, bool with_regex) {
  // Few protocol-word fragments, so that, as in the paper's traces, more
  // than 90% of benign HTTP packets match nothing.
  workload::PatternSetConfig pc = workload::snort_like(kExactRules, kPatternSeed);
  pc.fragment_probability = kFragmentProbability;
  const auto patterns = workload::generate_patterns(pc);
  for (std::size_t r = 0; r < patterns.size(); ++r) {
    mbox::RuleSpec spec;
    spec.id = static_cast<dpi::PatternId>(r);
    spec.exact = patterns[r];
    spec.verdict = kVerdicts[r % std::size(kVerdicts)];
    inputs.rules[r % 2].push_back(std::move(spec));
  }
  if (!with_regex) return;
  const auto regexes = workload::generate_regex_rules(kRegexRules, kRegexSeed);
  for (std::size_t k = 0; k < regexes.size(); ++k) {
    mbox::RuleSpec spec;
    spec.id = static_cast<dpi::PatternId>(kRegexRuleBase + k);
    spec.regex = regexes[k];
    spec.verdict = kVerdicts[k % std::size(kVerdicts)];
    inputs.rules[k % 2].push_back(std::move(spec));
  }
}

std::array<bool, 256> bytes_used(const std::vector<const Bytes*>& texts) {
  std::array<bool, 256> used{};
  for (const Bytes* t : texts) {
    for (std::uint8_t b : *t) used[b] = true;
  }
  return used;
}

dpi::ChainId chain_of_flow(std::uint32_t flow) {
  return flow % 2 == 0 ? kStatelessChain : kStatefulChain;
}

void add_packet(Inputs& inputs, net::Packet packet, std::uint32_t flow,
                std::uint32_t stride) {
  const dpi::ChainId chain = chain_of_flow(flow);
  packet.push_tag(net::TagKind::kPolicyChain, chain);
  inputs.payload_bytes += packet.payload.size();
  inputs.packets.push_back(std::move(packet));
  inputs.flow_of.push_back(flow);
  inputs.chain_of.push_back(chain);
  inputs.seq_stride.push_back(stride);
}

/// Packet-per-payload traffic (http_ingest, match_dense): packet i belongs
/// to flow i % flows, as the shared generators lay it out.
void plant_packets(Inputs& inputs, workload::Trace& trace, std::uint64_t seed,
                   double plant_rate, const std::vector<std::string>& excluded) {
  const auto flows = static_cast<std::uint32_t>(inputs.num_flows);
  std::vector<std::vector<const Bytes*>> texts(flows);
  std::vector<const Bytes*> all;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    texts[i % flows].push_back(&trace[i].payload);
    all.push_back(&trace[i].payload);
  }
  Planter planter(inputs, bytes_used(all), excluded);
  Rng rng(seed ^ 0x9E3779B97F4A7C15ULL);
  std::vector<std::vector<const Plantable*>> used(flows);
  std::vector<PendingPlant> plants;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (!rng.bernoulli(plant_rate)) continue;
    const auto flow = static_cast<std::uint32_t>(i % flows);
    const Plantable& p =
        planter.pick(rng, chain_of_flow(flow), 0.0, used[flow]);
    splice(trace[i].payload, rng, p.text);
    plants.push_back({&p, Planted{flow, p.mbox, p.rule, false}});
  }
  commit_plants(inputs, plants, texts);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    add_packet(inputs,
               workload::to_packet(trace[i], static_cast<std::uint16_t>(i)),
               static_cast<std::uint32_t>(i % flows), 0);
  }
}

Inputs http_ingest(std::uint64_t seed, InputSize size) {
  Inputs inputs;
  inputs.workload = Workload::kHttpIngest;
  inputs.num_flows = static_cast<std::uint32_t>(size.flows);
  register_rules(inputs, false);
  workload::TrafficConfig tc;
  tc.num_packets = size.packets;
  tc.num_flows = size.flows;
  tc.min_payload = 256;
  tc.max_payload = 1460;
  tc.planted_match_rate = 0.0;
  tc.seed = seed;
  workload::Trace trace = workload::generate_http_trace(tc);
  plant_packets(inputs, trace, seed, 0.05, {});
  return inputs;
}

Inputs match_dense(std::uint64_t seed, InputSize size) {
  Inputs inputs;
  inputs.workload = Workload::kMatchDense;
  inputs.num_flows = static_cast<std::uint32_t>(size.flows);
  register_rules(inputs, false);
  Rng rng(seed ^ 0xD1B54A32D192ED03ULL);
  std::vector<std::string> targets;
  while (targets.size() < kAttackTargets) {
    const auto& rules = inputs.rules[rng.index(2)];
    const std::string& p = rules[rng.index(rules.size())].exact;
    if (std::find(targets.begin(), targets.end(), p) == targets.end()) {
      targets.push_back(p);
    }
  }
  workload::TrafficConfig tc;
  tc.num_packets = size.packets;
  tc.num_flows = size.flows;
  tc.min_payload = 64;
  tc.max_payload = 256;
  tc.seed = seed;
  workload::Trace trace = workload::generate_attack_trace(tc, targets);
  plant_packets(inputs, trace, seed, 0.25, targets);
  return inputs;
}

/// full_chain: real TCP streams. Each flow sends one request segment and a
/// response that is plain text (1-3 segments) or a gzip body in one of three
/// shapes. Flows advance in round-robin waves, so every flow is open at once.
Inputs full_chain(std::uint64_t seed, InputSize size) {
  Inputs inputs;
  inputs.workload = Workload::kFullChain;
  inputs.num_flows = static_cast<std::uint32_t>(size.flows);
  register_rules(inputs, true);
  const auto flows = static_cast<std::uint32_t>(size.flows);

  // Text blobs: HTTP headers and body text from the shared generator.
  workload::TrafficConfig tc;
  tc.num_packets = size.flows * 6;
  tc.num_flows = 1;
  tc.min_payload = 256;
  tc.max_payload = 1460;
  tc.planted_match_rate = 0.0;
  tc.seed = seed;
  const workload::Trace blobs = workload::generate_http_trace(tc);
  std::size_t next_blob = 0;

  enum class Shape { kPlain, kOwnSegment, kWithHeaders, kSplit };
  struct FlowPlan {
    Shape shape = Shape::kPlain;
    std::vector<Bytes> texts;  // [0] request, then response texts / body
    bool swap_tail = false;    // reorder the last two plain segments
  };
  Rng rng(seed ^ 0xF1C0F1C0ULL);
  std::vector<FlowPlan> plans(flows);
  for (FlowPlan& plan : plans) {
    plan.texts.push_back(blobs[next_blob++].payload);
    if (rng.bernoulli(0.3)) {
      plan.shape = static_cast<Shape>(1 + rng.index(3));
      Bytes body = blobs[next_blob++].payload;
      if (rng.bernoulli(0.5)) {
        const Bytes& more = blobs[next_blob++].payload;
        body.insert(body.end(), more.begin(), more.end());
      }
      plan.texts.push_back(std::move(body));
    } else {
      const std::size_t segments = 1 + rng.index(3);
      for (std::size_t s = 0; s < segments; ++s) {
        plan.texts.push_back(blobs[next_blob++].payload);
      }
      plan.swap_tail = segments == 3 && rng.bernoulli(0.15);
    }
  }

  // Plant into the plaintext: always into a gzip body, sometimes into the
  // request or a plain response segment.
  {
    std::vector<std::vector<const Bytes*>> texts(flows);
    std::vector<const Bytes*> all;
    for (std::uint32_t f = 0; f < flows; ++f) {
      for (const Bytes& t : plans[f].texts) {
        texts[f].push_back(&t);
        all.push_back(&t);
      }
    }
    Planter planter(inputs, bytes_used(all), {});
    std::vector<PendingPlant> plants;
    for (std::uint32_t f = 0; f < flows; ++f) {
      FlowPlan& plan = plans[f];
      std::vector<const Plantable*> used;
      for (std::size_t t = 0; t < plan.texts.size(); ++t) {
        const bool body = plan.shape != Shape::kPlain && t == 1;
        if (!body && !rng.bernoulli(t == 0 ? 0.1 : 0.05)) continue;
        const Plantable& p = planter.pick(rng, chain_of_flow(f), 0.25, used);
        splice(plan.texts[t], rng, p.text);
        const bool fail_open = body && (plan.shape == Shape::kWithHeaders ||
                                        plan.shape == Shape::kSplit);
        plants.push_back({&p, Planted{f, p.mbox, p.rule, fail_open}});
      }
    }
    commit_plants(inputs, plants, texts);
  }

  // Wire segments per flow, in per-flow arrival order.
  struct Segment {
    bool to_server = true;
    Bytes payload;
    std::uint32_t stream_offset = 0;
  };
  std::vector<std::vector<Segment>> segments(flows);
  std::vector<std::array<std::uint32_t, 2>> stride(flows);
  for (std::uint32_t f = 0; f < flows; ++f) {
    FlowPlan& plan = plans[f];
    auto& segs = segments[f];
    segs.push_back({true, plan.texts[0], 0});
    if (plan.shape == Shape::kPlain) {
      for (std::size_t t = 1; t < plan.texts.size(); ++t) {
        segs.push_back({false, plan.texts[t], 0});
      }
    } else {
      const Bytes gz = compress::gzip_compress(plan.texts[1]);
      const std::string head =
          "HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n"
          "Content-Encoding: gzip\r\nContent-Length: " +
          std::to_string(gz.size()) + "\r\n\r\n";
      Bytes headers(head.begin(), head.end());
      ++inputs.gzip_bodies[static_cast<int>(plan.shape) - 1];
      if (plan.shape == Shape::kWithHeaders) {
        headers.insert(headers.end(), gz.begin(), gz.end());
        segs.push_back({false, std::move(headers), 0});
      } else if (plan.shape == Shape::kOwnSegment) {
        segs.push_back({false, std::move(headers), 0});
        segs.push_back({false, gz, 0});
      } else {
        const auto half = static_cast<std::ptrdiff_t>(gz.size() / 2);
        segs.push_back({false, std::move(headers), 0});
        segs.push_back({false, Bytes(gz.begin(), gz.begin() + half), 0});
        segs.push_back({false, Bytes(gz.begin() + half, gz.end()), 0});
      }
    }
    std::uint32_t offset[2] = {0, 0};
    for (Segment& s : segs) {
      s.stream_offset = offset[s.to_server ? 0 : 1];
      offset[s.to_server ? 0 : 1] += static_cast<std::uint32_t>(s.payload.size());
    }
    stride[f] = {offset[0], offset[1]};
    // A swap never touches a direction's first segment: the reassembler
    // anchors a stream at the first sequence number it sees.
    if (plan.swap_tail) {
      std::swap(segs[segs.size() - 1], segs[segs.size() - 2]);
      ++inputs.reordered_pairs;
    }
  }

  const net::Ipv4Addr server(93, 184, 216, 34);
  std::vector<std::array<std::uint32_t, 2>> isn(flows);
  std::vector<std::array<std::uint16_t, 2>> ip_id(flows);
  for (std::uint32_t f = 0; f < flows; ++f) {
    isn[f] = {static_cast<std::uint32_t>(rng.next()),
              static_cast<std::uint32_t>(rng.next())};
    ip_id[f] = {static_cast<std::uint16_t>(rng.next()),
                static_cast<std::uint16_t>(rng.next())};
  }
  std::size_t waves = 0;
  for (const auto& segs : segments) waves = std::max(waves, segs.size());
  for (std::size_t w = 0; w < waves; ++w) {
    for (std::uint32_t f = 0; f < flows; ++f) {
      if (w >= segments[f].size()) continue;
      const Segment& s = segments[f][w];
      const int dir = s.to_server ? 0 : 1;
      net::Packet p;
      p.src_mac = net::MacAddr(0x020000000001ULL);
      p.dst_mac = net::MacAddr(0x020000000002ULL);
      net::FiveTuple client;
      client.src_ip = net::Ipv4Addr(10, static_cast<std::uint8_t>(1 + (f >> 16)),
                                    static_cast<std::uint8_t>(f >> 8),
                                    static_cast<std::uint8_t>(f));
      client.dst_ip = server;
      client.src_port = static_cast<std::uint16_t>(32768 + (f & 0x3FFF));
      client.dst_port = 80;
      client.proto = net::IpProto::kTcp;
      if (s.to_server) {
        p.tuple = client;
      } else {
        p.tuple.src_ip = client.dst_ip;
        p.tuple.dst_ip = client.src_ip;
        p.tuple.src_port = client.dst_port;
        p.tuple.dst_port = client.src_port;
        p.tuple.proto = client.proto;
      }
      p.tcp_seq = isn[f][dir] + s.stream_offset;
      p.ip_id = ip_id[f][dir]++;
      p.payload = s.payload;
      if (p.payload.size() >= 512 && rng.bernoulli(0.1)) {
        std::vector<net::Packet> frags =
            net::fragment_packet(p, 8 * (24 + rng.index(33)));
        if (rng.bernoulli(0.5)) std::reverse(frags.begin(), frags.end());
        ++inputs.fragmented_datagrams;
        for (net::Packet& frag : frags) {
          add_packet(inputs, std::move(frag), f, stride[f][dir]);
        }
      } else {
        add_packet(inputs, std::move(p), f, stride[f][dir]);
      }
    }
  }
  return inputs;
}

}  // namespace

Workload parse_workload(const std::string& name) {
  if (name == "http_ingest") return Workload::kHttpIngest;
  if (name == "full_chain") return Workload::kFullChain;
  if (name == "match_dense") return Workload::kMatchDense;
  throw std::invalid_argument("unknown workload: " + name);
}

const std::vector<dpi::MiddleboxId>& chain_members(dpi::ChainId chain) {
  static const std::vector<dpi::MiddleboxId> kStateless = {kIds};
  static const std::vector<dpi::MiddleboxId> kStateful = {kIds, kFirewall};
  return chain == kStatelessChain ? kStateless : kStateful;
}

InputSize default_size(Workload workload, bool smoke) {
  const std::size_t div = smoke ? 16 : 1;
  switch (workload) {
    case Workload::kHttpIngest:
      return {20000 / div, 80000 / div};
    case Workload::kFullChain:
      return {16000 / div, 0};
    case Workload::kMatchDense:
      return {4096 / div, 65536 / div};
  }
  return {};
}

Inputs make_inputs(Workload workload, std::uint64_t seed, InputSize size) {
  switch (workload) {
    case Workload::kHttpIngest:
      return http_ingest(seed, size);
    case Workload::kFullChain:
      return full_chain(seed, size);
    case Workload::kMatchDense:
      return match_dense(seed, size);
  }
  throw std::invalid_argument("unknown workload");
}

}  // namespace perfbench
