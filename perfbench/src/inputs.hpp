// Seeded inputs of the end-to-end benchmark: the rule sets the middleboxes
// register, one pass of traffic per workload, and the ground-truth log of
// every planted (middlebox, rule) occurrence.
//
// The service receives only these generated packets. Traffic is replayed in
// passes; pass p of a TCP stream continues the stream's sequence space, so
// reassembly sees one long in-order stream rather than retransmissions.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dpi/types.hpp"
#include "mbox/middlebox.hpp"
#include "net/packet.hpp"

namespace perfbench {

namespace dpi = dpisvc::dpi;
namespace mbox = dpisvc::mbox;
namespace net = dpisvc::net;

enum class Workload { kHttpIngest, kFullChain, kMatchDense };

/// Parses a workload name; throws std::invalid_argument on an unknown one.
Workload parse_workload(const std::string& name);

/// Middlebox ids registered with the controller. The stateless chain holds
/// the IDS alone; the stateful chain holds the IDS and a stateful firewall.
inline constexpr dpi::MiddleboxId kIds = 1;
inline constexpr dpi::MiddleboxId kFirewall = 2;
inline constexpr dpi::ChainId kStatelessChain = 1;
inline constexpr dpi::ChainId kStatefulChain = 2;

/// Middleboxes of a chain, in chain order.
const std::vector<dpi::MiddleboxId>& chain_members(dpi::ChainId chain);

/// One planted occurrence: the flow it sits in and the rule that must be
/// reported for that flow. A (middlebox, rule) pair is planted at most once
/// per flow and its text occurs exactly once in the flow, so a per-flow
/// check counts every miss.
struct Planted {
  std::uint32_t flow = 0;
  dpi::MiddleboxId mbox = 0;
  dpi::PatternId rule = 0;
  /// Planted inside a gzip body that the instance scans raw (the body
  /// shares a segment with its headers, or is split over two segments).
  bool in_fail_open_body = false;
};

struct Inputs {
  Workload workload = Workload::kHttpIngest;
  /// Rules per middlebox, indexed by middlebox id - 1.
  std::vector<mbox::RuleSpec> rules[2];
  /// One pass of traffic, in arrival order. Every packet carries its
  /// policy-chain tag.
  std::vector<net::Packet> packets;
  /// Per packet: flow index and chain.
  std::vector<std::uint32_t> flow_of;
  std::vector<dpi::ChainId> chain_of;
  /// Per packet: sequence-space length of its direction's stream in one
  /// pass; pass p sends tcp_seq + p * seq_stride (0 without reassembly).
  std::vector<std::uint32_t> seq_stride;
  std::uint32_t num_flows = 0;
  std::vector<Planted> planted;
  /// Planted texts dropped from the log because they occurred more than
  /// once in their flow (ambiguous ground truth).
  std::uint64_t ambiguous_plants = 0;
  std::uint64_t payload_bytes = 0;  ///< per pass
  /// full_chain shape counts (per pass).
  std::uint64_t gzip_bodies[3] = {0, 0, 0};
  std::uint64_t fragmented_datagrams = 0;
  std::uint64_t reordered_pairs = 0;
};

struct InputSize {
  std::size_t flows = 0;
  std::size_t packets = 0;  ///< http_ingest and match_dense only
};

/// Default trace sizes; `smoke` shrinks them for the self-test.
InputSize default_size(Workload workload, bool smoke);

Inputs make_inputs(Workload workload, std::uint64_t seed, InputSize size);

}  // namespace perfbench
