// Single-threaded stage replay of the full data path: one pass of the
// inputs through each layer's public function, in the order
// DpiInstance::process_on_shard calls them — IpDefragmenter::feed,
// FlowReassembler::feed, gzip/zlib inflate, Engine::scan_packet with a
// FlowTable cursor, encode_report, decode_report, then
// Middlebox::apply_report_entries. Each call is a span, so the replay gives
// per-layer costs the multi-threaded process path cannot expose from the
// outside; its verdict digests must equal the process path's.
#pragma once

#include <cstdint>
#include <vector>

#include "dpi/engine.hpp"
#include "harness.hpp"
#include "inputs.hpp"
#include "service/instance.hpp"
#include "spans.hpp"

namespace perfbench {

struct ReplayResult {
  std::vector<std::uint64_t> digest;  ///< per packet, as Driver::digest
  std::uint64_t fragments = 0;        ///< fragment packets fed to defrag
  std::uint64_t tcp_segments = 0;     ///< packets fed to reassembly
  std::uint64_t held = 0;             ///< segments that released no chunk
  std::uint64_t inflate_attempts = 0; ///< chunks that looked compressed
  std::uint64_t inflated = 0;         ///< chunks inflated
  std::uint64_t inflated_bytes = 0;   ///< inflate output
  std::uint64_t gzip_bearing = 0;     ///< chunks holding a gzip member
  std::uint64_t reports = 0;
  std::uint64_t report_bytes = 0;
};

ReplayResult stage_replay(const Inputs& inputs,
                          const dpisvc::service::InstanceConfig& config,
                          const dpisvc::dpi::Engine& engine, Boxes& boxes,
                          Spans& spans);

}  // namespace perfbench
