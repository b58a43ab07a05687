#include "replay.hpp"

#include <algorithm>
#include <array>
#include <optional>

#include "compress/inflate.hpp"
#include "dpi/flow_table.hpp"
#include "net/defrag.hpp"
#include "net/reassembly.hpp"
#include "net/result.hpp"

namespace perfbench {

using namespace dpisvc;

namespace {

bool holds_gzip_member(BytesView data) {
  static constexpr std::array<std::uint8_t, 3> kMagic = {0x1f, 0x8b, 0x08};
  return std::search(data.begin(), data.end(), kMagic.begin(), kMagic.end()) !=
         data.end();
}

}  // namespace

ReplayResult stage_replay(const Inputs& inputs,
                          const service::InstanceConfig& config,
                          const dpi::Engine& engine, Boxes& boxes,
                          Spans& spans) {
  static const std::vector<net::MatchEntry> kNoEntries;
  ReplayResult r;
  r.digest.assign(inputs.packets.size(), 0);
  net::IpDefragmenter defrag(config.defrag);
  net::FlowReassembler reassembler(config.reassembly);
  dpi::FlowTable flows(config.max_flows);
  compress::InflateLimits limits;
  limits.max_output = config.max_decompressed;

  for (std::size_t idx = 0; idx < inputs.packets.size(); ++idx) {
    net::Packet packet = inputs.packets[idx];
    const dpi::ChainId chain = inputs.chain_of[idx];
    const auto& members = chain_members(chain);
    net::MatchReport report;
    bool scan = true;

    if (config.defragment_ip) {
      const SpanScope span(&spans, Spans::kDefragFeed, idx);
      if (packet.is_fragment()) {
        ++r.fragments;
        std::optional<net::Packet> full = defrag.feed(packet);
        if (full) {
          packet = std::move(*full);
        } else {
          scan = false;
        }
      } else {
        defrag.tick();
      }
    }
    std::optional<Bytes> chunk;
    if (scan && config.reassemble_tcp &&
        packet.tuple.proto == net::IpProto::kTcp) {
      ++r.tcp_segments;
      const SpanScope span(&spans, Spans::kReassemblyFeed, idx);
      std::optional<net::ReassembledChunk> c = reassembler.feed(packet);
      if (c) {
        chunk = std::move(c->data);
      } else {
        ++r.held;
        scan = false;
      }
    }
    if (scan) {
      const BytesView stream = chunk ? BytesView(*chunk) : BytesView(packet.payload);
      BytesView scan_bytes = stream;
      std::optional<Bytes> inflated;
      if (config.decompress_payloads) {
        if (holds_gzip_member(stream)) ++r.gzip_bearing;
        const bool gzip = compress::looks_like_gzip(stream);
        if (gzip || compress::looks_like_zlib(stream)) {
          ++r.inflate_attempts;
          const SpanScope span(&spans, Spans::kInflate, idx);
          try {
            inflated = gzip ? compress::gzip_decompress(stream, limits)
                            : compress::zlib_decompress(stream, limits);
          } catch (const compress::InflateError&) {
            // Scanned raw, as the instance does.
          }
        }
        if (inflated) {
          ++r.inflated;
          r.inflated_bytes += inflated->size();
          scan_bytes = *inflated;
        }
      }
      dpi::ScanResult scanned;
      {
        const SpanScope span(&spans, Spans::kEngineScan, idx);
        const bool stateful = engine.chain_stateful(chain);
        dpi::FlowCursor cursor;
        if (stateful) cursor = flows.lookup(packet.tuple);
        scanned = engine.scan_packet(chain, scan_bytes, cursor);
        if (stateful) flows.update(packet.tuple, scanned.cursor);
      }
      if (scanned.has_matches()) {
        net::MatchReport built;
        built.policy_chain_id = chain;
        built.packet_ref =
            packet.tuple.hash() ^ (static_cast<std::uint64_t>(packet.ip_id) << 48);
        for (const dpi::MiddleboxMatches& m : scanned.matches) {
          if (m.entries.empty()) continue;
          built.sections.push_back(net::MiddleboxSection{m.middlebox, m.entries});
        }
        Bytes encoded;
        {
          const SpanScope span(&spans, Spans::kEncodeReport, idx);
          encoded = net::encode_report(built, config.codec);
        }
        {
          const SpanScope span(&spans, Spans::kDecodeReport, idx);
          report = net::decode_report(encoded);
        }
        ++r.reports;
        r.report_bytes += encoded.size();
      }
    }

    mbox::Verdict v[2] = {mbox::Verdict::kPass, mbox::Verdict::kPass};
    {
      const SpanScope span(&spans, Spans::kMboxApply, idx);
      for (std::size_t k = 0; k < members.size(); ++k) {
        const std::vector<net::MatchEntry>* e = &kNoEntries;
        for (const net::MiddleboxSection& s : report.sections) {
          if (s.middlebox_id == members[k]) e = &s.entries;
        }
        v[k] = boxes.of(members[k]).apply_report_entries(packet, *e);
      }
    }
    Digest d;
    for (const net::MiddleboxSection& s : report.sections) {
      d.section(s.middlebox_id, s.entries);
    }
    for (std::size_t k = 0; k < members.size(); ++k) {
      d.mix(static_cast<std::uint64_t>(v[k]));
    }
    r.digest[idx] = d.h;
  }
  return r;
}

}  // namespace perfbench
