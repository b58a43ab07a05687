// Drives packets from bytes pushed into a DpiInstance to middlebox verdicts,
// over the two data paths the service has:
//  - fast path: service::IngestPipeline -> Middlebox::apply_report_batch;
//  - full path: DpiInstance::process_batch -> net::decode_report ->
//    Middlebox::apply_report_entries.
// Set-up goes through the control plane: Middlebox::attach (JSON
// registration and admission analysis), register_policy_chain, then
// create_instance (compile and load).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "inputs.hpp"
#include "mbox/middlebox.hpp"
#include "service/controller.hpp"
#include "service/ingest.hpp"
#include "service/instance.hpp"
#include "spans.hpp"

namespace perfbench {

/// The two middleboxes, built once from the inputs' rules and attached to
/// every controller the run sets up.
struct Boxes {
  std::unique_ptr<dpisvc::mbox::Middlebox> box[2];

  explicit Boxes(const Inputs& inputs);
  dpisvc::mbox::Middlebox& of(dpisvc::dpi::MiddleboxId id) {
    return *box[id - 1];
  }
};

struct Service {
  std::unique_ptr<dpisvc::service::DpiController> controller;
  std::shared_ptr<dpisvc::service::DpiInstance> instance;
  double setup_s = 0;    ///< controller construction to engine loaded
  double attach_s = 0;   ///< both Middlebox::attach calls
  double compile_s = 0;  ///< create_instance (compile and load)
};

/// Instance configuration of a workload with `workers` shards.
dpisvc::service::InstanceConfig instance_config(const Inputs& inputs,
                                                std::size_t workers);

/// Sets up a controller with both middleboxes, both chains and one
/// instance. Throws std::runtime_error if the instance has no engine.
Service set_up(Boxes& boxes, const dpisvc::service::InstanceConfig& config,
               Spans* spans);

/// Order-sensitive 64-bit digest of one packet's reports and verdicts.
struct Digest {
  std::uint64_t h = 0x243F6A8885A308D3ULL;
  void mix(std::uint64_t v) noexcept {
    h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  }
  void section(dpisvc::dpi::MiddleboxId mbox,
               const std::vector<dpisvc::net::MatchEntry>& entries) noexcept {
    mix(mbox);
    for (const auto& e : entries) {
      mix(e.pattern_id);
      mix(e.position);
      mix(e.run_length);
    }
  }
};

/// Totals of one phase.
struct PhaseStats {
  std::uint64_t attempted = 0;
  std::uint64_t delivered = 0;
  std::uint64_t shed = 0;
  std::uint64_t payload_bytes = 0;
  double seconds = 0;
};

/// Replays the inputs through one instance, pass after pass; every phase
/// continues where the previous one stopped, so TCP streams stay in order.
class Driver {
 public:
  virtual ~Driver() = default;
  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  /// Exactly one pass from a pass boundary, recording every packet's digest
  /// and which planted occurrences were reported.
  virtual PhaseStats verify_pass() = 0;
  /// Saturated closed loop for `seconds`.
  virtual PhaseStats closed_loop(double seconds) = 0;
  /// Open loop at `rate` packets/s for `seconds`: each packet's latency runs
  /// from its scheduled send time to its verdict.
  virtual PhaseStats open_loop(double seconds, double rate) = 0;

  void set_spans(Spans* spans) noexcept { spans_ = spans; }

  // Verification outputs (verify_pass).
  std::vector<std::uint64_t> digest;
  std::vector<bool> found;  ///< per Inputs::planted entry
  std::uint64_t nonpass_verdicts = 0;
  std::uint64_t matchless = 0;  ///< packets with no report entry
  std::uint64_t reports = 0;
  std::uint64_t report_bytes = 0;
  // Open-loop samples (microseconds).
  std::vector<double> latency_us;
  std::vector<double> late_us;
  /// Report entries delivered to middleboxes, all phases.
  std::uint64_t entries = 0;

 protected:
  Driver(const Inputs& inputs, Boxes& boxes);

  enum class Mode { kCount, kVerify, kOpenLoop };

  std::size_t index_of(std::uint64_t seq) const noexcept {
    return static_cast<std::size_t>(seq % inputs_.packets.size());
  }
  /// Per-packet bookkeeping after its verdicts: `d` holds the reports,
  /// `verdicts` one verdict per chain member.
  void delivered(std::uint64_t seq, Digest& d,
                 const dpisvc::mbox::Verdict* verdicts, std::size_t n);
  void note_entries(std::uint64_t seq, dpisvc::dpi::MiddleboxId mbox,
                    const std::vector<dpisvc::net::MatchEntry>& entries,
                    Digest& d);
  /// Starts a phase; `open_loop_packets` sizes the latency sample buffers.
  void begin(Mode mode, double open_loop_packets = 0);
  PhaseStats finish();

  const Inputs& inputs_;
  Boxes& boxes_;
  Spans* spans_ = nullptr;
  Mode mode_ = Mode::kCount;
  std::uint64_t next_ = 0;  ///< next packet sequence number
  PhaseStats phase_;
  std::int64_t phase_start_ns_ = 0;
  bool packet_has_entries_ = false;
  /// Scheduled send time per in-flight packet (open loop), by seq & mask.
  std::vector<std::int64_t> sched_;
  static constexpr std::uint64_t kSchedMask = (1u << 16) - 1;
  /// Planted-entry indices per flow.
  std::vector<std::vector<std::uint32_t>> planted_of_flow_;
};

std::unique_ptr<Driver> make_driver(const Inputs& inputs,
                                    dpisvc::service::DpiInstance& instance,
                                    Boxes& boxes);

}  // namespace perfbench
