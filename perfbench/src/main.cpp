// End-to-end DPI-service benchmark: the dpisvc_perfbench binary.
//
//   dpisvc_perfbench --workload <http_ingest|full_chain|match_dense>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    [--offered-pps <rate>] [--spans-dir <dir>] [--smoke]
//   dpisvc_perfbench --self-test
//
// One process: one producer thread (this one) and nproc - 1 scan workers.
// Every run sets the service up through the control plane several times,
// then checks correctness on one pass of the traffic (the multi-worker
// reports and verdicts must equal the 1-worker inline run, every packet
// must be delivered, every planted occurrence is looked up in its flow's
// reports).
//
// --trace 0 then measures the end-to-end metrics: a saturated closed loop
// with 1 worker and with nproc - 1 workers, and an open loop at the offered
// rate. --trace 1 instead alternates untraced and traced closed-loop
// phases, reads the instance's own histograms and counters, and — on the
// full path — runs the single-threaded stage replay, to give the per-layer
// metrics. The last stdout line is the JSON result.
#include <dirent.h>
#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ac/hot_kernel.hpp"
#include "common/logging.hpp"
#include "harness.hpp"
#include "inputs.hpp"
#include "obs/metrics.hpp"
#include "replay.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

using namespace dpisvc;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double offered_pps = 0;
  std::string spans_dir = ".";
  bool smoke = false;
  bool self_test = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value());
    } else if (flag == "--trace") {
      a.trace = value() != "0";
    } else if (flag == "--offered-pps") {
      a.offered_pps = std::stod(value());
    } else if (flag == "--spans-dir") {
      a.spans_dir = value();
    } else if (flag == "--smoke") {
      a.smoke = true;
    } else if (flag == "--self-test") {
      a.self_test = true;
    } else {
      throw std::invalid_argument("unknown argument: " + flag);
    }
  }
  if (!a.self_test && a.workload.empty()) {
    throw std::invalid_argument("--workload is required");
  }
  if (a.seconds <= 0) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::uint64_t samples = 0;
};

std::size_t cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Pins this (producer) thread to the first allowed CPU and every other
/// thread of the process — the scan workers — one per remaining CPU, so a
/// worker woken by the producer never queues behind the spinning producer.
/// Returns a description for the result stamp.
std::string pin_threads() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return "off";
  std::vector<int> cpu_list;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpu_list.push_back(c);
  }
  if (cpu_list.size() < 2) return "off";
  auto pin = [](pid_t tid, int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(tid, sizeof(one), &one) == 0;
  };
  const auto self = static_cast<pid_t>(syscall(SYS_gettid));
  std::string out = "producer=cpu" + std::to_string(cpu_list[0]) + " workers=";
  if (!pin(self, cpu_list[0])) return "off";
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return "off";
  std::size_t k = 0;
  while (const dirent* e = readdir(dir)) {
    const auto tid = static_cast<pid_t>(std::atoi(e->d_name));
    if (tid <= 0 || tid == self) continue;
    const int cpu = cpu_list[1 + k++ % (cpu_list.size() - 1)];
    if (pin(tid, cpu)) out += (k > 1 ? ",cpu" : "cpu") + std::to_string(cpu);
  }
  closedir(dir);
  return out;
}

/// Sums of the instance's per-shard instruments.
struct ShardTotals {
  HistCounts scan_ns;
  HistCounts queue_wait_ns;
  HistCounts batch_packets;
  std::vector<double> packets;  ///< per shard
  double bytes = 0;
  double raw_hits = 0;
  double blocked = 0;

  void add(const MetricsSnap& s, std::size_t shards, double sign) {
    if (packets.empty()) packets.assign(shards, 0.0);
    for (std::size_t i = 0; i < shards; ++i) {
      const std::string p = "shard" + std::to_string(i) + ".";
      scan_ns.add(s.hist(p + "scan_ns"), sign);
      packets[i] += sign * s.counter(p + "packets");
      bytes += sign * s.counter(p + "bytes");
      raw_hits += sign * s.counter(p + "raw_hits");
    }
    queue_wait_ns.add(s.hist("pool.queue_wait_ns"), sign);
    batch_packets.add(s.hist("ingest.batch_packets"), sign);
    blocked += sign * s.counter("ingest.backpressure.blocked");
  }
};

/// Self-test of the statistics: the tail rule and the bucket estimate.
int self_test() {
  int failures = 0;
  auto check = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "self-test FAILED: %s\n", what);
      ++failures;
    }
  };
  std::vector<double> v;
  for (int i = 1; i <= 999; ++i) v.push_back(i);
  check(!quantile(v, 0.99).has_value(), "p99 of 999 samples is withheld");
  v.push_back(1000);
  const auto p99 = quantile(v, 0.99);
  check(p99.has_value() && std::fabs(*p99 - 990.01) < 1e-9,
        "p99 of 1..1000 is 990.01");
  check(!quantile(std::vector<double>(19, 1.0), 0.5).has_value(),
        "median of 19 samples is withheld");
  check(quantile(std::vector<double>(20, 3.0), 0.5) == 3.0,
        "median of 20 equal samples");
  obs::Histogram h(obs::Histogram::latency_bounds_ns());
  for (std::uint64_t x = 0; x < 5000; ++x) h.record((x * 7919) % 300000);
  obs::MetricsRegistry reg;
  obs::Histogram& rh = reg.histogram("h", obs::Histogram::latency_bounds_ns());
  for (std::uint64_t x = 0; x < 5000; ++x) rh.record((x * 7919) % 300000);
  const HistCounts hc = MetricsSnap(reg.snapshot()).hist("h");
  for (double q : {0.5, 0.9, 0.99}) {
    check(std::fabs(hc.percentile(q) - h.percentile(q)) < 1e-6,
          "bucket percentile equals obs::Histogram::percentile");
  }
  std::printf("self-test: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

void print_metric(const Metric& m) {
  std::printf("# metric %-28s %.6g %s samples=%llu\n", m.name.c_str(), m.value,
              m.unit.c_str(), static_cast<unsigned long long>(m.samples));
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int run(const Args& args) {
  // Numbers from a debug build, or from a build whose per-layer histograms
  // are compiled out, would not be comparable: refuse them.
  const std::string build_type = PERFBENCH_BUILD_TYPE;
#ifndef NDEBUG
  throw std::runtime_error("refusing to measure: assertions are enabled");
#endif
  if (build_type != "Release") {
    throw std::runtime_error("refusing to measure a " + build_type +
                             " build; configure with -DCMAKE_BUILD_TYPE=Release");
  }
  if (!obs::kMetricsCompiledIn) {
    throw std::runtime_error(
        "refusing to measure: metrics are compiled out (DPISVC_NO_METRICS)");
  }
  if (!args.trace && args.offered_pps <= 0) {
    throw std::invalid_argument("--offered-pps is required with --trace 0");
  }
  set_log_level(LogLevel::kError);

  const Workload workload = parse_workload(args.workload);
  const std::size_t nproc = cpus();
  const std::size_t workers = std::max<std::size_t>(1, nproc - 1);
  const char* force_scalar = std::getenv("DPISVC_FORCE_SCALAR");
  const ac::KernelPolicy& policy = ac::kernel_policy();
  std::printf(
      "# perfbench workload=%s seed=%llu trace=%d seconds=%g smoke=%d\n"
      "# host nproc=%zu workers=%zu build=%s kernel_policy=\"%s\" "
      "interleave=%u DPISVC_FORCE_SCALAR=%s metrics_compiled_in=%d\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.trace ? 1 : 0, args.seconds, args.smoke ? 1 : 0, nproc, workers,
      build_type.c_str(), policy.reason, policy.interleave,
      force_scalar != nullptr ? force_scalar : "unset",
      obs::kMetricsCompiledIn ? 1 : 0);

  const Inputs inputs =
      make_inputs(workload, args.seed, default_size(workload, args.smoke));
  Boxes boxes(inputs);
  const std::size_t pass = inputs.packets.size();
  std::printf(
      "# inputs packets_per_pass=%zu flows=%u payload_bytes_per_pass=%llu "
      "planted=%zu ambiguous_plants_dropped=%llu gzip_bodies=%llu/%llu/%llu "
      "(own-segment/with-headers/split) fragmented_datagrams=%llu "
      "reordered_pairs=%llu\n",
      pass, inputs.num_flows,
      static_cast<unsigned long long>(inputs.payload_bytes),
      inputs.planted.size(),
      static_cast<unsigned long long>(inputs.ambiguous_plants),
      static_cast<unsigned long long>(inputs.gzip_bodies[0]),
      static_cast<unsigned long long>(inputs.gzip_bodies[1]),
      static_cast<unsigned long long>(inputs.gzip_bodies[2]),
      static_cast<unsigned long long>(inputs.fragmented_datagrams),
      static_cast<unsigned long long>(inputs.reordered_pairs));
  std::fflush(stdout);

  const double rss_base = settled_rss_bytes();
  Spans spans(args.trace ? 200000 : 0);
  Spans* traced = args.trace ? &spans : nullptr;

  // Set-up through the control plane, repeated; the last one is kept.
  const service::InstanceConfig config = instance_config(inputs, workers);
  const int setups = args.smoke ? 2 : 5;
  std::vector<double> setup_s, attach_s, compile_s;
  Service svc;
  for (int k = 0; k < setups; ++k) {
    svc = Service{};
    svc = set_up(boxes, config, traced);
    std::printf("# setup rep=%d setup_s=%.4f attach_s=%.4f compile_s=%.4f\n",
                k, svc.setup_s, svc.attach_s, svc.compile_s);
    setup_s.push_back(svc.setup_s);
    attach_s.push_back(svc.attach_s);
    compile_s.push_back(svc.compile_s);
  }
  spans.reset_aggregates();
  service::DpiInstance& primary = *svc.instance;
  auto one_worker =
      svc.controller->create_instance("dpi-1w", instance_config(inputs, 1));
  const auto engine = primary.engine_snapshot();

  std::printf("# pinning %s\n", pin_threads().c_str());
  std::unique_ptr<Driver> dn = make_driver(inputs, primary, boxes);
  std::unique_ptr<Driver> d1 = make_driver(inputs, *one_worker, boxes);

  // Correctness on one pass: both instances start fresh.
  std::uint64_t attempted = 0, delivered = 0, shed = 0;
  auto account = [&](const PhaseStats& p) {
    attempted += p.attempted;
    delivered += p.delivered;
    shed += p.shed;
    return p;
  };
  account(d1->verify_pass());
  account(dn->verify_pass());
  std::uint64_t worker_mismatch = 0;
  for (std::size_t i = 0; i < pass; ++i) {
    if (d1->digest[i] != dn->digest[i]) ++worker_mismatch;
  }
  std::uint64_t missing = 0, missing_fail_open = 0;
  for (std::size_t i = 0; i < inputs.planted.size(); ++i) {
    if (dn->found[i]) continue;
    ++missing;
    if (inputs.planted[i].in_fail_open_body) ++missing_fail_open;
  }
  const std::uint64_t missing_unexpected = missing - missing_fail_open;
  // Deterministic per-pass counts, read before any timed phase.
  const MetricsSnap after_verify(primary.metrics().snapshot());
  const std::size_t occupancy = primary.active_flows();
  const net::DefragStats defrag = primary.defrag_stats();
  const net::ReassemblyStats reassembly = primary.reassembly_stats();
  double anchor_hits = 0, regex_evals = 0, regex_matches = 0;
  for (std::size_t i = 0; i < workers; ++i) {
    const std::string p = "shard" + std::to_string(i) + ".";
    anchor_hits += after_verify.counter(p + "anchor_hits");
    regex_evals += after_verify.counter(p + "regex_evals");
    regex_matches += after_verify.counter(p + "regex_matches");
  }

  std::vector<Metric> metrics;
  std::uint64_t replay_mismatch = 0;
  std::uint64_t latency_samples = 0;
  const double tsc = args.trace ? tsc_ghz() : 0.0;

  if (!args.trace) {
    // The three phases run as short windows, interleaved over the whole run
    // in kRounds rounds: a slow stretch of the host moves a few windows of
    // every phase rather than all of one phase. Throughput metrics are the
    // median window. On a shared virtual machine the vCPUs also stall for
    // milliseconds a few times a second, and one such stall sets a whole
    // window's p99; latency_p99_us is therefore the lower decile of the
    // window p99s (the p99 of a window the host left alone), with the median
    // window p99 and the pooled p99 printed beside it.
    struct Window {
      double pps = 0, gbps = 0, p50 = 0, p99 = 0;
    };
    constexpr int kRounds = 4;
    constexpr int kOneWorkerPerRound = 3;
    constexpr int kClosedPerRound = 3;  // nproc - 1 workers
    constexpr int kOpenPerRound = 16;
    // Per round: 3 + 3 one-slot closed windows, 16 quarter-slot open windows.
    const double slot = args.seconds / (kRounds * 10.0);
    std::uint64_t delivered_1w = 0, delivered_nw = 0;
    auto closed = [&](Driver& d, double seconds, std::uint64_t& packets) {
      const PhaseStats p = account(d.closed_loop(seconds));
      packets += p.delivered;
      return Window{ratio(static_cast<double>(p.delivered), p.seconds),
                    ratio(static_cast<double>(p.payload_bytes) * 8.0 / 1e9,
                          p.seconds)};
    };
    std::vector<Window> w1, wn, wo;
    std::vector<double> late;
    double offered_delivered = 0, offered_seconds = 0;
    std::vector<double> pooled;
    for (int round = 0; round < kRounds; ++round) {
      for (int w = 0; w < kOneWorkerPerRound; ++w) {
        w1.push_back(closed(*d1, slot, delivered_1w));
      }
      for (int w = 0; w < kClosedPerRound; ++w) {
        wn.push_back(closed(*dn, slot, delivered_nw));
      }
      for (int w = 0; w < kOpenPerRound; ++w) {
        const PhaseStats p =
            account(dn->open_loop(slot / 4, args.offered_pps));
        offered_delivered += static_cast<double>(p.delivered);
        offered_seconds += p.seconds;
        const auto p50 = quantile(dn->latency_us, 0.50);
        const auto p99 = quantile(dn->latency_us, 0.99);
        if (!p50 || !p99) {
          throw std::runtime_error(
              "open-loop window gave too few latency samples for a p99");
        }
        latency_samples += dn->latency_us.size();
        wo.push_back({0, 0, *p50, *p99});
        pooled.insert(pooled.end(), dn->latency_us.begin(),
                      dn->latency_us.end());
        late.insert(late.end(), dn->late_us.begin(), dn->late_us.end());
      }
    }
    auto print_windows = [](const char* what, const std::vector<Window>& ws,
                            double Window::*field) {
      std::printf("# windows %s", what);
      for (const Window& w : ws) std::printf(" %.4g", w.*field);
      std::printf("\n");
    };
    print_windows("pps_1w", w1, &Window::pps);
    print_windows("pps", wn, &Window::pps);
    print_windows("latency_p50_us", wo, &Window::p50);
    print_windows("latency_p99_us", wo, &Window::p99);
    auto med = [](const std::vector<Window>& ws, double Window::*field) {
      std::vector<double> v;
      for (const Window& w : ws) v.push_back(w.*field);
      return median(v);
    };
    std::printf(
        "# open_loop offered_pps=%.0f achieved_pps=%.0f samples=%llu "
        "windows=%d generator_late_p50_us=%.3f generator_late_p99_us=%.3f "
        "generator_late_max_us=%.3f\n",
        args.offered_pps, ratio(offered_delivered, offered_seconds),
        static_cast<unsigned long long>(latency_samples),
        static_cast<int>(wo.size()),
        quantile(late, 0.5).value_or(0.0), quantile(late, 0.99).value_or(0.0),
        late.empty() ? 0.0 : *std::max_element(late.begin(), late.end()));
    std::vector<double> window_p99;
    for (const Window& w : wo) window_p99.push_back(w.p99);
    const double p99 = *quantile(window_p99, 0.1);
    std::printf(
        "# latency_p99_us lower_decile_of_windows=%.2f median_of_windows=%.2f "
        "pooled=%.2f\n",
        p99, median(window_p99), quantile(pooled, 0.99).value_or(0.0));
    // The latency samples are the benchmark's, not the service's memory.
    std::vector<double>().swap(pooled);
    std::vector<double>().swap(late);
    std::vector<double>().swap(dn->latency_us);
    std::vector<double>().swap(dn->late_us);
    const double rss_end = settled_rss_bytes();
    const double pps = med(wn, &Window::pps);
    metrics = {
        {"setup_s", median(setup_s), "s", setup_s.size()},
        {"goodput_gbps", med(wn, &Window::gbps), "Gbit/s", delivered_nw},
        {"pps", pps, "1/s", delivered_nw},
        {"pps_1w", med(w1, &Window::pps), "1/s", delivered_1w},
        {"latency_p50_us", med(wo, &Window::p50), "us", latency_samples},
        {"latency_p99_us", p99, "us", latency_samples},
        {"verdict_accuracy", 0.0, "frac", attempted},
        {"rss_mb", (rss_end - rss_base) / (1024.0 * 1024.0), "MiB", 1},
        {"engine_mb",
         static_cast<double>(engine->memory_bytes() +
                             engine->kernel_memory_bytes()) /
             (1024.0 * 1024.0),
         "MiB", 1},
    };
    std::printf("# worker_scaling pps/pps_1w=%.3f (workers=%zu)\n",
                ratio(pps, metrics[3].value), workers);
  } else {
    // Untraced and traced phases alternate on the same instance; the
    // instance's histograms are differenced around the traced ones.
    const std::size_t shards = primary.num_shards();
    ShardTotals delta;
    PhaseStats untraced{}, traced_total{};
    std::uint64_t traced_entries = 0;
    for (int half = 0; half < 2; ++half) {
      const PhaseStats u = account(dn->closed_loop(0.25 * args.seconds));
      untraced.delivered += u.delivered;
      untraced.seconds += u.seconds;
      const MetricsSnap before(primary.metrics().snapshot());
      const std::uint64_t e0 = dn->entries;
      dn->set_spans(&spans);
      const PhaseStats t = account(dn->closed_loop(0.25 * args.seconds));
      dn->set_spans(nullptr);
      traced_entries += dn->entries - e0;
      const MetricsSnap after(primary.metrics().snapshot());
      delta.add(after, shards, +1.0);
      delta.add(before, shards, -1.0);
      traced_total.delivered += t.delivered;
      traced_total.seconds += t.seconds;
    }
    const double traced_ns = traced_total.seconds * 1e9;
    const double traced_pkts = static_cast<double>(traced_total.delivered);

    Spans replay_spans(args.trace ? 200000 : 0);
    ReplayResult rr;
    const bool full_path = workload != Workload::kHttpIngest;
    if (full_path) {
      rr = stage_replay(inputs, config, *engine, boxes, replay_spans);
      for (std::size_t i = 0; i < pass; ++i) {
        if (rr.digest[i] != dn->digest[i]) ++replay_mismatch;
      }
    }

    auto agg = [](const Spans& s, Spans::Name n) { return s.aggregate(n); };
    auto mean_total = [&](const Spans& s, Spans::Name n) {
      const auto a = agg(s, n);
      return ratio(static_cast<double>(a.total_ns), static_cast<double>(a.count));
    };
    auto mean_self = [&](const Spans& s, Spans::Name n) {
      const auto a = agg(s, n);
      return ratio(static_cast<double>(a.self_ns), static_cast<double>(a.count));
    };
    auto count = [&](const Spans& s, Spans::Name n) { return agg(s, n).count; };

    double max_shard = 0, sum_shard = 0;
    for (double p : delta.packets) {
      max_shard = std::max(max_shard, p);
      sum_shard += p;
    }
    const double mean_shard = sum_shard / static_cast<double>(shards);
    const double kib = delta.bytes / 1024.0;
    const double untraced_pps =
        ratio(static_cast<double>(untraced.delivered), untraced.seconds);
    const double traced_pps = ratio(traced_pkts, traced_total.seconds);
    const double gzip_bearing = static_cast<double>(rr.gzip_bearing);
    const double inflated = static_cast<double>(rr.inflated);
    const auto n_scan = static_cast<std::uint64_t>(delta.scan_ns.count());
    const auto n_wait = static_cast<std::uint64_t>(delta.queue_wait_ns.count());
    const auto tp = static_cast<std::uint64_t>(traced_pkts);

    metrics = {
        {"controller.attach_s", median(attach_s), "s", attach_s.size()},
        {"controller.compile_s", median(compile_s), "s", compile_s.size()},
        {"engine.states", static_cast<double>(engine->num_automaton_states()),
         "count", 1},
        {"ingest.push_ns", mean_self(spans, Spans::kIngestPush), "ns",
         count(spans, Spans::kIngestPush)},
        {"ingest.drain_wait_ns", mean_self(spans, Spans::kIngestDrain), "ns",
         count(spans, Spans::kIngestDrain)},
        {"ingest.blocked_frac",
         ratio(delta.blocked, delta.batch_packets.count()), "frac",
         static_cast<std::uint64_t>(delta.batch_packets.count())},
        {"ingest.batch_packets_mean",
         ratio(delta.batch_packets.sum, delta.batch_packets.count()), "count",
         static_cast<std::uint64_t>(delta.batch_packets.count())},
        {"scan_pool.queue_wait_p50_ns", delta.queue_wait_ns.percentile(0.5),
         "ns", n_wait},
        {"scan_pool.queue_wait_p99_ns", delta.queue_wait_ns.percentile(0.99),
         "ns", n_wait},
        {"scan_pool.worker_busy_frac",
         ratio(delta.scan_ns.sum, static_cast<double>(workers) * traced_ns),
         "frac", n_scan},
        {"scan_pool.shard_skew", ratio(max_shard, mean_shard), "ratio", shards},
        {"instance.scan_ns_p50", delta.scan_ns.percentile(0.5), "ns", n_scan},
        {"instance.scan_ns_p99", delta.scan_ns.percentile(0.99), "ns", n_scan},
        {"instance.process_ns",
         ratio(static_cast<double>(agg(spans, Spans::kProcessBatch).total_ns),
               traced_pkts),
         "ns", count(spans, Spans::kProcessBatch)},
        {"flow_table.evictions",
         static_cast<double>(primary.telemetry().flow_evictions), "count", 1},
        {"flow_table.occupancy", static_cast<double>(occupancy), "count", 1},
        {"engine.bytes_per_cycle", ratio(delta.bytes, delta.scan_ns.sum * tsc),
         "B/tsc_cycle", n_scan},
        {"engine.scan_ns_per_kb", ratio(delta.scan_ns.sum, kib), "ns/KiB",
         n_scan},
        {"engine.raw_hits_per_kb", ratio(delta.raw_hits, kib), "count/KiB",
         n_scan},
        {"engine.report_yield",
         ratio(static_cast<double>(traced_entries), delta.raw_hits), "frac",
         static_cast<std::uint64_t>(delta.raw_hits)},
        {"regex.anchor_hits", anchor_hits, "count", pass},
        {"regex.evals", regex_evals, "count", pass},
        {"regex.yield", ratio(regex_matches, regex_evals), "frac",
         static_cast<std::uint64_t>(regex_evals)},
        {"defrag.ns_per_fragment",
         ratio(static_cast<double>(agg(replay_spans, Spans::kDefragFeed).total_ns),
               static_cast<double>(rr.fragments)),
         "ns", rr.fragments},
        {"defrag.fragments", static_cast<double>(defrag.fragments), "count",
         pass},
        {"defrag.rejected",
         static_cast<double>(defrag.rejected_tiny + defrag.rejected_bounds),
         "count", pass},
        {"reassembly.ns_per_segment",
         mean_total(replay_spans, Spans::kReassemblyFeed), "ns",
         rr.tcp_segments},
        {"reassembly.held_frac",
         ratio(static_cast<double>(rr.held), static_cast<double>(rr.tcp_segments)),
         "frac", rr.tcp_segments},
        {"reassembly.dropped_segments",
         static_cast<double>(reassembly.dropped_segments), "count", pass},
        {"inflate.ns_per_kb_out",
         ratio(static_cast<double>(agg(replay_spans, Spans::kInflate).total_ns),
               static_cast<double>(rr.inflated_bytes) / 1024.0),
         "ns/KiB", rr.inflate_attempts},
        {"inflate.attempts", static_cast<double>(rr.inflate_attempts), "count",
         pass},
        {"inflate.yield", ratio(inflated, gzip_bearing), "frac",
         rr.gzip_bearing},
        {"inflate.fail_open", std::max(0.0, gzip_bearing - inflated), "count",
         rr.gzip_bearing},
        {"report.encode_ns", mean_total(replay_spans, Spans::kEncodeReport),
         "ns", count(replay_spans, Spans::kEncodeReport)},
        {"report.decode_ns", mean_total(spans, Spans::kDecodeReport), "ns",
         count(spans, Spans::kDecodeReport)},
        {"report.bytes_per_report",
         ratio(static_cast<double>(dn->report_bytes),
               static_cast<double>(dn->reports)),
         "B", dn->reports},
        {"mbox.apply_ns",
         ratio(static_cast<double>(agg(spans, Spans::kMboxApply).total_ns),
               traced_pkts),
         "ns", tp},
        {"mbox.nonpass_verdicts", static_cast<double>(dn->nonpass_verdicts),
         "count", pass},
        {"trace.overhead_frac", 1.0 - ratio(traced_pps, untraced_pps), "frac",
         tp},
        {"trace.coverage_frac",
         ratio(static_cast<double>(spans.layer_self_ns()), traced_ns), "frac",
         tp},
    };
    std::printf(
        "# traced untraced_pps=%.0f traced_pps=%.0f tsc_ghz=%.4f "
        "(TSC reference cycles) replay_mismatch=%llu\n",
        untraced_pps, traced_pps, tsc,
        static_cast<unsigned long long>(replay_mismatch));
    for (const Spans* s : {&spans, &replay_spans}) {
      for (std::uint8_t n = 0; n < Spans::kNumNames; ++n) {
        const Spans::Aggregate& a = s->aggregate(static_cast<Spans::Name>(n));
        if (a.count == 0) continue;
        std::printf("# span %-34s %s count=%llu total_ms=%.3f self_ms=%.3f\n",
                    Spans::name_of(n), s == &spans ? "traced" : "replay",
                    static_cast<unsigned long long>(a.count),
                    static_cast<double>(a.total_ns) * 1e-6,
                    static_cast<double>(a.self_ns) * 1e-6);
      }
    }
    const std::string base = args.spans_dir + "/spans_" + args.workload;
    if (!spans.write(base + ".jsonl") ||
        (full_path && !replay_spans.write(base + "_replay.jsonl"))) {
      std::fprintf(stderr, "perfbench: could not write spans under %s\n",
                   args.spans_dir.c_str());
    }
  }

  const std::uint64_t undelivered = attempted - delivered - shed;
  const double error_rate =
      ratio(static_cast<double>(shed + undelivered),
            static_cast<double>(attempted)) +
      ratio(static_cast<double>(missing), static_cast<double>(pass));
  for (Metric& m : metrics) {
    if (m.name == "verdict_accuracy") m.value = 1.0 - error_rate;
  }
  std::printf(
      "# gate worker_mismatch=%llu undelivered=%llu shed=%llu "
      "replay_mismatch=%llu planted_missing=%llu/%zu "
      "(known_decompression_fail_open=%llu unexpected=%llu) "
      "matchless_frac=%.4f nonpass_verdicts=%llu\n",
      static_cast<unsigned long long>(worker_mismatch),
      static_cast<unsigned long long>(undelivered),
      static_cast<unsigned long long>(shed),
      static_cast<unsigned long long>(replay_mismatch),
      static_cast<unsigned long long>(missing), inputs.planted.size(),
      static_cast<unsigned long long>(missing_fail_open),
      static_cast<unsigned long long>(missing_unexpected),
      ratio(static_cast<double>(dn->matchless), static_cast<double>(pass)),
      static_cast<unsigned long long>(dn->nonpass_verdicts));
  std::printf("# metric %-28s %.6g %s samples=%llu\n", "error_rate", error_rate,
              "frac", static_cast<unsigned long long>(attempted));
  for (const Metric& m : metrics) print_metric(m);

  const bool fatal = worker_mismatch != 0 || undelivered + shed != 0 ||
                     replay_mismatch != 0;
  const bool correct = !fatal && missing_unexpected == 0;
  print_result(correct, attempted, shed + undelivered, metrics);
  if (fatal) {
    std::fprintf(stderr,
                 "perfbench: correctness gate failed (worker mismatch, "
                 "undelivered or shed packet, or replay mismatch)\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Args args = perfbench::parse_args(argc, argv);
    if (args.self_test) return perfbench::self_test();
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
