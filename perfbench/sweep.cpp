// Workload sweep_stochastic: the §4 stability sweep as one batch.
//
// 72 cells, {FIFO, LIS, NTG} x {ring:16, grid:6x6, torus:6x6} x 8 seeds,
// stochastic (w = 12, r = 1/4, d = 4) traffic for 50,000 steps with the
// exact (w, r) window audit and the growth artifact, trace off, run through
// run_pool at jobs = min(4, nproc).  Cell seeds derive from the workload
// seed.  A batch is submitted whole, so a cell's latency runs from the
// batch submission to that cell's completion.
#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "aqt/runner/pool.hpp"
#include "aqt/util/rng.hpp"
#include "common.hpp"

namespace perfbench {
namespace {

constexpr const char* kProtocols[] = {"FIFO", "LIS", "NTG"};
constexpr const char* kTopologies[] = {"ring:16", "grid:6x6", "torus:6x6"};
constexpr int kSeedsPerGroup = 8;

// Pinned for kPinnedSeed: sums over the 72 cells of steps_run, injected,
// absorbed and max_queue.
constexpr std::uint64_t kPin[4] = {3600000, 8934713, 8934279, 216};

std::vector<std::string> request_texts(std::uint64_t seed) {
  std::vector<std::string> out;
  for (const char* protocol : kProtocols)
    for (const char* topology : kTopologies)
      for (int k = 0; k < kSeedsPerGroup; ++k) {
        const std::size_t index = out.size();
        std::ostringstream os;
        os << R"({"aqt_run_request": 1, "id": "sweep-)" << index
           << R"(", "topology": ")" << topology << R"(", "protocol": ")"
           << protocol
           << R"(", "adversary": {"kind": "stochastic", "w": 12, "r": "1/4", "d": 4}, "seed": )"
           << aqt::mix_seed(seed, index) % 1000000000ULL + 1
           << R"(, "steps": 50000, "audit": {"w": 12, "r": "1/4"}, "artifacts": ["growth"]})";
        out.push_back(os.str());
      }
  return out;
}

unsigned pool_jobs() { return std::min(4u, host_nproc()); }

struct Batch {
  std::vector<aqt::RunResult> results;
  std::vector<std::uint64_t> sends;
  std::vector<double> done_s;
  double start = 0.0;
  double wall = 0.0;
  double cpu = 0.0;
  aqt::PoolTelemetry telemetry;
};

Batch run_batch(const std::vector<aqt::RunSpec>& specs, unsigned jobs) {
  Batch b;
  b.sends.assign(specs.size(), 0);
  b.done_s.assign(specs.size(), 0.0);
  std::vector<aqt::RunSpec> counted;
  counted.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i)
    counted.push_back(count_sends(specs[i], b.sends[i], &b.done_s[i]));
  const double c0 = process_cpu_seconds();
  b.start = wall_seconds();
  aqt::RunPoolReport report = aqt::run_pool(counted, jobs);
  b.wall = wall_seconds() - b.start;
  b.cpu = process_cpu_seconds() - c0;
  b.results = std::move(report.results);
  b.telemetry = std::move(report.telemetry);
  return b;
}

/// Checks every cell: ran clean, (w, r)-feasible, not growing, the same
/// outcome as in the first batch.  On kPinnedSeed the first batch's sums
/// must match the pins; a mismatch fails every cell, as the sums cannot
/// tell which one is wrong.
void check_batch(Report& rep, const Options& opt, const Batch& b,
                 const Batch* first) {
  std::uint64_t sums[4] = {0, 0, 0, 0};
  for (const aqt::RunResult& r : b.results) {
    sums[0] += static_cast<std::uint64_t>(r.steps_run);
    sums[1] += r.injected;
    sums[2] += r.absorbed;
    sums[3] += r.max_queue;
  }
  const bool pinned = first != nullptr || opt.seed != kPinnedSeed ||
                      pins_match(rep, "sweep sums", sums, kPin);
  for (std::size_t i = 0; i < b.results.size(); ++i) {
    const aqt::RunResult& r = b.results[i];
    std::ostringstream why;
    bool ok = pinned && r.ok() && r.feasible &&
              r.verdict != aqt::GrowthVerdict::kGrowing;
    if (!ok)
      why << r.name << ": error '" << r.error << "', feasible " << r.feasible
          << ", verdict " << aqt::to_string(r.verdict) << ", pins "
          << (pinned ? "match" : "differ") << "; ";
    if (first != nullptr) {
      const aqt::RunResult& f = first->results[i];
      if (r.steps_run != f.steps_run || r.injected != f.injected ||
          r.absorbed != f.absorbed || r.max_queue != f.max_queue ||
          r.verdict != f.verdict || b.sends[i] != first->sends[i]) {
        ok = false;
        why << r.name << ": outcome differs between batches; ";
      }
    }
    rep.op(ok, why.str());
  }
}

std::uint64_t total_sends(const Batch& b) {
  std::uint64_t s = 0;
  for (std::uint64_t v : b.sends) s += v;
  return s;
}

std::uint64_t total_steps(const Batch& b) {
  std::uint64_t s = 0;
  for (const aqt::RunResult& r : b.results)
    s += static_cast<std::uint64_t>(r.steps_run);
  return s;
}

}  // namespace

void run_sweep(const Options& opt, Report& rep) {
  const std::vector<std::string> texts = request_texts(opt.seed);
  const unsigned jobs = pool_jobs();

  std::vector<double> setups;
  const std::vector<aqt::RunSpec> specs =
      timed_compile(texts, setups, kSetupReps, 0.0);

  if (!opt.trace) {
    std::vector<Batch> batches;
    const double start = wall_seconds();
    do {
      batches.push_back(run_batch(specs, jobs));
      check_batch(rep, opt, batches.back(),
                  batches.size() > 1 ? &batches.front() : nullptr);
      timed_compile(texts, setups, 1, kSetupSliceSeconds);
    } while (wall_seconds() - start + 0.75 * batches.back().wall <
             opt.seconds);

    std::vector<double> walls, cpus, steps_ps, sends_ps, rates, latencies;
    for (const Batch& b : batches) {
      walls.push_back(b.wall);
      cpus.push_back(b.cpu);
      steps_ps.push_back(static_cast<double>(total_steps(b)) / b.wall);
      sends_ps.push_back(static_cast<double>(total_sends(b)) / b.wall);
      rates.push_back(static_cast<double>(b.results.size()) / b.wall);
      for (double done : b.done_s) latencies.push_back((done - b.start) * 1e3);
    }
    rep.metric("setup_s", median(setups), "s");
    const double slow = kBaseSpeedPercentile;
    rep.metric("wall_s", percentile(walls, slow), "s");
    rep.metric("steps_per_s", percentile(steps_ps, 100 - slow), "1/s");
    rep.metric("sends_per_s", percentile(sends_ps, 100 - slow), "1/s");
    rep.metric("cpu_s", percentile(cpus, slow), "s");
    rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
    rep.metric("latency_p50_ms", median(latencies), "ms");
    rep.metric("latency_p90_ms", percentile(latencies, slow), "ms");
    rep.metric("latency_p99_ms", percentile(latencies, 99), "ms");
    rep.metric("max_rate_jobs_per_s", percentile(rates, 100 - slow), "1/s");
    return;
  }

  report_trace_defaults(rep);
  // 1) untraced batches at `jobs` workers and at one worker.
  const Batch plain = run_batch(specs, jobs);
  check_batch(rep, opt, plain, nullptr);
  const Batch serial = run_batch(specs, 1);
  check_batch(rep, opt, serial, &plain);
  rep.metric("runner.parallel_speedup", serial.wall / plain.wall, "ratio");
  rep.metric("runner.work_inflation", plain.cpu / serial.cpu, "ratio");
  rep.metric("runner.cpu_availability",
             plain.cpu / (static_cast<double>(jobs) * plain.wall), "ratio");

  // 2) the traced batch: every cell instrumented, pool cell spans on.
  aqt::obs::TraceEventLog log;
  log.name_thread(0, "sweep batch");
  log.name_thread(100, "sweep profiled cells");
  log.name_thread(101, "serve front door");
  std::vector<CellTimes> cells(specs.size());
  std::vector<aqt::RunSpec> traced_specs;
  for (std::size_t i = 0; i < specs.size(); ++i)
    traced_specs.push_back(instrument(specs[i], cells[i], log));
  aqt::PoolOptions pool_opt;
  pool_opt.trace = &log;
  const std::uint64_t root0 = log.now_nanos();
  aqt::RunPoolReport traced = aqt::run_pool(traced_specs, jobs, pool_opt);
  const std::uint64_t root1 = log.now_nanos();
  span(log, "run_pool (72 cells)", "runner", root0, root1, 0);
  Batch traced_batch;
  traced_batch.results = std::move(traced.results);
  for (const CellTimes& t : cells) traced_batch.sends.push_back(t.sends);
  check_batch(rep, opt, traced_batch, &plain);

  const double traced_wall = static_cast<double>(root1 - root0) * 1e-9;
  const unsigned used = std::max(1u, traced.jobs_used);
  LayerTimes worker_time;
  double busy = 0.0;
  for (const CellTimes& t : cells) {
    worker_time += cell_layers(t, 0);
    busy += static_cast<double>(t.cell_ns()) * 1e-9;
  }
  // Worker-seconds to wall shares; pool dispatch and idle go to the runner.
  LayerTimes layers = worker_time.scaled(1.0 / used);
  layers.runner +=
      std::max(0.0, traced_wall - busy / static_cast<double>(used));
  report_layers(rep, layers, traced_wall);
  rep.metric("bench.trace_overhead", traced_wall / plain.wall, "ratio");
  std::uint64_t idle = 0, total = 0;
  for (const aqt::PoolWorkerStats& w : traced.telemetry.workers) {
    idle += w.idle_nanos;
    total += w.idle_nanos + w.busy_nanos;
  }
  rep.metric("runner.worker_idle_share",
             total == 0 ? 0.0
                        : static_cast<double>(idle) / static_cast<double>(total),
             "ratio");

  // 3) profiled cells: the first seed of each protocol x topology group;
  // then the front door and topology builds on the request corpus.
  std::vector<aqt::RunSpec> firsts;
  std::vector<aqt::RunResult> first_results;
  for (std::size_t i = 0; i < specs.size(); i += kSeedsPerGroup) {
    firsts.push_back(specs[i]);
    first_results.push_back(traced_batch.results[i]);
  }
  profile_cells(rep, firsts, first_results, log, 100);
  time_front_door(rep, texts, traced_batch.results, cells, log, 101);
  report_cells(rep, cells, traced_batch.results);
  log.write(opt.trace_out, "aqt perfbench sweep_stochastic");
}

}  // namespace perfbench
