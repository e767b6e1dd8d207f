// Workload e1_instability: the paper's Theorem 3.17 run (experiment E1).
//
// One closed-loop client runs, back to back, the FIFO instability adversary
// on lps:9x8 at r = 7/10 (3 iterations) and on lps:8x30 at r = 11/20 (2
// iterations), each with the exact rate-r audit on and the trace off.  The
// initial flat queue is S* = 400, a quarter of the paper's 1600: every
// iteration still multiplies the queue, one run takes about 2 s, and a
// measured run holds a dozen of them.  The workload seed moves S* by at most
// 1%; the pinned seed runs S* = 400 exactly.
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "aqt/adversaries/lps.hpp"
#include "aqt/runner/run_spec.hpp"
#include "aqt/serve/request.hpp"
#include "aqt/util/rng.hpp"
#include "common.hpp"

namespace perfbench {
namespace {

struct Leg {
  const char* id;
  const char* topology;
  const char* r;
  int iterations;
  // Pinned for kPinnedSeed: steps_run, injected, absorbed, max_queue.
  std::uint64_t pin[4];
};

constexpr Leg kLegs[] = {
    {"e1-r7/10", "lps:9x8", "7/10", 3, {177642, 707530, 702955, 14487}},
    {"e1-r11/20", "lps:8x30", "11/20", 2, {159668, 641638, 640971, 4786}},
};

std::int64_t s_star(std::uint64_t seed, std::size_t leg) {
  if (seed == kPinnedSeed) return 400;
  return 396 + static_cast<std::int64_t>(aqt::mix_seed(seed, leg) % 9);
}

std::string request_text(const Leg& leg, std::int64_t s) {
  std::ostringstream os;
  os << R"({"aqt_run_request": 1, "id": ")" << leg.id << R"(", "topology": ")"
     << leg.topology << R"(", "protocol": "FIFO", "adversary": {"kind": "lps", "r": ")"
     << leg.r << R"(", "iterations": )" << leg.iterations
     << R"(, "s_star": )" << s << R"(}, "steps": 100000000, "audit": {"r": ")"
     << leg.r << R"("}, "artifacts": []})";
  return os.str();
}

/// One leg's observable outcome plus its checks.
struct LegRun {
  aqt::RunResult result;
  std::vector<double> growth;  ///< Per-iteration S_end / S_start.
  std::uint64_t sends = 0;
  double seconds = 0.0;
};

/// Collect hook recording the per-iteration queue growth.
aqt::RunSpec with_growth(aqt::RunSpec spec, std::vector<double>& growth) {
  std::vector<double>* g = &growth;
  spec.collect = [g](const aqt::Engine&, const aqt::Adversary* adv,
                     aqt::RunResult&) {
    const auto* lps = dynamic_cast<const aqt::LpsAdversary*>(unwrap(adv));
    if (lps == nullptr) return;
    for (const aqt::LpsIterationRecord& rec : lps->history())
      g->push_back(rec.s_start > 0 ? static_cast<double>(rec.s_end) /
                                         static_cast<double>(rec.s_start)
                                   : 0.0);
  };
  return spec;
}

/// Checks one leg: ran clean, rate-r feasible, every iteration grew the
/// queue, the same counts as the first rep, and the pins on kPinnedSeed.
void check_leg(Report& rep, const Options& opt, const Leg& leg,
               const LegRun& run, const LegRun* first) {
  const aqt::RunResult& r = run.result;
  std::ostringstream why;
  bool ok = r.ok();
  if (!ok) why << leg.id << ": " << r.error << "; ";
  if (!r.feasible) {
    ok = false;
    why << leg.id << ": rate-" << leg.r << " audit failed; ";
  }
  if (static_cast<int>(run.growth.size()) != leg.iterations) {
    ok = false;
    why << leg.id << ": " << run.growth.size() << " iterations recorded; ";
  }
  for (double g : run.growth) {
    if (!(g > 1.0)) {
      ok = false;
      why << leg.id << ": iteration growth " << g << " <= 1; ";
    }
  }
  const std::uint64_t got[4] = {static_cast<std::uint64_t>(r.steps_run),
                                r.injected, r.absorbed, r.max_queue};
  if (first != nullptr) {
    const aqt::RunResult& f = first->result;
    const std::uint64_t want[4] = {static_cast<std::uint64_t>(f.steps_run),
                                   f.injected, f.absorbed, f.max_queue};
    for (int i = 0; i < 4; ++i)
      if (got[i] != want[i] || run.sends != first->sends) {
        ok = false;
        why << leg.id << ": counts differ between reps; ";
        break;
      }
  }
  if (opt.seed == kPinnedSeed && !pins_match(rep, leg.id, got, leg.pin)) {
    ok = false;
    why << leg.id << ": pinned counts differ; ";
  }
  rep.op(ok, why.str());
}

struct Rep {
  std::vector<LegRun> legs;
  double wall = 0.0;
  double cpu = 0.0;
};

Rep run_rep(const std::vector<aqt::RunSpec>& specs) {
  Rep rep;
  rep.legs.resize(specs.size());
  const double c0 = process_cpu_seconds();
  const double t0 = wall_seconds();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    LegRun& leg = rep.legs[i];
    const aqt::RunSpec spec =
        count_sends(with_growth(specs[i], leg.growth), leg.sends);
    const double s0 = wall_seconds();
    leg.result = aqt::execute_run(spec);
    leg.seconds = wall_seconds() - s0;
  }
  rep.wall = wall_seconds() - t0;
  rep.cpu = process_cpu_seconds() - c0;
  return rep;
}

}  // namespace

void run_e1(const Options& opt, Report& rep) {
  std::vector<std::string> texts;
  for (std::size_t i = 0; i < std::size(kLegs); ++i)
    texts.push_back(request_text(kLegs[i], s_star(opt.seed, i)));

  // Set-up includes the gadget-chain builds of lps:NxM.
  std::vector<double> setups;
  const std::vector<aqt::RunSpec> specs =
      timed_compile(texts, setups, kSetupReps, 0.0);

  if (!opt.trace) {
    std::vector<Rep> reps;
    const double start = wall_seconds();
    do {
      reps.push_back(run_rep(specs));
      for (std::size_t i = 0; i < std::size(kLegs); ++i)
        check_leg(rep, opt, kLegs[i], reps.back().legs[i],
                  reps.size() > 1 ? &reps.front().legs[i] : nullptr);
      timed_compile(texts, setups, 1, kSetupSliceSeconds);
    } while (wall_seconds() - start + 0.75 * reps.back().wall < opt.seconds);

    std::vector<double> walls, cpus, steps_ps, sends_ps, rates, latencies;
    for (const Rep& r : reps) {
      std::uint64_t steps = 0, sends = 0;
      for (const LegRun& leg : r.legs) {
        steps += static_cast<std::uint64_t>(leg.result.steps_run);
        sends += leg.sends;
        latencies.push_back(leg.seconds * 1e3);
      }
      walls.push_back(r.wall);
      cpus.push_back(r.cpu);
      steps_ps.push_back(static_cast<double>(steps) / r.wall);
      sends_ps.push_back(static_cast<double>(sends) / r.wall);
      rates.push_back(static_cast<double>(r.legs.size()) / r.wall);
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

  // Traced run.  1) the untraced rep, the base of bench.trace_overhead.
  report_trace_defaults(rep);
  const Rep plain = run_rep(specs);
  for (std::size_t i = 0; i < std::size(kLegs); ++i)
    check_leg(rep, opt, kLegs[i], plain.legs[i], nullptr);

  aqt::obs::TraceEventLog log;
  log.name_thread(0, "e1 traced rep");
  log.name_thread(1, "e1 profiled cells");
  log.name_thread(2, "serve front door");

  // 2) the same rep with every layer call timed.
  LayerTimes layers;
  std::vector<CellTimes> cells(specs.size());
  std::vector<LegRun> traced(specs.size());
  const std::uint64_t root0 = log.now_nanos();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const aqt::RunSpec spec =
        instrument(with_growth(specs[i], traced[i].growth), cells[i], log);
    const std::uint64_t e0 = log.now_nanos();
    traced[i].result = aqt::execute_run(spec);
    const std::uint64_t e1 = log.now_nanos();
    traced[i].sends = cells[i].sends;
    const CellTimes& t = cells[i];
    span(log, std::string("runner.execute_run ") + kLegs[i].id, "runner", e0,
         e1, 0);
    span(log, "topology.build", "topology", t.start, t.start + t.build_ns, 0);
    span(log, "core.engine (+adversaries.step)", "core", t.ready, t.engine_end,
         0);
    layers += cell_layers(t, e1 - e0);
  }
  const std::uint64_t root1 = log.now_nanos();
  span(log, "e1 rep", "bench", root0, root1, 0);
  const double traced_wall = static_cast<double>(root1 - root0) * 1e-9;
  for (std::size_t i = 0; i < std::size(kLegs); ++i)
    check_leg(rep, opt, kLegs[i], traced[i], &plain.legs[i]);
  report_layers(rep, layers, traced_wall);
  rep.metric("bench.trace_overhead", traced_wall / plain.wall, "ratio");

  // 3) hand-built profiled cells: the engine's step-phase split; then the
  // front door and topology builds, timed on their own.
  std::vector<aqt::RunResult> results;
  for (const LegRun& leg : traced) results.push_back(leg.result);
  profile_cells(rep, specs, results, log, 1);
  time_front_door(rep, texts, results, cells, log, 2);
  report_cells(rep, cells, results);
  log.write(opt.trace_out, "aqt perfbench e1_instability");
}

}  // namespace perfbench
