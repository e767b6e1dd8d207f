// Shared pieces of the wall-clock benchmark: options, clocks, statistics,
// the run report, and the instrumentation the traced runs wrap around a
// RunSpec's closures.
//
// Everything here drives aqt through its public headers only.  The traced
// runs attribute time to modules by timing calls into their public
// functions: a RunSpec is a value whose topology recipe, adversary factory,
// setup and collect hooks are std::function members, so wrapping them times
// the topology build, adversary construction and every Adversary::step
// inside an unmodified execute_run.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "aqt/core/adversary.hpp"
#include "aqt/obs/tracing.hpp"
#include "aqt/runner/run_spec.hpp"
#include "aqt/serve/registry.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string trace_out;  ///< Perfetto trace_event file of a traced run.
};

/// The seed the pinned counts of every workload were taken with.
inline constexpr std::uint64_t kPinnedSeed = 1;

/// Set-up is a few milliseconds at most, so it is repeated and the median
/// reported.  It runs kSetupReps times before the measured work and, for the
/// closed-loop workloads, again for kSetupSliceSeconds after every measured
/// unit.  The host's speed swings within seconds; sampled through the whole
/// run, the median of set-up sees the same host as the measured units
/// instead of the first second alone.
inline constexpr int kSetupReps = 31;
inline constexpr double kSetupSliceSeconds = 0.1;

/// A shared host runs the same work at two speeds: its base speed, and
/// about 1.5 times faster in bursts of tens of seconds whose share of a run
/// varies from run to run.  A median of per-unit times flips between the
/// two speeds with that share; the 90th percentile stays at the base speed
/// unless bursts fill nine tenths of the run.  So the closed loops report
/// the 90th percentile of per-unit times (per-unit rates: the 10th).
/// Latency keeps its median: serving's 90th percentile sits where short jobs
/// queue behind long ones, and it doubled when the host was busy.
inline constexpr double kBaseSpeedPercentile = 90.0;

double wall_seconds();  ///< Monotonic clock.
double process_cpu_seconds();
double peak_rss_mb();

double median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 100].
double percentile(std::vector<double> v, double p);

/// Host fingerprint: processors, CPU model and /proc/stat tick totals.
struct HostTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
HostTicks read_host_ticks();
double steal_share(const HostTicks& before, const HostTicks& after);
unsigned host_nproc();
std::string host_cpu_model();

/// Everything one run reports.  Operations are the unit of `attempted`:
/// an executed cell or a served job; a failed check marks one failed.
class Report {
 public:
  /// Records one attempted operation; `what` explains a failure.
  void op(bool ok, const std::string& what);
  /// A check that is not tied to a single operation.
  void check(bool ok, const std::string& what);
  void metric(const std::string& name, double value, const std::string& unit);

  [[nodiscard]] bool correct() const { return failures_.empty(); }
  [[nodiscard]] std::string to_json(const Options& opt, double run_wall_s,
                                     double run_cpu_s,
                                     double run_steal_share) const;

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
};

/// Compares the pinned sums steps_run, injected, absorbed and max_queue
/// with `want`; records each mismatch.  True when all four match.
bool pins_match(Report& rep, const std::string& what,
                const std::uint64_t (&got)[4], const std::uint64_t (&want)[4]);

/// Per-module self time of a traced pass, in seconds.  Parallel batches
/// are normalized to wall-clock shares (worker-seconds / workers).
struct LayerTimes {
  double serve = 0.0;
  double runner = 0.0;
  double core = 0.0;
  double adversaries = 0.0;
  double trace = 0.0;
  double topology = 0.0;

  [[nodiscard]] double sum() const {
    return serve + runner + core + adversaries + trace + topology;
  }
  LayerTimes& operator+=(const LayerTimes& o);
  LayerTimes scaled(double f) const;
};

/// Reports <layer>.self_s, bench.traced_wall_s and bench.unattributed_share
/// and checks that the layers cover the traced wall within 10%.
void report_layers(Report& rep, const LayerTimes& layers, double traced_wall);

/// Timings of one execute_run call, gathered by the wrappers instrument()
/// installs (all in TraceEventLog nanoseconds).
struct CellTimes {
  std::uint64_t start = 0;         ///< Topology recipe called (cell start).
  std::uint64_t build_ns = 0;      ///< TopologyRecipe::build.
  std::uint64_t setup_ns = 0;      ///< RunSpec::setup (initial config).
  std::uint64_t factory_ns = 0;    ///< Adversary construction.
  std::uint64_t ready = 0;         ///< Adversary built: engine loop starts.
  std::uint64_t adversary_ns = 0;  ///< Every Adversary::step.
  std::uint64_t engine_end = 0;    ///< collect hook entered.
  std::uint64_t end = 0;           ///< collect hook left: cell done.
  std::uint64_t sends = 0;         ///< Engine packet-hops of the cell.

  [[nodiscard]] std::uint64_t engine_ns() const {
    return engine_end > ready ? engine_end - ready : 0;
  }
  [[nodiscard]] std::uint64_t cell_ns() const {
    return end > start ? end - start : 0;
  }
  /// Time from the recipe call to the first engine step.
  [[nodiscard]] std::uint64_t setup_total_ns() const {
    return ready > start ? ready - start : 0;
  }
};

/// Forwards every call to the wrapped adversary and accumulates the time
/// spent in step(); obliviousness is forwarded, so Engine::run takes the
/// same compiled or polled path as without the wrapper.
class TimedAdversary final : public aqt::Adversary {
 public:
  TimedAdversary(std::unique_ptr<aqt::Adversary> inner,
                 const aqt::obs::TraceEventLog& clock, std::uint64_t& sink)
      : inner_(std::move(inner)), clock_(clock), sink_(sink) {}

  void step(aqt::Time now, const aqt::Engine& engine,
            aqt::AdversaryStep& out) override {
    const std::uint64_t t0 = clock_.now_nanos();
    inner_->step(now, engine, out);
    sink_ += clock_.now_nanos() - t0;
  }
  [[nodiscard]] bool finished(aqt::Time now) const override {
    return inner_->finished(now);
  }
  [[nodiscard]] bool is_oblivious() const override {
    return inner_->is_oblivious();
  }
  [[nodiscard]] const aqt::Adversary* inner() const { return inner_.get(); }

 private:
  std::unique_ptr<aqt::Adversary> inner_;
  const aqt::obs::TraceEventLog& clock_;
  std::uint64_t& sink_;
};

/// Unwraps a TimedAdversary (collect hooks of instrumented specs see it).
const aqt::Adversary* unwrap(const aqt::Adversary* adversary);

/// Returns `spec` with timing wrappers around its closures writing into
/// `out`.  `out` and `clock` must outlive every execute_run of the result.
/// Always installs a collect hook (which also counts sends); the original
/// collect, if any, still runs and sees the unwrapped adversary.
aqt::RunSpec instrument(aqt::RunSpec spec, CellTimes& out,
                        const aqt::obs::TraceEventLog& clock);

/// Spec with only a collect hook that counts sends into `sends` and stamps
/// the completion time (steady clock seconds) into `done_s` when non-null.
aqt::RunSpec count_sends(aqt::RunSpec spec, std::uint64_t& sends,
                         double* done_s = nullptr);

/// Self times of one instrumented cell.  `execute_ns` is the execute_run
/// call's own duration when the caller timed it (0: use the wrappers'
/// start..end).  `trace_ns` is the trace-hash share inside the engine
/// interval (measured separately), moved from core to trace.
LayerTimes cell_layers(const CellTimes& t, std::uint64_t execute_ns,
                       std::uint64_t trace_ns = 0);

/// Re-executes each spec by hand with the step profiler attached
/// (EngineSinks::profile, which execute_run does not expose), exactly as
/// execute_run would: same graph, protocol seed, config, setup, adversary,
/// stop rule, drain and audit.  Checks each cell against `expected` (the
/// execute_run result of the same spec) and reports the core.* phase split,
/// core.schedule_compile_s, core.rate_check_s and adversaries.step_s, summed
/// over the cells.  Spans land on track `tid` of `log`.
void profile_cells(Report& rep, const std::vector<aqt::RunSpec>& specs,
                   const std::vector<aqt::RunResult>& expected,
                   aqt::obs::TraceEventLog& log, std::uint32_t tid);

/// Times the front door on each request outside any measured unit:
/// parse_run_request, Registry::compile, canonical_result_json of the
/// matching result, and parse_topology_spec (the topology build compile
/// performs).  Reports serve.parse_us, serve.compile_us, serve.serialize_us
/// (medians) and topology.build_ms (the builds plus the in-cell recipe
/// builds of `cells`).
void time_front_door(Report& rep, const std::vector<std::string>& texts,
                     const std::vector<aqt::RunResult>& results,
                     const std::vector<CellTimes>& cells,
                     aqt::obs::TraceEventLog& log, std::uint32_t tid);

/// Reports runner.cell_setup_ms and runner.execute_ms (per-cell medians)
/// and core.steps, core.sends, core.max_queue over the cells.
void report_cells(Report& rep, const std::vector<CellTimes>& cells,
                  const std::vector<aqt::RunResult>& results);

/// Parse + compile one request document (the public front door).
aqt::RunSpec compile_request(const aqt::serve::Registry& registry,
                             const std::string& text);

/// Set-up of the closed-loop workloads: a registry plus parse and compile
/// of every request (topology builds included), repeated at least `reps`
/// times and for at least `seconds`.  Appends each time to `setups` and
/// returns the last compiled specs.
std::vector<aqt::RunSpec> timed_compile(const std::vector<std::string>& texts,
                                        std::vector<double>& setups, int reps,
                                        double seconds);

/// Writes a span to `log` from two now_nanos() readings.
void span(aqt::obs::TraceEventLog& log, const std::string& name,
          const char* category, std::uint64_t begin, std::uint64_t end,
          std::uint32_t tid);

/// Fixed per-layer metrics every traced run reports (0 where the layer is
/// idle on the workload); the workload overwrites the ones it measures.
void report_trace_defaults(Report& rep);

/// The workloads (one file each).  Each fills `rep` with the end-to-end
/// metrics, or with the per-layer metrics when opt.trace is set.
void run_e1(const Options& opt, Report& rep);
void run_sweep(const Options& opt, Report& rep);
void run_serve(const Options& opt, Report& rep);

}  // namespace perfbench
