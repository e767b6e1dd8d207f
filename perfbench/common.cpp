#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <fstream>
#include <sstream>
#include <thread>

#include "aqt/core/engine.hpp"
#include "aqt/core/obs_sink.hpp"
#include "aqt/core/protocol.hpp"
#include "aqt/core/rate_check.hpp"
#include "aqt/obs/profiler.hpp"
#include "aqt/serve/json.hpp"
#include "aqt/serve/request.hpp"
#include "aqt/serve/result.hpp"
#include "aqt/topology/spec.hpp"
#include "aqt/util/rng.hpp"

namespace perfbench {

using aqt::serve::JsonValue;

double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB.
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      std::min(v.size() - 1, static_cast<std::size_t>(std::max(1.0, rank)) - 1);
  return v[idx];
}

HostTicks read_host_ticks() {
  HostTicks t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  if (!(in >> cpu) || cpu != "cpu") return t;
  // user nice system idle iowait irq softirq steal [guest guest_nice]; the
  // guest columns are already counted in user/nice.
  for (int col = 0; col < 8; ++col) {
    std::uint64_t v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (col == 7) t.steal = v;
  }
  return t;
}

double steal_share(const HostTicks& before, const HostTicks& after) {
  const std::uint64_t total = after.total - before.total;
  return total == 0 ? 0.0
                    : static_cast<double>(after.steal - before.steal) /
                          static_cast<double>(total);
}

unsigned host_nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

std::string host_cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

void Report::op(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    failures_.push_back(what);
  }
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    failures_.push_back("metric " + name + " is not finite");
    value = 0.0;
  }
  for (auto& m : metrics_) {
    if (m.first == name) {
      m.second = {value, unit};
      return;
    }
  }
  metrics_.push_back({name, {value, unit}});
}

std::string Report::to_json(const Options& opt, double run_wall_s,
                            double run_cpu_s, double run_steal_share) const {
  JsonValue doc = JsonValue::make_object();
  doc.set("workload", JsonValue::make_string(opt.workload));
  doc.set("seed", JsonValue::make_int(static_cast<std::int64_t>(opt.seed)));
  doc.set("trace", JsonValue::make_bool(opt.trace));
  doc.set("correct", JsonValue::make_bool(correct()));
  doc.set("attempted",
          JsonValue::make_int(static_cast<std::int64_t>(attempted_)));
  doc.set("failed", JsonValue::make_int(static_cast<std::int64_t>(failed_)));
  JsonValue failures = JsonValue::make_array();
  for (const std::string& f : failures_)
    failures.push_back(JsonValue::make_string(f));
  doc.set("failures", std::move(failures));
  JsonValue host = JsonValue::make_object();
  host.set("nproc", JsonValue::make_int(host_nproc()));
  host.set("cpu_model", JsonValue::make_string(host_cpu_model()));
  host.set("steal_share", JsonValue::make_double(run_steal_share));
  host.set("process_cpu_s", JsonValue::make_double(run_cpu_s));
  host.set("process_wall_s", JsonValue::make_double(run_wall_s));
  doc.set("host", std::move(host));
  JsonValue metrics = JsonValue::make_object();
  for (const auto& [name, vu] : metrics_) {
    JsonValue m = JsonValue::make_object();
    m.set("value", JsonValue::make_double(vu.first));
    m.set("unit", JsonValue::make_string(vu.second));
    metrics.set(name, std::move(m));
  }
  doc.set("metrics", std::move(metrics));
  return aqt::serve::write_json(doc);
}

bool pins_match(Report& rep, const std::string& what,
                const std::uint64_t (&got)[4], const std::uint64_t (&want)[4]) {
  static const char* const kNames[4] = {"steps_run", "injected", "absorbed",
                                        "max_queue"};
  bool ok = true;
  for (int i = 0; i < 4; ++i) {
    if (got[i] == want[i]) continue;
    ok = false;
    rep.check(false, what + ": pinned " + kNames[i] + " is " +
                         std::to_string(got[i]) + ", want " +
                         std::to_string(want[i]));
  }
  return ok;
}

LayerTimes& LayerTimes::operator+=(const LayerTimes& o) {
  serve += o.serve;
  runner += o.runner;
  core += o.core;
  adversaries += o.adversaries;
  trace += o.trace;
  topology += o.topology;
  return *this;
}

LayerTimes LayerTimes::scaled(double f) const {
  LayerTimes r = *this;
  r.serve *= f;
  r.runner *= f;
  r.core *= f;
  r.adversaries *= f;
  r.trace *= f;
  r.topology *= f;
  return r;
}

void report_layers(Report& rep, const LayerTimes& layers, double traced_wall) {
  rep.metric("serve.self_s", layers.serve, "s");
  rep.metric("runner.self_s", layers.runner, "s");
  rep.metric("core.self_s", layers.core, "s");
  rep.metric("adversaries.self_s", layers.adversaries, "s");
  rep.metric("trace.self_s", layers.trace, "s");
  rep.metric("topology.self_s", layers.topology, "s");
  rep.metric("bench.traced_wall_s", traced_wall, "s");
  const double unattributed =
      traced_wall > 0.0 ? (traced_wall - layers.sum()) / traced_wall : 1.0;
  rep.metric("bench.unattributed_share", unattributed, "ratio");
  std::ostringstream msg;
  msg << "layer self times cover " << (1.0 - unattributed) * 100.0
      << "% of the traced wall (need 90..110%)";
  rep.check(std::fabs(unattributed) <= 0.10, msg.str());
}

const aqt::Adversary* unwrap(const aqt::Adversary* adversary) {
  const auto* timed = dynamic_cast<const TimedAdversary*>(adversary);
  return timed != nullptr ? timed->inner() : adversary;
}

aqt::RunSpec instrument(aqt::RunSpec spec, CellTimes& out,
                        const aqt::obs::TraceEventLog& clock) {
  CellTimes* t = &out;
  const aqt::obs::TraceEventLog* c = &clock;
  auto build = spec.topology.build;
  spec.topology.build = [build, t, c] {
    const std::uint64_t t0 = c->now_nanos();
    if (t->start == 0) t->start = t0;
    aqt::Graph g = build();
    t->build_ns += c->now_nanos() - t0;
    return g;
  };
  if (spec.setup) {
    auto setup = spec.setup;
    spec.setup = [setup, t, c](aqt::Engine& eng, const aqt::Graph& g) {
      const std::uint64_t t0 = c->now_nanos();
      setup(eng, g);
      t->setup_ns += c->now_nanos() - t0;
    };
  }
  if (spec.adversary) {
    auto factory = spec.adversary;
    spec.adversary = [factory, t, c](const aqt::Graph& g, std::uint64_t seed)
        -> std::unique_ptr<aqt::Adversary> {
      const std::uint64_t t0 = c->now_nanos();
      auto inner = factory(g, seed);
      auto timed =
          std::make_unique<TimedAdversary>(std::move(inner), *c, t->adversary_ns);
      t->ready = c->now_nanos();
      t->factory_ns += t->ready - t0;
      return timed;
    };
  }
  auto collect = spec.collect;
  spec.collect = [collect, t, c](const aqt::Engine& eng,
                                 const aqt::Adversary* adv,
                                 aqt::RunResult& result) {
    t->engine_end = c->now_nanos();
    if (t->ready == 0) t->ready = t->start;  // No adversary factory.
    t->sends = eng.metrics().sends();
    if (collect) collect(eng, unwrap(adv), result);
    t->end = c->now_nanos();
  };
  return spec;
}

aqt::RunSpec count_sends(aqt::RunSpec spec, std::uint64_t& sends,
                         double* done_s) {
  std::uint64_t* s = &sends;
  auto collect = spec.collect;
  spec.collect = [collect, s, done_s](const aqt::Engine& eng,
                                      const aqt::Adversary* adv,
                                      aqt::RunResult& result) {
    *s = eng.metrics().sends();
    if (collect) collect(eng, adv, result);
    if (done_s != nullptr) *done_s = wall_seconds();
  };
  return spec;
}

LayerTimes cell_layers(const CellTimes& t, std::uint64_t execute_ns,
                       std::uint64_t trace_ns) {
  const double ns = 1e-9;
  const std::uint64_t cell = execute_ns != 0 ? execute_ns : t.cell_ns();
  const std::uint64_t engine = t.engine_ns();
  const std::uint64_t adv_in_engine =
      std::min(engine, t.adversary_ns);
  const std::uint64_t trace = std::min(engine - adv_in_engine, trace_ns);
  LayerTimes l;
  l.topology = static_cast<double>(t.build_ns) * ns;
  l.adversaries =
      static_cast<double>(t.setup_ns + t.factory_ns + adv_in_engine) * ns;
  l.trace = static_cast<double>(trace) * ns;
  l.core = static_cast<double>(engine - adv_in_engine - trace) * ns;
  const double covered = l.topology + l.adversaries + l.trace + l.core;
  l.runner = std::max(0.0, static_cast<double>(cell) * ns - covered);
  return l;
}

namespace {

/// One hand-built profiled cell.
struct ProfiledCell {
  std::array<double, aqt::kStepPhaseCount> phase_s{};
  double adversary_s = 0.0;
  double compile_s = 0.0;     ///< Schedule lowering outside the steps.
  double rate_check_s = 0.0;  ///< finalize_audit + the feasibility check.
  std::uint64_t steps = 0;
  std::uint64_t injected = 0;
  bool feasible = true;
};

ProfiledCell run_profiled(const aqt::RunSpec& spec,
                          aqt::obs::TraceEventLog& log, std::uint32_t tid) {
  ProfiledCell out;
  const aqt::Graph graph = spec.topology.build();
  auto protocol = aqt::make_protocol(spec.protocol, aqt::mix_seed(spec.seed, 1));
  aqt::EngineConfig ec = spec.engine;
  const bool want_audit = spec.audit_w.has_value() || spec.audit_r.has_value();
  if (want_audit) ec.audit_rates = true;
  if (spec.artifacts.growth && ec.series_stride == 0)
    ec.series_stride = std::max<aqt::Time>(1, spec.steps / 512);
  aqt::obs::StepProfiler profiler;
  ec.sinks.profile = &profiler;
  aqt::Engine eng(graph, *protocol, ec);
  if (spec.setup) spec.setup(eng, graph);
  std::uint64_t adversary_ns = 0;
  std::unique_ptr<TimedAdversary> adversary;
  if (spec.adversary)
    adversary = std::make_unique<TimedAdversary>(
        spec.adversary(graph, spec.seed), log, adversary_ns);

  const std::uint64_t t0 = log.now_nanos();
  eng.run(adversary.get(), spec.steps, spec.stop_when_finished);
  if (spec.drain_after) eng.drain(spec.drain_cap);
  const std::uint64_t t1 = log.now_nanos();
  if (want_audit) {
    eng.finalize_audit();
    out.feasible = spec.audit_w.has_value()
                       ? aqt::check_window(eng.audit(), *spec.audit_w,
                                           *spec.audit_r)
                             .ok
                       : aqt::check_rate_r(eng.audit(), *spec.audit_r).ok;
  }
  const std::uint64_t t2 = log.now_nanos();
  span(log, "core.engine_run (profiled)", "core", t0, t1, tid);
  if (want_audit) span(log, "core.rate_check", "core", t1, t2, tid);

  const aqt::obs::StepProfiler::Report pr = profiler.report();
  for (std::size_t i = 0; i < out.phase_s.size(); ++i)
    out.phase_s[i] = pr.phases[i].seconds();
  const double run_s = static_cast<double>(t1 - t0) * 1e-9;
  out.adversary_s = static_cast<double>(adversary_ns) * 1e-9;
  out.rate_check_s = static_cast<double>(t2 - t1) * 1e-9;
  out.steps = static_cast<std::uint64_t>(eng.now());
  out.injected = eng.total_injected();
  if (adversary != nullptr && adversary->is_oblivious()) {
    // Compiled path: adversary steps run inside compile_block, outside the
    // profiled steps; the rest of the gap is the lowering itself.
    out.compile_s = std::max(0.0, run_s - pr.wall_seconds() - out.adversary_s);
  } else {
    // Polled path: the adversary runs inside the inject phase.
    const std::size_t inject = static_cast<std::size_t>(aqt::StepPhase::kInject);
    out.phase_s[inject] = std::max(0.0, out.phase_s[inject] - out.adversary_s);
  }
  return out;
}

}  // namespace

void profile_cells(Report& rep, const std::vector<aqt::RunSpec>& specs,
                   const std::vector<aqt::RunResult>& expected,
                   aqt::obs::TraceEventLog& log, std::uint32_t tid) {
  ProfiledCell sum;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const ProfiledCell c = run_profiled(specs[i], log, tid);
    rep.check(c.steps == static_cast<std::uint64_t>(expected[i].steps_run) &&
                  c.injected == expected[i].injected &&
                  c.feasible == expected[i].feasible,
              expected[i].name + ": profiled cell diverged from execute_run");
    for (std::size_t p = 0; p < sum.phase_s.size(); ++p)
      sum.phase_s[p] += c.phase_s[p];
    sum.adversary_s += c.adversary_s;
    sum.compile_s += c.compile_s;
    sum.rate_check_s += c.rate_check_s;
  }
  const auto phase = [&](aqt::StepPhase p) {
    return sum.phase_s[static_cast<std::size_t>(p)];
  };
  rep.metric("core.transmit_s", phase(aqt::StepPhase::kTransmit), "s");
  rep.metric("core.absorb_s", phase(aqt::StepPhase::kAbsorb), "s");
  rep.metric("core.inject_s", phase(aqt::StepPhase::kInject), "s");
  rep.metric("core.record_s",
             phase(aqt::StepPhase::kRecord) + phase(aqt::StepPhase::kAudit),
             "s");
  rep.metric("core.schedule_compile_s", sum.compile_s, "s");
  rep.metric("core.rate_check_s", sum.rate_check_s, "s");
  rep.metric("adversaries.step_s", sum.adversary_s, "s");
}

void time_front_door(Report& rep, const std::vector<std::string>& texts,
                     const std::vector<aqt::RunResult>& results,
                     const std::vector<CellTimes>& cells,
                     aqt::obs::TraceEventLog& log, std::uint32_t tid) {
  const aqt::serve::Registry registry;
  std::vector<double> parse_us, compile_us, serialize_us;
  std::uint64_t topology_ns = 0;
  for (std::size_t i = 0; i < texts.size(); ++i) {
    const std::uint64_t p0 = log.now_nanos();
    const aqt::serve::RunRequest req =
        aqt::serve::parse_run_request(texts[i], "perfbench");
    const std::uint64_t p1 = log.now_nanos();
    const aqt::RunSpec spec = registry.compile(req);
    const std::uint64_t p2 = log.now_nanos();
    const std::string bytes = aqt::serve::canonical_result_json(results[i]);
    const std::uint64_t p3 = log.now_nanos();
    (void)aqt::parse_topology_spec(req.topology, req.seed);
    const std::uint64_t p4 = log.now_nanos();
    span(log, "serve.parse_run_request", "serve", p0, p1, tid);
    span(log, "serve.Registry::compile", "serve", p1, p2, tid);
    span(log, "serve.canonical_result_json", "serve", p2, p3, tid);
    span(log, "topology.parse_topology_spec", "topology", p3, p4, tid);
    parse_us.push_back(static_cast<double>(p1 - p0) * 1e-3);
    compile_us.push_back(static_cast<double>(p2 - p1) * 1e-3);
    serialize_us.push_back(static_cast<double>(p3 - p2) * 1e-3);
    topology_ns += p4 - p3;
  }
  for (const CellTimes& t : cells) topology_ns += t.build_ns;
  rep.metric("serve.parse_us", median(parse_us), "us");
  rep.metric("serve.compile_us", median(compile_us), "us");
  rep.metric("serve.serialize_us", median(serialize_us), "us");
  rep.metric("topology.build_ms", static_cast<double>(topology_ns) * 1e-6,
             "ms");
}

void report_cells(Report& rep, const std::vector<CellTimes>& cells,
                  const std::vector<aqt::RunResult>& results) {
  std::vector<double> setup_ms, execute_ms;
  double steps = 0.0, sends = 0.0, max_queue = 0.0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    setup_ms.push_back(static_cast<double>(cells[i].setup_total_ns()) * 1e-6);
    execute_ms.push_back(static_cast<double>(cells[i].cell_ns()) * 1e-6);
    steps += static_cast<double>(results[i].steps_run);
    sends += static_cast<double>(cells[i].sends);
    max_queue = std::max(max_queue, static_cast<double>(results[i].max_queue));
  }
  rep.metric("runner.cell_setup_ms", median(setup_ms), "ms");
  rep.metric("runner.execute_ms", median(execute_ms), "ms");
  rep.metric("core.steps", steps, "count");
  rep.metric("core.sends", sends, "count");
  rep.metric("core.max_queue", max_queue, "count");
}

aqt::RunSpec compile_request(const aqt::serve::Registry& registry,
                             const std::string& text) {
  return registry.compile(aqt::serve::parse_run_request(text, "perfbench"));
}

std::vector<aqt::RunSpec> timed_compile(const std::vector<std::string>& texts,
                                        std::vector<double>& setups, int reps,
                                        double seconds) {
  std::vector<aqt::RunSpec> specs;
  const double start = wall_seconds();
  for (int k = 0; k < reps || wall_seconds() - start < seconds; ++k) {
    const double t0 = wall_seconds();
    const aqt::serve::Registry registry;
    std::vector<aqt::RunSpec> compiled;
    compiled.reserve(texts.size());
    for (const std::string& text : texts)
      compiled.push_back(compile_request(registry, text));
    setups.push_back(wall_seconds() - t0);
    specs = std::move(compiled);
  }
  return specs;
}

void span(aqt::obs::TraceEventLog& log, const std::string& name,
          const char* category, std::uint64_t begin, std::uint64_t end,
          std::uint32_t tid) {
  log.complete(name, category, begin, end > begin ? end - begin : 0, tid);
}

void report_trace_defaults(Report& rep) {
  for (const char* name :
       {"core.transmit_s", "core.absorb_s", "core.inject_s", "core.record_s",
        "core.schedule_compile_s", "core.rate_check_s", "adversaries.step_s",
        "trace.hash_s"})
    rep.metric(name, 0.0, "s");
  for (const char* name : {"core.steps", "core.sends", "core.max_queue"})
    rep.metric(name, 0.0, "count");
  for (const char* name : {"topology.build_ms", "runner.cell_setup_ms",
                           "runner.execute_ms", "serve.server_ms",
                           "serve.wire_ms", "serve.queue_wait_ms",
                           "bench.gen_lag_ms"})
    rep.metric(name, 0.0, "ms");
  for (const char* name :
       {"runner.parallel_speedup", "runner.work_inflation",
        "runner.cpu_availability", "runner.worker_idle_share",
        "bench.trace_overhead", "host.steal_share"})
    rep.metric(name, 0.0, "ratio");
  for (const char* name :
       {"serve.parse_us", "serve.compile_us", "serve.serialize_us"})
    rep.metric(name, 0.0, "us");
  rep.metric("host.nproc", static_cast<double>(host_nproc()), "count");
}

}  // namespace perfbench
