// Workload serve_open_loop: open-loop serving over the JSONL wire.
//
// An in-process serve::Server with 2 service workers takes RunRequests over
// one loopback connection.  A seeded job mix is sent on a fixed schedule at
// each rate of a short ladder: every 32nd job is a long FIFO grid:4x4
// stochastic job of 8,000 steps; of the others, 3 in 4 are grid:4x4
// stochastic jobs of 1,000 steps and the rest audited ring:8 token-bucket
// jobs of 800 steps.
// Every job runs on its default artifacts, so the trace hash is on.  A job's
// latency runs from when it was due to be sent to the arrival of its result
// event, so a stalled generator shows as latency; a rejected or failed job
// misses the limit.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "aqt/runner/pool.hpp"
#include "aqt/serve/json.hpp"
#include "aqt/serve/request.hpp"
#include "aqt/serve/result.hpp"
#include "aqt/serve/server.hpp"
#include "aqt/serve/service.hpp"
#include "aqt/util/rng.hpp"
#include "common.hpp"

namespace perfbench {
namespace {

using aqt::serve::JsonValue;

constexpr double kRates[] = {30.0, 60.0, 90.0};  ///< Jobs per second.
constexpr double kLimitMs = 150.0;               ///< p99 latency limit.
constexpr std::size_t kMinTopJobs = 1010;  ///< >= 10 samples beyond p99.
constexpr std::size_t kPinJobs = 200;
/// Every kLongEvery-th job is a long one.  At 3.1% of the jobs the p99 lies
/// near the 70th percentile of the long jobs' latencies (some 68 samples at
/// the top rate), which move with the work and the host's speed; without
/// them it lands on rare host stalls.  The long jobs all run FIFO, so their
/// latencies form one cluster: with a seeded mix of protocols the p99 moved
/// with the protocols a seed drew.
constexpr std::size_t kLongEvery = 32;

// Pinned for kPinnedSeed: sums over jobs 0..199 of steps_run, injected,
// absorbed and max_queue.
constexpr std::uint64_t kPin[4] = {233600, 405468, 404779, 536};

/// The k-th request of the seeded job mix (independent of the ladder).
std::vector<std::string> make_corpus(std::uint64_t seed, std::size_t count) {
  aqt::Rng rng(aqt::mix_seed(seed, 0x5e7e));
  std::vector<std::string> out;
  for (std::size_t k = 0; k < count; ++k) {
    std::ostringstream os;
    os << R"({"aqt_run_request": 1, "id": "job-)" << k << R"(", )";
    const std::uint64_t job_seed = rng.below(1000000000ULL) + 1;
    if (k % kLongEvery == kLongEvery - 1) {
      os << R"("topology": "grid:4x4", "protocol": "FIFO", )"
         << R"("adversary": {"kind": "stochastic", "w": 12, "r": "1/4", "d": 4}, "seed": )"
         << job_seed << R"(, "steps": 8000})";
    } else if (rng.below(4) != 0) {
      constexpr const char* kProtocols[] = {"FIFO", "LIS", "NTG", "FTG"};
      os << R"("topology": "grid:4x4", "protocol": ")"
         << kProtocols[rng.below(4)]
         << R"(", "adversary": {"kind": "stochastic", "w": 12, "r": "1/4", "d": 4}, "seed": )"
         << job_seed << R"(, "steps": 1000})";
    } else {
      constexpr const char* kProtocols[] = {"FIFO", "LIS"};
      os << R"("topology": "ring:8", "protocol": ")" << kProtocols[rng.below(2)]
         << R"(", "adversary": {"kind": "bucket", "burst": 2, "r": "1/4", "d": 3}, "seed": )"
         << job_seed << R"(, "steps": 800, "audit": {"w": 8, "r": "1/2"}})";
    }
    out.push_back(os.str());
  }
  return out;
}

/// What the client saw of one job.
struct Job {
  double due = 0.0;
  double sent = 0.0;
  double received = 0.0;
  bool done = false;  ///< Terminal reply or event arrived.
  bool ok = false;    ///< Accepted and finished with state "done".
  double server_s = 0.0;
  std::string canonical;
  std::uint64_t counts[4] = {0, 0, 0, 0};  ///< steps injected absorbed max_queue
  std::string error;
};

/// One loopback client: a sender on the caller's thread and a reader
/// thread that matches replies (in order) and result events (by id).
class Client {
 public:
  Client(std::uint16_t port, std::vector<Job>& jobs) : jobs_(jobs) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
        0) {
      ::close(fd_);
      throw std::runtime_error("connect() to the loopback server failed");
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    reader_ = std::thread([this] { read_loop(); });
  }
  ~Client() {
    ::shutdown(fd_, SHUT_RDWR);
    reader_.join();
    ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends job k's submit line (the caller stamps due/sent).
  void submit(std::size_t k, const std::string& request) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      order_.push_back(k);
    }
    send_line(R"({"op": "submit", "request": )" + request + "}");
  }

  /// Round trip of a ping (set-up check that the wire is up).
  void ping() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      order_.push_back(kPing);
    }
    send_line(R"({"op": "ping"})");
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return pong_ || closed_; });
    pong_ = false;
  }

  /// Blocks until every job in [first, last) is terminal.
  void wait_done(std::size_t first, std::size_t last) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] {
      if (closed_) return true;
      for (std::size_t k = first; k < last; ++k)
        if (!jobs_[k].done) return false;
      return true;
    });
  }

 private:
  static constexpr std::size_t kPing = std::numeric_limits<std::size_t>::max();

  void send_line(const std::string& line) {
    const std::string data = line + "\n";
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + off, data.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("send() to the server failed");
      off += static_cast<std::size_t>(n);
    }
  }

  void read_loop() {
    std::string buffer;
    char chunk[65536];
    for (;;) {
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) break;
      const double now = wall_seconds();
      buffer.append(chunk, static_cast<std::size_t>(n));
      std::size_t start = 0;
      for (;;) {
        const std::size_t nl = buffer.find('\n', start);
        if (nl == std::string::npos) break;
        handle_line(buffer.substr(start, nl - start), now);
        start = nl + 1;
      }
      buffer.erase(0, start);
    }
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    cv_.notify_all();
  }

  void handle_line(const std::string& line, double now) {
    JsonValue doc;
    try {
      doc = aqt::serve::parse_json(line, "server line");
    } catch (const std::exception&) {
      return;  // Unmatched garbage leaves its job unfinished: a failure.
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (const JsonValue* event = doc.find("event")) {
      (void)event;
      const JsonValue* result = doc.find("result");
      const JsonValue* name = result != nullptr ? result->find("name") : nullptr;
      if (name == nullptr || !name->is_string()) return;
      const std::string& id = name->as_string();
      if (id.rfind("job-", 0) != 0) return;
      const std::size_t k = std::stoull(id.substr(4));
      if (k >= jobs_.size()) return;
      Job& job = jobs_[k];
      job.received = now;
      job.done = true;
      const JsonValue* state = doc.find("state");
      job.ok = state != nullptr && state->is_string() &&
               state->as_string() == "done";
      if (const JsonValue* ok = result->find("ok"))
        job.ok = job.ok && ok->is_bool() && ok->as_bool();
      if (!job.ok) job.error = line.substr(0, 200);
      if (const JsonValue* w = doc.find("wall_seconds"))
        job.server_s = w->as_double();
      if (const JsonValue* c = doc.find("result_canonical"))
        if (c->is_string()) job.canonical = c->as_string();
      const char* keys[4] = {"steps_run", "injected", "absorbed", "max_queue"};
      for (int i = 0; i < 4; ++i)
        if (const JsonValue* v = result->find(keys[i]))
          job.counts[i] = static_cast<std::uint64_t>(v->as_int());
      cv_.notify_all();
      return;
    }
    // A reply: matches the oldest unanswered line.
    if (order_.empty()) return;
    const std::size_t k = order_.front();
    order_.erase(order_.begin());
    if (k == kPing) {
      pong_ = true;
      cv_.notify_all();
      return;
    }
    const JsonValue* ok = doc.find("ok");
    if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
      Job& job = jobs_[k];
      job.received = now;
      job.done = true;
      job.ok = false;
      job.error = line.substr(0, 200);
      cv_.notify_all();
    }
  }

  std::vector<Job>& jobs_;
  int fd_ = -1;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::size_t> order_;  ///< Lines awaiting their reply.
  bool pong_ = false;
  bool closed_ = false;
  std::thread reader_;
};

/// A running server plus its connected client.
struct Stack {
  aqt::serve::Registry registry;
  aqt::serve::Service service;
  aqt::serve::Server server;
  Client client;

  explicit Stack(std::vector<Job>& jobs)
      : service(registry, service_config()),
        server(service, registry, server_config()),
        client((server.start(), server.port()), jobs) {}

  static aqt::serve::ServiceConfig service_config() {
    aqt::serve::ServiceConfig c;
    c.workers = 2;
    c.queue_cap = 64;
    return c;
  }
  static aqt::serve::ServerConfig server_config() {
    aqt::serve::ServerConfig c;
    c.port = 0;  // Ephemeral loopback port.
    return c;
  }
};

/// One rate of the ladder: jobs [first, last).
struct Rung {
  std::size_t first = 0;
  std::size_t last = 0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  double window_s = 0.0;    ///< First due to last result.
  double achieved = 0.0;    ///< Completed jobs per second of window.
  double max_lag_ms = 0.0;  ///< Latest send behind its due time.
  double cpu_s = 0.0;       ///< Process CPU while the rung ran.
  bool meets = false;
};

Rung run_rung(Stack& stack, std::vector<Job>& jobs,
              const std::vector<std::string>& corpus, double rate,
              std::size_t first, std::size_t count) {
  Rung r;
  r.first = first;
  r.last = first + count;
  const double c0 = process_cpu_seconds();
  const double t0 = wall_seconds() + 0.005;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t k = first + i;
    const double due = t0 + static_cast<double>(i) / rate;
    double now = wall_seconds();
    while (now < due) {
      std::this_thread::sleep_for(std::chrono::duration<double>(due - now));
      now = wall_seconds();
    }
    jobs[k].due = due;
    jobs[k].sent = now;
    stack.client.submit(k, corpus[k]);
  }
  stack.client.wait_done(r.first, r.last);
  const double end = wall_seconds();
  r.cpu_s = process_cpu_seconds() - c0;

  std::vector<double> latencies;
  double last_recv = 0.0;
  std::size_t completed = 0;
  bool all_ok = true;
  for (std::size_t k = r.first; k < r.last; ++k) {
    const Job& j = jobs[k];
    all_ok = all_ok && j.ok;
    // A failed or rejected job never got its result: it counts as waiting
    // until the rate's end, which misses the limit whenever it matters.
    latencies.push_back(((j.ok ? j.received : end) - j.due) * 1e3);
    last_recv = std::max(last_recv, j.received);
    if (j.ok) ++completed;
    r.max_lag_ms = std::max(r.max_lag_ms, (j.sent - j.due) * 1e3);
  }
  r.p50_ms = median(latencies);
  r.p90_ms = percentile(latencies, kBaseSpeedPercentile);
  r.p99_ms = percentile(latencies, 99);
  r.window_s = last_recv - jobs[r.first].due;
  r.achieved = static_cast<double>(completed) / r.window_s;
  // No growing backlog: the last job is answered within the limit too.
  const double drain_ms = (last_recv - jobs[r.last - 1].due) * 1e3;
  r.meets = all_ok && r.p99_ms <= kLimitMs && drain_ms <= kLimitMs;
  return r;
}

/// The ladder's rungs: the lower rates briefly, the top rate long enough
/// for its p99 to have at least ten samples beyond it.
std::vector<std::size_t> rung_sizes(double seconds) {
  std::vector<std::size_t> sizes;
  const std::size_t n = std::size(kRates);
  for (std::size_t i = 0; i + 1 < n; ++i)
    sizes.push_back(static_cast<std::size_t>(kRates[i] * 0.1 * seconds) + 1);
  sizes.push_back(std::max(
      kMinTopJobs, static_cast<std::size_t>(kRates[n - 1] * 0.8 * seconds)));
  return sizes;
}

struct Offline {
  std::vector<aqt::RunResult> results;
  std::vector<std::uint64_t> sends;
};

/// Executes the first `count` compiled jobs offline on a run pool.
Offline run_offline(const std::vector<aqt::RunSpec>& specs, std::size_t count) {
  Offline out;
  out.sends.assign(count, 0);
  std::vector<aqt::RunSpec> counted;
  for (std::size_t k = 0; k < count; ++k)
    counted.push_back(count_sends(specs[k], out.sends[k]));
  out.results = aqt::run_all(counted, std::min(4u, host_nproc()));
  return out;
}

/// On kPinnedSeed, the sums over jobs 0..kPinJobs-1 must match the pins.
bool pins_hold(Report& rep, const Options& opt, const std::vector<Job>& jobs) {
  if (opt.seed != kPinnedSeed) return true;
  std::uint64_t sums[4] = {0, 0, 0, 0};
  for (std::size_t k = 0; k < kPinJobs; ++k)
    for (int i = 0; i < 4; ++i) sums[i] += jobs[k].counts[i];
  return pins_match(rep, "serve sums over jobs 0..199", sums, kPin);
}

/// Every job finished, and its served result equals the offline one byte
/// for byte; a pin mismatch fails the pinned jobs.
void check_jobs(Report& rep, const std::vector<Job>& jobs,
                const Offline& offline, bool pinned) {
  for (std::size_t k = 0; k < offline.results.size(); ++k) {
    const Job& j = jobs[k];
    bool ok = j.ok;
    std::string why = j.ok ? "" : "job-" + std::to_string(k) + ": " + j.error;
    if (ok && j.canonical !=
                  aqt::serve::canonical_result_json(offline.results[k])) {
      ok = false;
      why = "job-" + std::to_string(k) + ": served result differs from offline";
    }
    if (ok && k < kPinJobs && !pinned) {
      ok = false;
      why = "job-" + std::to_string(k) + ": pinned sums differ";
    }
    rep.op(ok, why);
  }
}

}  // namespace

void run_serve(const Options& opt, Report& rep) {
  const std::vector<std::size_t> sizes = rung_sizes(opt.seconds);
  std::size_t total = 0;
  for (std::size_t s : sizes) total += s;
  // A traced run sends the top rate twice instead of the ladder.
  const std::size_t n = sizes.back();
  const std::vector<std::string> corpus =
      make_corpus(opt.seed, opt.trace ? 2 * n : total);
  std::vector<Job> jobs(corpus.size());

  // Set-up: registry, parse and compile of every request the run sends
  // (validated before serving; kept as the offline reference), service
  // workers, server bind and start, client connect.  Repeated kSetupReps
  // times before the ladder, where the last stack and specs are kept, and
  // as often after it, so the median spans the run.
  std::vector<double> setups;
  std::unique_ptr<Stack> stack;
  std::vector<aqt::RunSpec> specs;
  const auto set_up = [&] {
    for (int k = 0; k < kSetupReps; ++k) {
      stack.reset();
      const double t0 = wall_seconds();
      stack = std::make_unique<Stack>(jobs);
      std::vector<aqt::RunSpec> compiled;
      compiled.reserve(corpus.size());
      for (const std::string& text : corpus)
        compiled.push_back(compile_request(stack->registry, text));
      setups.push_back(wall_seconds() - t0);
      specs = std::move(compiled);
    }
  };
  set_up();
  stack->client.ping();

  if (!opt.trace) {
    std::vector<Rung> rungs;
    std::size_t next = 0;
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      rungs.push_back(run_rung(*stack, jobs, corpus, kRates[i], next, sizes[i]));
      next += sizes[i];
    }
    set_up();
    stack.reset();

    const Rung& top = rungs.back();
    const Offline offline = run_offline(specs, next);
    check_jobs(rep, jobs, offline, pins_hold(rep, opt, jobs));
    double steps = 0, sends = 0;
    for (std::size_t k = top.first; k < top.last; ++k) {
      steps += static_cast<double>(jobs[k].counts[0]);
      sends += static_cast<double>(offline.sends[k]);
    }
    double max_rate = 0.0;
    for (const Rung& r : rungs)
      if (r.meets) max_rate = r.achieved;
    rep.metric("setup_s", median(setups), "s");
    rep.metric("wall_s", top.window_s, "s");
    rep.metric("steps_per_s", steps / top.window_s, "1/s");
    rep.metric("sends_per_s", sends / top.window_s, "1/s");
    rep.metric("cpu_s", top.cpu_s, "s");
    rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
    rep.metric("latency_p50_ms", top.p50_ms, "ms");
    rep.metric("latency_p90_ms", top.p90_ms, "ms");
    rep.metric("latency_p99_ms", top.p99_ms, "ms");
    rep.metric("max_rate_jobs_per_s", max_rate, "1/s");
    return;
  }

  // Traced run.  1) the top rate untraced, then 2) again with a client
  // span per job; the server itself is observed only through its wire.
  report_trace_defaults(rep);
  const double top_rate = kRates[std::size(kRates) - 1];
  const Rung plain = run_rung(*stack, jobs, corpus, top_rate, 0, n);
  aqt::obs::TraceEventLog log;
  log.name_thread(0, "serve offline sample");
  log.name_thread(100, "serve profiled cells");
  log.name_thread(101, "serve front door");
  const std::uint64_t epoch = log.now_nanos();
  const double epoch_s = wall_seconds();
  const Rung traced = run_rung(*stack, jobs, corpus, top_rate, n, n);
  stack.reset();
  const auto to_log = [&](double t) {
    return epoch + static_cast<std::uint64_t>(std::max(0.0, t - epoch_s) * 1e9);
  };
  for (std::size_t k = traced.first; k < traced.last; ++k) {
    const std::uint32_t track = 1 + static_cast<std::uint32_t>(k % 8);
    span(log, "job-" + std::to_string(k), "serve", to_log(jobs[k].due),
         to_log(jobs[k].received), track);
  }
  for (std::uint32_t t = 1; t <= 8; ++t)
    log.name_thread(t, "client jobs " + std::to_string(t - 1) + " mod 8");
  rep.metric("bench.trace_overhead", traced.window_s / plain.window_s, "ratio");
  rep.metric("bench.gen_lag_ms", traced.max_lag_ms, "ms");
  std::vector<double> server_ms, wire_ms;
  bool all_ok = true;
  for (std::size_t k = 0; k < 2 * n; ++k) {
    all_ok = all_ok && jobs[k].ok;
    if (k < traced.first) continue;
    server_ms.push_back(jobs[k].server_s * 1e3);
    wire_ms.push_back(
        (jobs[k].received - jobs[k].sent - jobs[k].server_s) * 1e3);
  }
  rep.check(all_ok, "a served job failed or was rejected");
  rep.metric("serve.server_ms", median(server_ms), "ms");
  rep.metric("serve.wire_ms", median(wire_ms), "ms");
  const bool pinned = pins_hold(rep, opt, jobs);

  // 3) the first kSample traced jobs offline, instrumented, with and
  // without the trace hash; their latencies are split into layers.
  constexpr std::size_t kSample = 128;
  aqt::serve::Registry registry;
  LayerTimes layers;
  double latency_sum = 0.0, hash_s = 0.0;
  std::vector<double> queue_ms;
  std::vector<std::string> texts;
  std::vector<aqt::RunSpec> sample;
  std::vector<aqt::RunResult> results;
  std::vector<CellTimes> cells(kSample);
  for (std::size_t i = 0; i < kSample; ++i) {
    const std::size_t k = traced.first + i;
    const Job& job = jobs[k];
    texts.push_back(corpus[k]);
    sample.push_back(specs[k]);
    const aqt::RunSpec with = instrument(specs[k], cells[i], log);
    aqt::serve::RunRequest req =
        aqt::serve::parse_run_request(corpus[k], "perfbench");
    req.art_trace_hash = false;
    CellTimes bare_times;
    const aqt::RunSpec bare = instrument(registry.compile(req), bare_times, log);
    const std::uint64_t e0 = log.now_nanos();
    results.push_back(aqt::execute_run(with));
    const std::uint64_t e1 = log.now_nanos();
    (void)aqt::execute_run(bare);
    const std::uint64_t e2 = log.now_nanos();
    span(log, "runner.execute_run " + results.back().name, "runner", e0, e1, 0);
    span(log, "runner.execute_run (no trace hash)", "runner", e1, e2, 0);

    rep.op(pinned && job.ok &&
               job.canonical ==
                   aqt::serve::canonical_result_json(results.back()),
           "job-" + std::to_string(k) +
               ": served result differs from offline or pins differ");
    const std::uint64_t exec_ns = e1 - e0;
    const std::uint64_t hash_ns = exec_ns > e2 - e1 ? exec_ns - (e2 - e1) : 0;
    const double exec_s = static_cast<double>(exec_ns) * 1e-9;
    const double lag = job.sent - job.due;
    const double wire = job.received - job.sent - job.server_s;
    const double queue = std::max(0.0, job.server_s - exec_s);
    LayerTimes l = cell_layers(cells[i], exec_ns, hash_ns);
    l.serve += wire + queue;
    layers += l;
    latency_sum += lag + wire + queue + exec_s;
    hash_s += static_cast<double>(hash_ns) * 1e-9;
    queue_ms.push_back(queue * 1e3);
  }
  report_layers(rep, layers, latency_sum);
  rep.metric("trace.hash_s", hash_s, "s");
  rep.metric("serve.queue_wait_ms", median(queue_ms), "ms");
  report_cells(rep, cells, results);
  time_front_door(rep, texts, results, cells, log, 101);

  // 4) profiled cells: the engine's step-phase split on 16 sample jobs.
  sample.resize(16);
  results.resize(16);
  profile_cells(rep, sample, results, log, 100);
  log.write(opt.trace_out, "aqt perfbench serve_open_loop");
}

}  // namespace perfbench
