// aqt_perfbench: runs one workload of the wall-clock benchmark and prints
// one JSON object (metrics, checks, host fingerprint) on stdout.
//
//   aqt_perfbench --workload e1_instability|sweep_stochastic|serve_open_loop
//                 --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// Exit status: 0 when every output check passed, 1 when one failed, 2 on a
// usage error.  perfbench/run.py builds this program and wraps its output.
#include <exception>
#include <iostream>
#include <string>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        opt.workload = value;
      } else if (key == "--seed") {
        opt.seed = std::stoull(value);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (key == "--trace") {
        opt.trace = value == "1";
      } else if (key == "--trace-out") {
        opt.trace_out = value;
      } else {
        std::cerr << "unknown option " << key << "\n";
        return 2;
      }
    } catch (const std::exception&) {
      std::cerr << "bad value for " << key << ": " << value << "\n";
      return 2;
    }
  }
  if (argc % 2 != 1 || opt.seconds <= 0 || (opt.trace && opt.trace_out.empty())) {
    std::cerr << "usage: aqt_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE]\n";
    return 2;
  }

  void (*run)(const Options&, Report&) = nullptr;
  if (opt.workload == "e1_instability") run = run_e1;
  if (opt.workload == "sweep_stochastic") run = run_sweep;
  if (opt.workload == "serve_open_loop") run = run_serve;
  if (run == nullptr) {
    std::cerr << "unknown workload " << opt.workload << "\n";
    return 2;
  }

  Report rep;
  const HostTicks ticks0 = read_host_ticks();
  const double wall0 = wall_seconds();
  const double cpu0 = process_cpu_seconds();
  try {
    run(opt, rep);
  } catch (const std::exception& e) {
    rep.check(false, std::string("workload threw: ") + e.what());
  }
  const double steal = steal_share(ticks0, read_host_ticks());
  if (opt.trace) rep.metric("host.steal_share", steal, "ratio");
  std::cout << rep.to_json(opt, wall_seconds() - wall0,
                           process_cpu_seconds() - cpu0, steal)
            << std::endl;
  return rep.correct() ? 0 : 1;
}
