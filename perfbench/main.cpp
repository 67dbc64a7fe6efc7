// The repository benchmark's binary; run.py builds and invokes it.
//
//   perfbench --workload <krylov_p4|timestep_slu|service_mix>
//                    --seed <n> --seconds <s> --trace <0|1> [--setup-only]
//
// Prints one JSON object on its last stdout line: the metrics with units,
// attempted/failed solve counts, and provenance.  --trace 0 times the
// workload end to end; --trace 1 runs the per-layer suite (layers.cpp);
// --setup-only stops after the workload's set-up and reports setup_s.
// run.py starts it with every LISI_* variable removed from its environment.
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<krylov_p4|timestep_slu|service_mix> --seed <n> --seconds "
               "<s> --trace <0|1> [--setup-only]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool hasValue = i + 1 < argc;
    if (a == "--setup-only") {
      args.setupOnly = true;
    } else if (a == "--workload" && hasValue) {
      args.workload = argv[++i];
    } else if (a == "--seed" && hasValue) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && hasValue) {
      args.seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && hasValue) {
      args.trace = std::atoi(argv[++i]) != 0;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (args.seconds <= 0.0) return usage("--seconds must be positive");
  if (args.workload != "krylov_p4" && args.workload != "timestep_slu" &&
      args.workload != "service_mix") {
    return usage("unknown workload");
  }

  lisi::registerSolverComponents();
  perfbench::Report report;
  report.infoString("compiler", PERFBENCH_COMPILER);
  report.infoString("build_type", PERFBENCH_BUILD_TYPE);
  perfbench::recordModes(report);
  try {
    if (args.trace && !args.setupOnly) {
      perfbench::runLayerSuite(args, report);
    } else if (args.workload == "krylov_p4") {
      perfbench::runKrylov(args, report);
    } else if (args.workload == "timestep_slu") {
      perfbench::runTimestep(args, report);
    } else {
      perfbench::runServiceMix(args, report);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n",
                 args.workload.c_str(), e.what());
    return 1;
  }
  if (!args.trace && !args.setupOnly) {
    report.metric("peak_rss_mb", perfbench::peakRssMb(), "MiB");
    report.info("host_calib_ms", perfbench::hostCalibrationMs());
  }
  report.print(args.workload, args.setupOnly ? "setup"
                              : args.trace   ? "trace"
                                             : "e2e");
  return 0;
}
