// wsnex_bench — the C++ half of the wsnex benchmark (perfbench/run.py
// builds it and is the entry point). Subcommands:
//
//   run --workload W --seed N --seconds S --trace 0|1 --work-dir DIR
//       --wsnex PATH [--tiny]     one measured run; the last stdout line is
//                                 a JSON object with every metric computed
//   corpus --workload W --seed N [--tiny]
//                                 the generated input of a workload
//   provenance                    build and machine facts, as JSON
//   selftest                      percentile and ledger arithmetic checks
//   probe-calibrate               set-up probe (see process.hpp)
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "corpus.hpp"
#include "process.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "util/json.hpp"
#include "util/simd.hpp"
#include "workloads.hpp"

namespace perfbench {

const char* to_string(Workload workload) {
  switch (workload) {
    case Workload::kCampaignNsga2: return "campaign_nsga2";
    case Workload::kCampaignMosa: return "campaign_mosa";
    case Workload::kServeMixed: return "serve_mixed";
  }
  return "?";
}

std::optional<Workload> workload_from_string(const std::string& name) {
  for (Workload w : {Workload::kCampaignNsga2, Workload::kCampaignMosa,
                     Workload::kServeMixed}) {
    if (name == to_string(w)) return w;
  }
  return std::nullopt;
}

namespace {

using wsnex::util::Json;

int usage() {
  std::fprintf(stderr,
               "usage: wsnex_bench run --workload W --seed N --seconds S "
               "--trace 0|1 --work-dir DIR --wsnex PATH [--tiny]\n"
               "       wsnex_bench corpus --workload W --seed N [--tiny]\n"
               "       wsnex_bench provenance | selftest\n");
  return 2;
}

struct Args {
  std::string command;
  RunConfig config;
  bool have_workload = false;
};

bool parse(int argc, char** argv, Args& args) {
  if (argc < 2) return false;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : "";
    };
    try {
      if (a == "--workload") {
        const auto w = workload_from_string(value());
        if (!w) return false;
        args.config.workload = *w;
        args.have_workload = true;
      } else if (a == "--seed") {
        args.config.seed = std::stoull(value());
      } else if (a == "--seconds") {
        args.config.seconds = std::stod(value());
      } else if (a == "--trace") {
        const std::string t = value();
        if (t != "0" && t != "1") return false;
        args.config.trace = t == "1";
      } else if (a == "--work-dir") {
        args.config.work_dir = value();
      } else if (a == "--wsnex") {
        args.config.wsnex_exe = value();
      } else if (a == "--tiny") {
        args.config.tiny = true;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return true;
}

Json provenance() {
  namespace simd = wsnex::util::simd;
  Json out = Json::object();
  out.set("build_type", PERFBENCH_BUILD_TYPE);
  out.set("detected_isa", simd::isa_name(simd::detected_isa()));
  out.set("active_isa", simd::isa_name(simd::active_isa()));
  out.set("simd_reassociation", simd::reassociation_enabled());
  out.set("hardware_threads",
          static_cast<std::size_t>(std::thread::hardware_concurrency()));
#if defined(WSNEX_METRICS_DISABLED)
  out.set("metrics_compiled", false);
#else
  out.set("metrics_compiled", true);
#endif
  return out;
}

int selftest() {
  int failures = 0;
  const auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::printf("FAIL %s\n", what);
      ++failures;
    }
  };
  const auto near = [](double a, double b) { return std::fabs(a - b) < 1e-9; };

  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  const Percentile p50 = percentile(hundred, 0.50);
  const Percentile p95 = percentile(hundred, 0.95);
  expect(near(p50.value, 50.5) && p50.count == 100 && p50.beyond == 50,
         "p50 of 1..100 is 50.5 with 50 samples beyond");
  expect(near(p95.value, 95.05) && p95.count == 100 && p95.beyond == 5,
         "p95 of 1..100 is 95.05 with 5 samples beyond");
  const Percentile one = percentile({7.0}, 0.95);
  expect(near(one.value, 7.0) && one.count == 1 && one.beyond == 0,
         "percentile of one sample");
  expect(percentile({}, 0.5).count == 0, "percentile of no samples");
  expect(near(interquartile_mean({8, 1, 7, 2, 6, 3, 5, 4}), 4.5),
         "interquartile mean drops the lowest and highest quarter");
  expect(near(interquartile_mean({100, 1, 2, 3}), 2.5),
         "interquartile mean ignores one stall in four");
  expect(near(interquartile_mean({2, 4}), 3.0),
         "interquartile mean of fewer than four samples is the mean");

  // Top-level A [0, 1] with overlapping children B, C; top-level D [2, 3];
  // an aux span that must stay out of the ledger.
  std::vector<SpanRecord> spans = {
      {1, 0, 0, true, "A", 0.0, 1.0},   {2, 1, 0, true, "B", 0.1, 0.4},
      {3, 1, 0, true, "C", 0.3, 0.6},   {4, 0, 0, true, "D", 2.0, 3.0},
      {5, 0, 0, false, "aux", 3.0, 9.0}};
  const Ledger ledger = build_ledger(spans, 1, 4.0);
  expect(near(ledger.wall_s, 4.0) && near(ledger.phases_s, 2.0) &&
             near(ledger.unaccounted_s, 2.0),
         "ledger: phases 2 s + unaccounted 2 s = wall 4 s");
  expect(near(ledger.phases_s + ledger.unaccounted_s, ledger.wall_s),
         "ledger adds up");
  double self_a = -1.0;
  for (const PhaseTotal& p : ledger.phases) {
    if (p.name == "A") self_a = p.self_s;
    expect(p.name != "aux", "aux spans stay out of the ledger");
  }
  expect(near(self_a, 0.5), "self time = span minus union of children");

  // Real spans: nested, sequential; the ledger of a section that the
  // spans fill leaves only the gaps unaccounted, and Σ self = Σ top level.
  Tracer tracer(true);
  const double start = now_s();
  {
    const Span outer(&tracer, "outer");
    { const Span inner(&tracer, "inner", outer.id()); }
    { const Span inner(&tracer, "inner", outer.id()); }
  }
  { const Span second(&tracer, "second"); }
  const double wall = now_s() - start;
  const Ledger real = build_ledger(tracer.spans(), 2, wall);
  double self_total = 0.0;
  for (const PhaseTotal& p : real.phases) self_total += p.self_s;
  expect(near(real.phases_s + real.unaccounted_s, 2 * wall),
         "ledger of recorded spans adds up over two lanes");
  expect(std::fabs(self_total - real.phases_s) < 1e-9,
         "self times of a nested tree sum to its top-level spans");
  expect(real.unaccounted_s >= wall, "idle lane is unaccounted");

  std::printf("selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

void print_result(const Result& result) {
  std::printf("operations: %zu attempted, %zu failed (ops_failed_ratio %g)\n",
              result.attempted, result.failed,
              result.attempted > 0 ? static_cast<double>(result.failed) /
                                         static_cast<double>(result.attempted)
                                   : 0.0);
  for (const std::string& f : result.failures) {
    std::printf("  failed: %s\n", f.c_str());
  }
  Json metrics = Json::object();
  for (const Metric& m : result.metrics) {
    Json entry = Json::object();
    entry.set("value", m.value);
    entry.set("unit", m.unit);
    metrics.set(m.name, std::move(entry));
  }
  Json out = Json::object();
  out.set("correct", result.failed == 0 && result.attempted > 0);
  out.set("attempted", result.attempted);
  out.set("failed", result.failed);
  out.set("metrics", std::move(metrics));
  std::printf("%s\n", out.dump().c_str());
  std::fflush(stdout);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse(argc, argv, args)) return usage();
  try {
    if (args.command == "probe-calibrate") return probe_calibrate_main();
    if (args.command == "selftest") return selftest();
    if (args.command == "provenance") {
      std::printf("%s\n", provenance().dump().c_str());
      return 0;
    }
    if (args.command == "corpus") {
      if (!args.have_workload) return usage();
      std::printf("%s\n", corpus_json(args.config.workload, args.config.seed,
                                       args.config.tiny)
                              .dump()
                              .c_str());
      return 0;
    }
    if (args.command != "run" || !args.have_workload ||
        args.config.work_dir.empty() || args.config.wsnex_exe.empty()) {
      return usage();
    }
    args.config.self_exe = std::filesystem::read_symlink("/proc/self/exe");
    // The work directory belongs to this run: start it empty, so no store
    // or port file of an earlier run is picked up.
    std::filesystem::remove_all(args.config.work_dir);
    std::filesystem::create_directories(args.config.work_dir);
    const Result result = args.config.workload == Workload::kServeMixed
                              ? run_serve_workload(args.config)
                              : run_campaign_workload(args.config);
    print_result(result);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wsnex_bench: %s\n", e.what());
    return 1;
  }
}
