// Child processes wsnex_bench starts: set-up probes (fresh copies of
// itself) and the `wsnex serve` daemon. Every child is started with
// PR_SET_PDEATHSIG, so it dies with wsnex_bench even when wsnex_bench is
// killed, and wsnex_bench always reaps what it starts.
#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

namespace perfbench {

/// What wait4 reports about a reaped child.
struct ChildUsage {
  double peak_rss_mb = 0.0;
  double cpu_s = 0.0;  ///< user + system time
};

class ChildProcess {
 public:
  /// Starts argv[0] with the given arguments; stdout and stderr go to
  /// `log_path` (or /dev/null when empty). Throws std::runtime_error.
  ChildProcess(const std::vector<std::string>& argv,
               const std::string& log_path);
  /// Kills (SIGKILL) and reaps the child if it is still running.
  ~ChildProcess();
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  pid_t pid() const { return pid_; }
  bool running() const { return pid_ > 0; }

  /// SIGTERM, then SIGKILL after `grace_s`; reaps the child and returns
  /// its wait4 rusage.
  ChildUsage stop(double grace_s);

 private:
  pid_t pid_ = -1;
};

/// Runs `self_exe probe-calibrate` in a fresh process and returns the
/// seconds from just before the fork until that process's cold
/// dsp::default_prd_curves() call returned (both sides read
/// CLOCK_MONOTONIC). Throws std::runtime_error when the probe fails.
double probe_calibration_setup(const std::string& self_exe);

/// The probe's side: calibrates and prints the monotonic time, in
/// nanoseconds, at which the calibration returned.
int probe_calibrate_main();

}  // namespace perfbench
