#include "process.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "dsp/prd_calibration.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

/// fork + exec with the child's stdout/stderr on `out_fd`. Between fork
/// and exec the child only makes async-signal-safe calls.
pid_t spawn(const std::vector<std::string>& argv, int out_fd) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    throw std::runtime_error(std::string("fork failed: ") +
                             std::strerror(errno));
  }
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    dup2(out_fd, STDOUT_FILENO);
    dup2(out_fd, STDERR_FILENO);
    execv(args[0], args.data());
    _exit(127);
  }
  return pid;
}

double seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

ChildUsage wait_usage(pid_t pid, int* status) {
  struct rusage usage {};
  while (wait4(pid, status, 0, &usage) < 0) {
    if (errno != EINTR) return {};
  }
  return {static_cast<double>(usage.ru_maxrss) / 1024.0,
          seconds(usage.ru_utime) + seconds(usage.ru_stime)};
}

}  // namespace

ChildProcess::ChildProcess(const std::vector<std::string>& argv,
                           const std::string& log_path) {
  const int fd = log_path.empty()
                     ? open("/dev/null", O_WRONLY | O_CLOEXEC)
                     : open(log_path.c_str(),
                            O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    throw std::runtime_error("cannot open child log " + log_path);
  }
  try {
    pid_ = spawn(argv, fd);
  } catch (...) {
    close(fd);
    throw;
  }
  close(fd);
}

ChildProcess::~ChildProcess() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    int status = 0;
    wait_usage(pid_, &status);
  }
}

ChildUsage ChildProcess::stop(double grace_s) {
  if (pid_ <= 0) return {};
  kill(pid_, SIGTERM);
  const double deadline = now_s() + grace_s;
  // waitid(WNOWAIT) peeks at the exit without reaping, so wait4 can still
  // collect the child's rusage below.
  const auto exited = [this] {
    siginfo_t info{};
    return waitid(P_PID, static_cast<id_t>(pid_), &info,
                  WEXITED | WNOHANG | WNOWAIT) == 0 &&
           info.si_pid == pid_;
  };
  while (!exited() && now_s() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (!exited()) kill(pid_, SIGKILL);
  int status = 0;
  const ChildUsage usage = wait_usage(pid_, &status);
  pid_ = -1;
  return usage;
}

double probe_calibration_setup(const std::string& self_exe) {
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) {
    throw std::runtime_error("pipe failed");
  }
  const double start = now_s();
  pid_t pid = -1;
  try {
    pid = spawn({self_exe, "probe-calibrate"}, fds[1]);
  } catch (...) {
    close(fds[0]);
    close(fds[1]);
    throw;
  }
  close(fds[1]);
  std::string text;
  char buffer[256];
  for (;;) {
    const ssize_t n = read(fds[0], buffer, sizeof buffer);
    if (n > 0) {
      text.append(buffer, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  int status = 0;
  wait_usage(pid, &status);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("set-up probe failed: " + text);
  }
  const double returned = static_cast<double>(std::stoll(text)) * 1e-9;
  return returned - start;
}

int probe_calibrate_main() {
  wsnex::dsp::default_prd_curves();
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count();
  std::printf("%lld\n", static_cast<long long>(ns));
  return 0;
}

}  // namespace perfbench
