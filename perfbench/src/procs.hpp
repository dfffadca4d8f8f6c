// Server processes the harness starts. The harness makes itself a child
// subreaper, so shard workers whose parent dies are reparented to it and
// can be reaped; each server runs in its own process group, which every
// stop path (normal, exception, signal) kills and then waits out.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

/// Installs the subreaper flag and SIGINT/SIGTERM/SIGHUP handlers that
/// kill every live server group, reap all children and exit.
void InstallProcessGuards();

/// Splits the CPUs the harness may use: the harness (the load client, and
/// the simulator of slotted_dynamics) keeps the lowest one, and every
/// server started after this call, with all its threads and processes,
/// runs on the next one. The client's own send, receive and parse work
/// then never competes with the server it measures. Servers spread over
/// several CPUs moved too much between runs to be compared (see README).
/// With one CPU allowed, both share it.
void SplitCpus();

class ServerProcess {
 public:
  /// Forks and execs `argv` (argv[0] = binary path) with stdout/stderr
  /// appended to `log_path`, then waits until `socket_path` accepts.
  /// Throws std::runtime_error if it does not within `ready_timeout_s`.
  ServerProcess(const std::vector<std::string>& argv, const std::string& log_path,
                const std::string& socket_path, double ready_timeout_s = 30.0);
  ~ServerProcess();

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// The server and its descendants, read from /proc/<pid>/task/*/children.
  [[nodiscard]] std::vector<int> Tree() const;

  /// Σ VmHWM over Tree(), MiB.
  [[nodiscard]] double PeakRssMb() const;

  /// SIGTERM to the group, SIGKILL after a grace, then reaps the server
  /// and every orphaned descendant. Idempotent. Returns the server's wait
  /// status (or -1 when it was already stopped).
  int Stop(double grace_s = 10.0);

 private:
  int pid_ = -1;
};

/// Connects a blocking Unix-domain stream socket; -1 on failure.
int ConnectUnix(const std::string& path);

}  // namespace perfbench
