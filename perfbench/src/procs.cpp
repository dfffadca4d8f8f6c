#include "procs.hpp"

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"

namespace perfbench {

namespace {

// Process groups of live servers, read by the signal handler.
constexpr int kMaxGroups = 8;
std::atomic<int> g_groups[kMaxGroups];

// The CPU the servers run on (the second one the harness may use).
cpu_set_t g_server_cpus;
bool g_have_server_cpus = false;

void RememberGroup(int pgid) {
  for (auto& slot : g_groups) {
    int expected = 0;
    if (slot.compare_exchange_strong(expected, pgid)) return;
  }
}

void ForgetGroup(int pgid) {
  for (auto& slot : g_groups) {
    int expected = pgid;
    slot.compare_exchange_strong(expected, 0);
  }
}

// Reaps every child (and reparented orphan) that has exited; returns true
// once no child is left.
bool ReapAll(bool block) {
  for (;;) {
    const pid_t r = ::waitpid(-1, nullptr, block ? 0 : WNOHANG);
    if (r > 0) continue;
    if (r < 0 && errno == EINTR) continue;
    return r < 0 && errno == ECHILD;
  }
}

extern "C" void OnFatalSignal(int sig) {
  for (auto& slot : g_groups) {
    const int pgid = slot.load();
    if (pgid > 0) ::kill(-pgid, SIGKILL);
  }
  ReapAll(true);
  ::_exit(128 + sig);
}

// Children of every thread of `pid` (each thread lists what it forked).
std::vector<int> ChildrenOf(int pid) {
  std::vector<int> out;
  std::error_code ec;
  const std::filesystem::path tasks = "/proc/" + std::to_string(pid) + "/task";
  for (const auto& task : std::filesystem::directory_iterator(tasks, ec)) {
    std::ifstream children(task.path() / "children");
    for (int c; children >> c;) out.push_back(c);
  }
  return out;
}

}  // namespace

void InstallProcessGuards() {
  ::prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0);
  struct sigaction sa {};
  sa.sa_handler = OnFatalSignal;
  sigemptyset(&sa.sa_mask);
  for (const int sig : {SIGINT, SIGTERM, SIGHUP}) ::sigaction(sig, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);
}

void SplitCpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE && cpus.size() < 2; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  if (cpus.empty()) return;
  CPU_ZERO(&g_server_cpus);
  CPU_SET(cpus.back(), &g_server_cpus);
  g_have_server_cpus = true;
  cpu_set_t client;
  CPU_ZERO(&client);
  CPU_SET(cpus.front(), &client);
  ::sched_setaffinity(0, sizeof client, &client);
}

int ConnectUnix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

ServerProcess::ServerProcess(const std::vector<std::string>& argv,
                             const std::string& log_path,
                             const std::string& socket_path,
                             double ready_timeout_s) {
  ::unlink(socket_path.c_str());
  std::vector<char*> cargv;
  for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);
  const int log_fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log_fd < 0) throw std::runtime_error("cannot open " + log_path);

  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(log_fd);
    throw std::runtime_error("fork failed");
  }
  if (pid_ == 0) {
    ::setpgid(0, 0);
    ::prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0);
    if (g_have_server_cpus) ::sched_setaffinity(0, sizeof g_server_cpus, &g_server_cpus);
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    const int devnull = ::open("/dev/null", O_RDONLY);
    if (devnull >= 0) ::dup2(devnull, STDIN_FILENO);
    ::execv(cargv[0], cargv.data());
    ::_exit(127);
  }
  ::setpgid(pid_, pid_);
  RememberGroup(pid_);
  ::close(log_fd);

  const double deadline = Now() + ready_timeout_s;
  for (;;) {
    const int fd = ConnectUnix(socket_path);
    if (fd >= 0) {
      ::close(fd);
      return;
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      ForgetGroup(pid_);
      pid_ = -1;
      throw std::runtime_error("server exited before listening; see " + log_path);
    }
    if (Now() > deadline) {
      Stop(1.0);
      throw std::runtime_error("server not ready in time; see " + log_path);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

ServerProcess::~ServerProcess() { Stop(); }

std::vector<int> ServerProcess::Tree() const {
  std::vector<int> out;
  if (pid_ <= 0) return out;
  out.push_back(pid_);
  for (std::size_t k = 0; k < out.size(); ++k) {
    for (const int child : ChildrenOf(out[k])) out.push_back(child);
  }
  return out;
}

double ServerProcess::PeakRssMb() const {
  double total = 0.0;
  for (const int pid : Tree()) total += perfbench::PeakRssMb(pid);
  return total;
}

int ServerProcess::Stop(double grace_s) {
  if (pid_ <= 0) return -1;
  const int pid = pid_;
  pid_ = -1;
  ::kill(-pid, SIGTERM);
  int status = -1;
  const double deadline = Now() + grace_s;
  bool exited = false;
  while (Now() < deadline) {
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid || (r < 0 && errno == ECHILD)) {
      exited = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // Whatever is left of the group (a wedged server, orphaned workers)
  // gets SIGKILL; the subreaper flag lets us reap the orphans too.
  ::kill(-pid, SIGKILL);
  if (!exited) ::waitpid(pid, &status, 0);
  ForgetGroup(pid);
  const double reap_deadline = Now() + 5.0;
  while (!ReapAll(false) && Now() < reap_deadline) {
    ::kill(-pid, SIGKILL);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return status;
}

}  // namespace perfbench
