#include "client.hpp"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <deque>
#include <fcntl.h>
#include <stdexcept>

#include "bench.hpp"
#include "procs.hpp"

namespace perfbench {

namespace {

struct Conn {
  int fd = -1;
  std::deque<std::size_t> queued;    ///< samples not yet fully written
  std::size_t written = 0;           ///< bytes of queued.front() written
  std::deque<std::size_t> awaiting;  ///< samples written, reply pending
  std::string in;
};

class Connections {
 public:
  Connections(const std::string& path, std::size_t count) : conns_(count) {
    epoll_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_ < 0) throw std::runtime_error("epoll_create1 failed");
    for (std::size_t c = 0; c < count; ++c) {
      const int fd = ConnectUnix(path);
      if (fd < 0) throw std::runtime_error("cannot connect to " + path);
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
      conns_[c].fd = fd;
      epoll_event ev{};
      ev.events = EPOLLIN | EPOLLOUT | EPOLLET;
      ev.data.u64 = c;
      ::epoll_ctl(epoll_, EPOLL_CTL_ADD, fd, &ev);
    }
  }
  ~Connections() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
    if (epoll_ >= 0) ::close(epoll_);
  }
  Connections(const Connections&) = delete;
  Connections& operator=(const Connections&) = delete;

  std::vector<Conn> conns_;
  int epoll_ = -1;
};

}  // namespace

std::vector<Sample> RunLoad(const LoadSpec& spec, const NextInput& next) {
  Connections net(spec.socket_path, spec.connections);
  std::vector<Sample> samples;
  std::vector<const std::string*> frames;
  samples.reserve(4096);
  const bool open_loop = spec.rate_per_s > 0.0;
  const double start = Now();
  const double stop_release = start + spec.duration_s;
  std::size_t outstanding = 0;
  bool exhausted = false;

  auto write_some = [&](Conn& c) {
    while (!c.queued.empty()) {
      Sample& s = samples[c.queued.front()];
      const std::string& frame = *frames[c.queued.front()];
      if (c.written == 0) s.sent = Now();
      const ssize_t n = ::send(c.fd, frame.data() + c.written,
                               frame.size() - c.written, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        throw std::runtime_error("send failed");
      }
      c.written += static_cast<std::size_t>(n);
      if (c.written == frame.size()) {
        c.awaiting.push_back(c.queued.front());
        c.queued.pop_front();
        c.written = 0;
      }
    }
  };

  // Queues request k on connection `c`; false when inputs ran out.
  auto release = [&](std::size_t c, double due) {
    if (spec.max_requests > 0 && samples.size() >= spec.max_requests) return false;
    const std::string* frame = nullptr;
    std::size_t input = 0;
    if (!next(samples.size(), &frame, &input)) return false;
    Sample s;
    s.input = input;
    s.due = due;
    samples.push_back(std::move(s));
    frames.push_back(frame);
    net.conns_[c].queued.push_back(samples.size() - 1);
    ++outstanding;
    write_some(net.conns_[c]);
    return true;
  };

  std::size_t released = 0;
  if (!open_loop) {
    for (std::size_t c = 0; c < net.conns_.size(); ++c) {
      if (!release(c, Now())) {
        exhausted = true;
        break;
      }
      ++released;
    }
    for (Sample& s : samples) s.due = s.sent;
  }

  char buf[1 << 16];
  epoll_event events[16];
  for (;;) {
    const double now = Now();
    bool releasing = !exhausted && now < stop_release;
    if (open_loop && releasing) {
      for (;;) {
        const double due = start + static_cast<double>(released) / spec.rate_per_s;
        if (due > now || due >= stop_release) break;
        if (!release(released % net.conns_.size(), due)) {
          exhausted = true;
          break;
        }
        ++released;
      }
      releasing = !exhausted;
    }
    if (!releasing && outstanding == 0) break;
    if (!releasing && now > stop_release + spec.drain_timeout_s) {
      throw std::runtime_error("replies still missing after the drain timeout");
    }

    int timeout_ms = 50;
    if (open_loop && releasing) {
      const double due = start + static_cast<double>(released) / spec.rate_per_s;
      timeout_ms = std::clamp(static_cast<int>(std::floor((due - Now()) * 1000.0)), 0, 50);
    }
    const int n = ::epoll_wait(net.epoll_, events, 16, timeout_ms);
    if (n < 0 && errno != EINTR) throw std::runtime_error("epoll_wait failed");
    for (int e = 0; e < n; ++e) {
      const std::size_t ci = events[e].data.u64;
      Conn& c = net.conns_[ci];
      if (events[e].events & EPOLLOUT) write_some(c);
      if (!(events[e].events & (EPOLLIN | EPOLLHUP | EPOLLERR))) continue;
      for (;;) {
        const ssize_t got = ::recv(c.fd, buf, sizeof buf, 0);
        if (got < 0) {
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          if (errno == EINTR) continue;
          throw std::runtime_error("recv failed");
        }
        if (got == 0) throw std::runtime_error("server closed a connection");
        c.in.append(buf, static_cast<std::size_t>(got));
        std::size_t pos = 0;
        for (std::size_t nl; (nl = c.in.find('\n', pos)) != std::string::npos; pos = nl + 1) {
          if (c.awaiting.empty()) throw std::runtime_error("unsolicited reply");
          Sample& s = samples[c.awaiting.front()];
          c.awaiting.pop_front();
          s.done = Now();
          s.reply = c.in.substr(pos, nl - pos);
          --outstanding;
          if (!open_loop && !exhausted && s.done < stop_release) {
            if (release(ci, 0.0)) {
              samples.back().due = samples.back().sent;
              ++released;
            } else {
              exhausted = true;
            }
          }
        }
        c.in.erase(0, pos);
      }
    }
  }
  return samples;
}

std::string QueryStats(const std::string& socket_path) {
  const int fd = ConnectUnix(socket_path);
  if (fd < 0) throw std::runtime_error("cannot connect for STATS");
  const std::string verb = "STATS\n";
  if (::send(fd, verb.data(), verb.size(), MSG_NOSIGNAL) != static_cast<ssize_t>(verb.size())) {
    ::close(fd);
    throw std::runtime_error("STATS send failed");
  }
  std::string line;
  char c = 0;
  while (::recv(fd, &c, 1, 0) == 1 && c != '\n') line.push_back(c);
  ::close(fd);
  return line;
}

}  // namespace perfbench
