#include "net/tcp.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

namespace gear::net {
namespace {

/// Granularity of the poll slices inside blocking reads/writes: how often a
/// blocked I/O loop rechecks its deadline and the server's stop flag.
constexpr int kPollSliceMs = 200;

enum class IoResult { kOk, kEof, kTimeout, kError, kStopped };

void close_fd(int fd) {
  if (fd >= 0) ::close(fd);
}

/// Reads exactly `len` bytes. `timeout_ms` < 0 waits forever (until EOF or
/// `stop`); `stop` may be null.
IoResult read_full(int fd, std::uint8_t* out, std::size_t len, int timeout_ms,
                   const std::atomic<bool>* stop) {
  using Clock = std::chrono::steady_clock;
  auto deadline = Clock::now() + std::chrono::milliseconds(
                                     timeout_ms < 0 ? 0 : timeout_ms);
  std::size_t got = 0;
  while (got < len) {
    if (stop != nullptr && stop->load(std::memory_order_relaxed)) {
      return IoResult::kStopped;
    }
    int wait = kPollSliceMs;
    if (timeout_ms >= 0) {
      auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                      deadline - Clock::now())
                      .count();
      if (left <= 0) return IoResult::kTimeout;
      wait = static_cast<int>(std::min<long long>(left, kPollSliceMs));
    }
    pollfd pfd{fd, POLLIN, 0};
    int ready = ::poll(&pfd, 1, wait);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return IoResult::kError;
    }
    if (ready == 0) continue;  // slice expired; recheck deadline/stop
    ssize_t n = ::recv(fd, out + got, len - got, 0);
    if (n == 0) return IoResult::kEof;
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return IoResult::kError;
    }
    got += static_cast<std::size_t>(n);
  }
  return IoResult::kOk;
}

/// Writes exactly `len` bytes; same timeout/stop contract as read_full.
IoResult write_full(int fd, const std::uint8_t* data, std::size_t len,
                    int timeout_ms, const std::atomic<bool>* stop) {
  using Clock = std::chrono::steady_clock;
  auto deadline = Clock::now() + std::chrono::milliseconds(
                                     timeout_ms < 0 ? 0 : timeout_ms);
  std::size_t sent = 0;
  while (sent < len) {
    if (stop != nullptr && stop->load(std::memory_order_relaxed)) {
      return IoResult::kStopped;
    }
    int wait = kPollSliceMs;
    if (timeout_ms >= 0) {
      auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                      deadline - Clock::now())
                      .count();
      if (left <= 0) return IoResult::kTimeout;
      wait = static_cast<int>(std::min<long long>(left, kPollSliceMs));
    }
    pollfd pfd{fd, POLLOUT, 0};
    int ready = ::poll(&pfd, 1, wait);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return IoResult::kError;
    }
    if (ready == 0) continue;
    ssize_t n = ::send(fd, data + sent, len - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return IoResult::kError;
    }
    sent += static_cast<std::size_t>(n);
  }
  return IoResult::kOk;
}

/// Writes `frame` behind its 4-byte length prefix.
IoResult write_frame(int fd, BytesView frame, int timeout_ms,
                     const std::atomic<bool>* stop) {
  std::uint8_t header[kFrameHeaderBytes];
  put_frame_length(header, frame.size());
  IoResult r = write_full(fd, header, sizeof header, timeout_ms, stop);
  if (r != IoResult::kOk) return r;
  return write_full(fd, frame.data(), frame.size(), timeout_ms, stop);
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

}  // namespace

StatusOr<HostPort> parse_host_port(const std::string& spec) {
  std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos) {
    return {ErrorCode::kInvalidArgument,
            "expected HOST:PORT, got '" + spec + "'"};
  }
  HostPort out;
  out.host = spec.substr(0, colon);
  std::string port_str = spec.substr(colon + 1);
  if (out.host.empty()) {
    return {ErrorCode::kInvalidArgument, "empty host in '" + spec + "'"};
  }
  if (port_str.empty()) {
    return {ErrorCode::kInvalidArgument, "empty port in '" + spec + "'"};
  }
  std::uint32_t port = 0;
  for (char c : port_str) {
    if (!std::isdigit(static_cast<unsigned char>(c))) {
      return {ErrorCode::kInvalidArgument,
              "port is not a number in '" + spec + "'"};
    }
    port = port * 10 + static_cast<std::uint32_t>(c - '0');
    if (port > 65535) {
      return {ErrorCode::kInvalidArgument,
              "port out of range in '" + spec + "'"};
    }
  }
  out.port = static_cast<std::uint16_t>(port);
  return out;
}

// ---------------------------------------------------------------------------
// TcpServer

TcpServer::TcpServer(FrameServer& frames, Options options)
    : frames_(frames),
      options_(options),
      // Width >= 2: a width-1 util::ThreadPool runs submit() inline, which
      // would serve connections on the accept thread and deadlock accepts.
      pool_(std::max<std::size_t>(2, options.max_clients)) {}

TcpServer::~TcpServer() { stop(); }

void TcpServer::start(const std::string& host, std::uint16_t port) {
  if (started_.exchange(true)) {
    throw Error(ErrorCode::kInvalidArgument, "tcp server already started");
  }
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  addrinfo* res = nullptr;
  std::string port_str = std::to_string(port);
  int rc = ::getaddrinfo(host.c_str(), port_str.c_str(), &hints, &res);
  if (rc != 0) {
    throw Error(ErrorCode::kInternal, "tcp server: cannot resolve '" + host +
                                          "': " + ::gai_strerror(rc));
  }
  int fd = -1;
  std::string bind_error = "no addresses";
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      bind_error = std::strerror(errno);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 &&
        ::listen(fd, SOMAXCONN) == 0) {
      break;
    }
    bind_error = std::strerror(errno);
    close_fd(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd < 0) {
    throw Error(ErrorCode::kInternal, "tcp server: cannot bind " + host + ":" +
                                          port_str + ": " + bind_error);
  }

  // Read the actual port back (meaningful when asked to bind port 0).
  sockaddr_storage addr{};
  socklen_t addr_len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) == 0) {
    if (addr.ss_family == AF_INET) {
      port_ = ntohs(reinterpret_cast<sockaddr_in*>(&addr)->sin_port);
    } else if (addr.ss_family == AF_INET6) {
      port_ = ntohs(reinterpret_cast<sockaddr_in6*>(&addr)->sin6_port);
    }
  }
  if (port_ == 0) port_ = port;

  listen_fd_ = fd;
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void TcpServer::accept_loop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    int lfd = listen_fd_.load(std::memory_order_relaxed);
    if (lfd < 0) break;
    pollfd pfd{lfd, POLLIN, 0};
    int ready = ::poll(&pfd, 1, kPollSliceMs);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;
    int client = ::accept(lfd, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;  // listen socket closed by stop()
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    set_nodelay(client);
    {
      std::lock_guard guard(clients_mutex_);
      if (stop_.load(std::memory_order_relaxed)) {
        close_fd(client);
        break;
      }
      client_fds_.insert(client);
      connection_tasks_.push_back(
          pool_.submit([this, client] { serve_connection(client); }));
    }
  }
}

void TcpServer::serve_connection(int fd) {
  Bytes request;
  while (!stop_.load(std::memory_order_relaxed)) {
    // A parked connection may sit idle indefinitely between requests
    // (timeout -1); once the first header byte lands, the peer owes us the
    // rest of the frame within the I/O timeout.
    std::uint8_t header[kFrameHeaderBytes];
    IoResult r = read_full(fd, header, 1, /*timeout_ms=*/-1, &stop_);
    if (r != IoResult::kOk) break;
    r = read_full(fd, header + 1, sizeof header - 1, options_.io_timeout_ms,
                  &stop_);
    if (r != IoResult::kOk) break;
    std::uint32_t len = get_frame_length(header);
    if (len == 0 || len > options_.max_frame_bytes) {
      // Protocol violation (or a memory bomb): drop the connection rather
      // than allocate. The client's retry ladder redials.
      frames_rejected_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    request.resize(len);
    r = read_full(fd, request.data(), len, options_.io_timeout_ms, &stop_);
    if (r != IoResult::kOk) break;

    Bytes response;
    try {
      response = frames_.serve(request);
    } catch (...) {
      // Registry-side failure: answer in-band so the client sees a frame
      // (and its stub can decide to retry), not a dead connection.
      WireMessage reply;
      reply.type = MessageType::kQueryManyResponse;
      reply.status = Status::kServerError;
      response = encode_message(reply);
    }
    frames_served_.fetch_add(1, std::memory_order_relaxed);
    if (write_frame(fd, response, options_.io_timeout_ms, &stop_) !=
        IoResult::kOk) {
      break;
    }
  }
  std::lock_guard guard(clients_mutex_);
  client_fds_.erase(fd);
  close_fd(fd);
}

void TcpServer::stop() {
  if (!started_.load() || stopped_.exchange(true)) return;
  stop_.store(true, std::memory_order_relaxed);
  // Shut down the listen socket (unblocks accept), join the accept thread,
  // and only then close the fd — the loop must never poll a recycled fd.
  int lfd = listen_fd_.load(std::memory_order_relaxed);
  if (lfd >= 0) ::shutdown(lfd, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  lfd = listen_fd_.exchange(-1, std::memory_order_relaxed);
  if (lfd >= 0) close_fd(lfd);
  {
    std::lock_guard guard(clients_mutex_);
    for (int fd : client_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  std::vector<std::future<void>> tasks;
  {
    std::lock_guard guard(clients_mutex_);
    tasks.swap(connection_tasks_);
  }
  for (auto& task : tasks) {
    if (task.valid()) task.wait();
  }
}

// ---------------------------------------------------------------------------
// TcpTransport

TcpTransport::TcpTransport(std::string host, std::uint16_t port,
                           Options options)
    : host_(std::move(host)), port_(port), options_(options) {}

bool TcpTransport::connect_locked() {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  std::string port_str = std::to_string(port_);
  if (::getaddrinfo(host_.c_str(), port_str.c_str(), &hints, &res) != 0) {
    return false;
  }
  int fd = -1;
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    // Non-blocking connect + poll: a dead host fails within
    // connect_timeout_ms instead of the kernel's (much longer) default.
    int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    int rc = ::connect(fd, ai->ai_addr, ai->ai_addrlen);
    if (rc != 0 && errno == EINPROGRESS) {
      pollfd pfd{fd, POLLOUT, 0};
      rc = ::poll(&pfd, 1, options_.connect_timeout_ms) == 1 ? 0 : -1;
      if (rc == 0) {
        int err = 0;
        socklen_t err_len = sizeof err;
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len);
        rc = err == 0 ? 0 : -1;
      }
    }
    if (rc == 0) {
      ::fcntl(fd, F_SETFL, flags);  // back to blocking; I/O paced by poll
      set_nodelay(fd);
      break;
    }
    close_fd(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd < 0) return false;
  fd_ = fd;
  if (ever_connected_) {
    reconnects_.fetch_add(1, std::memory_order_relaxed);
  }
  ever_connected_ = true;
  return true;
}

void TcpTransport::close_locked() {
  close_fd(fd_);
  fd_ = -1;
}

void TcpTransport::close() {
  std::lock_guard guard(mutex_);
  close_locked();
}

bool TcpTransport::connected() const {
  std::lock_guard guard(mutex_);
  return fd_ >= 0;
}

Bytes TcpTransport::round_trip(BytesView request_frame) {
  if (request_frame.empty() ||
      request_frame.size() > options_.max_frame_bytes) {
    return {};
  }
  std::lock_guard guard(mutex_);
  int backoff_ms = options_.backoff_initial_ms;
  for (int attempt = 0; attempt < options_.max_attempts; ++attempt) {
    if (attempt > 0) {
      // The peer is misbehaving (refused dial, broken pipe, timeout);
      // back off before burning the next attempt so a restarting server
      // has time to come back.
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms = std::min(backoff_ms * 2, options_.backoff_max_ms);
    }
    if (fd_ < 0 && !connect_locked()) continue;

    if (write_frame(fd_, request_frame, options_.io_timeout_ms, nullptr) !=
        IoResult::kOk) {
      io_errors_.fetch_add(1, std::memory_order_relaxed);
      close_locked();
      continue;
    }
    std::uint8_t header[kFrameHeaderBytes];
    if (read_full(fd_, header, sizeof header, options_.io_timeout_ms,
                  nullptr) != IoResult::kOk) {
      io_errors_.fetch_add(1, std::memory_order_relaxed);
      close_locked();
      continue;
    }
    std::uint32_t len = get_frame_length(header);
    if (len == 0 || len > options_.max_frame_bytes) {
      io_errors_.fetch_add(1, std::memory_order_relaxed);
      close_locked();
      continue;
    }
    Bytes response(len);
    if (read_full(fd_, response.data(), len, options_.io_timeout_ms,
                  nullptr) != IoResult::kOk) {
      io_errors_.fetch_add(1, std::memory_order_relaxed);
      close_locked();
      continue;
    }
    return response;
  }
  // Out of attempts: report a dropped response; the client stub's retry
  // ladder (or its caller) turns persistent ones into kUnavailable.
  return {};
}

}  // namespace gear::net
