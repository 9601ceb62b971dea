#include "src/obs/stats_server.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace mccuckoo {

namespace {

// Drains `fd` until the end of the request headers (or a sanity cap) and
// returns what arrived. The body is irrelevant: every route is a read-only
// GET.
std::string ReadRequest(int fd) {
  std::string req;
  char buf[1024];
  while (req.find("\r\n\r\n") == std::string::npos && req.size() < 16 * 1024) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    req.append(buf, static_cast<size_t>(n));
    // A bare "GET /x HTTP/1.0\n" client (netcat) never sends \r\n\r\n;
    // one complete request line is enough to route.
    if (req.find('\n') != std::string::npos) break;
  }
  return req;
}

// The request line's path, empty unless it is a GET.
std::string_view RequestPath(std::string_view request) {
  const std::string_view line =
      request.substr(0, request.find_first_of("\r\n"));
  if (line.substr(0, 4) != "GET ") return {};
  const std::string_view rest = line.substr(4);
  return rest.substr(0, rest.find(' '));
}

void SendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
#ifdef MSG_NOSIGNAL
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (n <= 0) return;  // peer went away; nothing useful to do
    off += static_cast<size_t>(n);
  }
}

std::string FrameResponse(int code, std::string_view content_type,
                          const std::string& body) {
  std::string resp = "HTTP/1.1 ";
  resp += code == 200 ? "200 OK" : "404 Not Found";
  resp += "\r\nContent-Type: ";
  resp += content_type;
  resp += "\r\nContent-Length: ";
  resp += std::to_string(body.size());
  resp += "\r\nConnection: close\r\n\r\n";
  resp += body;
  return resp;
}

}  // namespace

std::string RespondStatsHttp(std::string_view request,
                             const StatsHandlers* handlers,
                             std::string_view banner) {
  const std::string_view path = RequestPath(request);
  if (path == "/") {
    return FrameResponse(200, "text/plain", std::string(banner));
  }
  const std::function<std::string()>* handler = nullptr;
  std::string_view content_type = "application/json";
  if (handlers != nullptr) {
    if (path == "/metrics") {
      handler = &handlers->metrics;
      content_type = "text/plain; version=0.0.4";
    } else if (path == "/json") {
      handler = &handlers->json;
    } else if (path == "/trace") {
      handler = &handlers->trace;
    } else if (path == "/heatmap") {
      handler = &handlers->heatmap;
    }
  }
  if (handler == nullptr || !*handler) {
    return FrameResponse(404, "text/plain", "not found\n");
  }
  return FrameResponse(200, content_type, (*handler)());
}

Status StatsServer::Start(StatsHandlers handlers, uint16_t port) {
  if (running_.load(std::memory_order_acquire)) {
    return Status::AlreadyExists("stats server already running");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    const std::string msg = std::string("bind: ") + std::strerror(errno);
    ::close(fd);
    return Status::IOError(msg);
  }
  if (::listen(fd, 16) < 0) {
    const std::string msg = std::string("listen: ") + std::strerror(errno);
    ::close(fd);
    return Status::IOError(msg);
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    const std::string msg =
        std::string("getsockname: ") + std::strerror(errno);
    ::close(fd);
    return Status::IOError(msg);
  }
  handlers_ = std::move(handlers);
  listen_fd_ = fd;
  port_ = ntohs(addr.sin_port);
  requests_.store(0, std::memory_order_relaxed);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { Serve(); });
  return Status::OK();
}

void StatsServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // shutdown() unblocks the accept() in Serve(); close() alone is not
  // guaranteed to on all platforms.
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  listen_fd_ = -1;
  if (thread_.joinable()) thread_.join();
  port_ = 0;
}

void StatsServer::Serve() {
  while (running_.load(std::memory_order_acquire)) {
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) continue;
      break;  // listen socket shut down (Stop) or unrecoverable
    }
    HandleConnection(conn);
    ::close(conn);
  }
}

void StatsServer::HandleConnection(int fd) {
  const std::string request = ReadRequest(fd);
  requests_.fetch_add(1, std::memory_order_relaxed);
  SendAll(fd, RespondStatsHttp(request, &handlers_,
                               "mccuckoo stats server\n"
                               "routes: /metrics /json /trace /heatmap\n"));
}

}  // namespace mccuckoo
