// Minimal loopback socket plumbing for the load generators. The blocking
// CacheClient cannot send on a schedule while replies are outstanding, so
// the generators speak the wire protocol through protocol.h over these.

#ifndef PERFBENCH_MCBENCH_NET_H_
#define PERFBENCH_MCBENCH_NET_H_

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <string>

namespace perfbench {

/// One TCP connection to 127.0.0.1:port, closed on destruction.
class LoopbackConn {
 public:
  LoopbackConn() = default;
  ~LoopbackConn() { Close(); }
  LoopbackConn(const LoopbackConn&) = delete;
  LoopbackConn& operator=(const LoopbackConn&) = delete;

  bool Connect(uint16_t port) {
    Close();
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return false;
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      Close();
      return false;
    }
    return true;
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  /// Blocking write of the whole buffer.
  bool SendAll(const char* data, size_t len) {
    while (len > 0) {
      const ssize_t n = ::send(fd_, data, len, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      data += n;
      len -= static_cast<size_t>(n);
    }
    return true;
  }

  /// Non-blocking write; returns bytes written (0 if the socket is full),
  /// -1 on error.
  ssize_t SendSome(const char* data, size_t len) {
    const ssize_t n = ::send(fd_, data, len, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0) return (errno == EAGAIN || errno == EWOULDBLOCK) ? 0 : -1;
    return n;
  }

  /// Appends what is readable to `*buf`. Blocking or not per `block`.
  /// Returns bytes read, 0 when nothing was ready, -1 on error or EOF.
  ssize_t RecvInto(std::string* buf, bool block) {
    char tmp[65536];
    const ssize_t n = ::recv(fd_, tmp, sizeof(tmp), block ? 0 : MSG_DONTWAIT);
    if (n > 0) {
      buf->append(tmp, static_cast<size_t>(n));
      return n;
    }
    if (n < 0 && !block && (errno == EAGAIN || errno == EWOULDBLOCK)) return 0;
    if (n < 0 && errno == EINTR) return 0;
    return -1;
  }

 private:
  int fd_ = -1;
};

}  // namespace perfbench

#endif  // PERFBENCH_MCBENCH_NET_H_
