// One closed-loop round trip over the wire protocol, shared by the server
// workloads' generators and the loopback rung of the layer ladder.

#ifndef PERFBENCH_MCBENCH_ROUND_TRIP_H_
#define PERFBENCH_MCBENCH_ROUND_TRIP_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "mcbench/net.h"
#include "mcbench/spans.h"
#include "src/server/protocol.h"

namespace perfbench {

/// A key and the value a SET writes to it.
struct SetOp {
  std::string_view key;
  std::string_view value;
};

/// Client side of a loopback connection with one round trip in flight: a
/// GET (one read key) or an MGET (several), then pipelined SETs, sent in
/// one write. It polls for every reply without sleeping and decodes the
/// read.
class RoundTripper {
 public:
  explicit RoundTripper(LoopbackConn* conn) : conn_(conn) {}

  /// False, with error() saying why, on a failed send or receive, or on a
  /// reply that is malformed, out of order or an error (a GET may answer
  /// NotFound; SETs must answer OK). `span_parent` and `request` tag the
  /// client.encode span.
  bool Run(const std::vector<std::string_view>& reads,
           std::span<const SetOp> sets, SpanBuffer* sb,
           const char* span_parent, uint64_t request);

  /// After a successful Run: found flag and value of each read key, in
  /// order. The values stay valid until the next Run.
  const std::vector<mccuckoo::server::MgetEntry>& reads() const {
    return entries_;
  }
  uint64_t encode_ns() const { return encode_ns_; }
  uint64_t decode_ns() const { return decode_ns_; }
  const char* error() const { return error_; }

 private:
  bool Fail(const char* why) {
    error_ = why;
    return false;
  }

  LoopbackConn* conn_;
  std::string sendbuf_;
  std::string recvbuf_;
  std::string read_body_;
  std::vector<mccuckoo::server::MgetEntry> entries_;
  uint32_t opaque_ = 1;
  uint64_t encode_ns_ = 0;
  uint64_t decode_ns_ = 0;
  const char* error_ = "";
};

}  // namespace perfbench

#endif  // PERFBENCH_MCBENCH_ROUND_TRIP_H_
