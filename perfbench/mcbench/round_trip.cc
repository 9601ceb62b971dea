#include "mcbench/round_trip.h"

#include "mcbench/harness.h"

namespace perfbench {

namespace ms = mccuckoo::server;

bool RoundTripper::Run(const std::vector<std::string_view>& reads,
                       std::span<const SetOp> sets, SpanBuffer* sb,
                       const char* span_parent, uint64_t request) {
  entries_.clear();
  decode_ns_ = 0;
  const uint64_t t0 = NowNs();
  const uint32_t first = opaque_;
  sendbuf_.clear();
  {
    ScopedSpan s(sb, "client.encode", span_parent, request);
    if (reads.size() == 1) {
      ms::AppendGetRequest(&sendbuf_, reads[0], opaque_++);
    } else {
      ms::AppendMgetRequest(&sendbuf_, reads, opaque_++);
    }
    for (const SetOp& op : sets) {
      ms::AppendSetRequest(&sendbuf_, op.key, op.value, 0, opaque_++);
    }
  }
  encode_ns_ = NowNs() - t0;
  if (!conn_->SendAll(sendbuf_.data(), sendbuf_.size())) {
    return Fail("send failed");
  }
  uint32_t expect = first;
  while (expect != opaque_) {
    // Poll without sleeping: a client woken by the kernel for every reply
    // would add a scheduler wakeup to each round trip it times.
    ssize_t got = 0;
    while (got == 0) got = conn_->RecvInto(&recvbuf_, false);
    if (got < 0) return Fail("connection closed or receive failed");
    const uint64_t d0 = NowNs();
    size_t off = 0;
    while (expect != opaque_) {
      ms::Response resp;
      const ms::ParseOutcome o =
          ms::ParseResponse(std::string_view(recvbuf_).substr(off), &resp);
      if (o.status == ms::ParseStatus::kNeedMore) break;
      if (o.status != ms::ParseStatus::kOk) return Fail("malformed reply");
      if (resp.opaque != expect) return Fail("reply out of order");
      if (expect == first) {
        if (reads.size() == 1) {
          if (resp.status != ms::RespStatus::kOk &&
              resp.status != ms::RespStatus::kNotFound) {
            return Fail("GET answered an error");
          }
          read_body_.assign(resp.body);
          entries_.push_back(
              {resp.status == ms::RespStatus::kOk, read_body_});
        } else {
          if (resp.status != ms::RespStatus::kOk) {
            return Fail("MGET answered an error");
          }
          read_body_.assign(resp.body);
          if (!ms::DecodeMgetBody(read_body_, &entries_) ||
              entries_.size() != reads.size()) {
            return Fail("undecodable MGET body");
          }
        }
      } else if (resp.status != ms::RespStatus::kOk) {
        return Fail("SET answered an error");
      }
      off += o.consumed;
      ++expect;
    }
    recvbuf_.erase(0, off);
    decode_ns_ += NowNs() - d0;
  }
  return true;
}

}  // namespace perfbench
