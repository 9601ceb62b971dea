#include "src/server/connection.h"

namespace mccuckoo {
namespace server {

bool Connection::OnData(const char* data, size_t n) {
  if (closing_) return false;
  in_.append(data, n);
  if (mode_ == Mode::kUnknown && !in_.empty()) {
    const uint8_t first = static_cast<uint8_t>(in_[0]);
    if (first == kReqMagic) {
      mode_ = Mode::kBinary;
    } else if (first == 'G' || first == 'H') {
      mode_ = Mode::kHttp;
    } else {
      if (metrics_ != nullptr) metrics_->protocol_errors.Inc();
      AppendResponse(&out_, RespStatus::kBadRequest, 0, "not mccuckoo protocol");
      closing_ = true;
      return false;
    }
  }
  const bool keep =
      mode_ == Mode::kBinary ? ProcessBinary() : ProcessHttp();
  if (!keep) closing_ = true;
  return keep;
}

bool Connection::ProcessBinary() {
  // Parse every complete frame into one batch, then hand the batch to the
  // sink in a single call so consecutive GETs can ride one FindBatch. The
  // Request views alias in_, which therefore must not be touched until
  // Process returns.
  batch_.clear();
  size_t off = 0;
  bool error = false;
  ParseOutcome bad{};
  uint32_t bad_opaque = 0;
  while (off < in_.size()) {
    Request req;
    const ParseOutcome r =
        ParseRequest(std::string_view(in_).substr(off), &req);
    if (r.status == ParseStatus::kNeedMore) break;
    if (r.status == ParseStatus::kError) {
      error = true;
      bad = r;
      bad_opaque = req.opaque;
      break;
    }
    batch_.push_back(std::move(req));
    off += r.consumed;
  }
  if (!batch_.empty() && sink_ != nullptr) {
    sink_->Process(std::span<const Request>(batch_.data(), batch_.size()),
                   &out_);
  }
  batch_.clear();
  in_.erase(0, off);
  if (error) {
    // Answer the malformed frame (opaque-correlated when a full header was
    // readable) and drop the connection: resynchronizing a binary stream
    // after a framing error is guesswork.
    if (metrics_ != nullptr) metrics_->protocol_errors.Inc();
    AppendResponse(&out_, bad.error, bad_opaque, bad.error_detail);
    in_.clear();
    return false;
  }
  return true;
}

bool Connection::ProcessHttp() {
  // One-shot exchange: wait for a complete request line, route it against
  // the stats handlers, close after the response drains — the same
  // semantics as the standalone StatsServer, on the cache port.
  if (in_.find('\n') == std::string::npos) {
    // A request line longer than any sane scrape is an attack or a bug.
    return in_.size() < 16 * 1024;
  }
  if (metrics_ != nullptr) metrics_->http_requests.Inc();
  out_ += RespondStatsHttp(in_, http_,
                           "mccuckoo cache server\n"
                           "routes: /metrics /json /trace\n");
  in_.clear();
  return false;
}

}  // namespace server
}  // namespace mccuckoo
