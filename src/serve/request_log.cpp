#include "serve/request_log.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <ostream>
#include <string>

#include "common/json.h"

namespace wlc::serve {

namespace {

int open_append(const std::string& path) {
  return ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
}

}  // namespace

RequestLog::RequestLog(RequestLogConfig cfg, std::ostream* diag)
    : cfg_(std::move(cfg)), diag_(diag) {
  if (cfg_.path.empty()) return;
  fd_ = open_append(cfg_.path);
  if (fd_ < 0) {
    report("cannot open request log '" + cfg_.path + "': " + std::strerror(errno));
    return;
  }
  struct stat st{};
  if (::fstat(fd_, &st) == 0) size_ = st.st_size;
}

RequestLog::~RequestLog() {
  if (fd_ >= 0) ::close(fd_);
}

void RequestLog::report(const std::string& what) {
  if (diag_ != nullptr) *diag_ << "wlc_serve: " << what << "\n";
}

void RequestLog::rotate() {
  ::close(fd_);
  fd_ = -1;
  const std::string rotated = cfg_.path + ".1";
  if (::rename(cfg_.path.c_str(), rotated.c_str()) != 0) {
    report("request log rotation failed: " + std::string(std::strerror(errno)));
    // Keep appending to the oversized file rather than losing records.
  }
  fd_ = open_append(cfg_.path);
  if (fd_ < 0) {
    report("cannot reopen request log after rotation: " + std::string(std::strerror(errno)));
    return;
  }
  struct stat st{};
  size_ = ::fstat(fd_, &st) == 0 ? st.st_size : 0;
}

void RequestLog::append(const Record& rec) {
  if (fd_ < 0) return;
  if (cfg_.slow_us > 0 && rec.latency_us < cfg_.slow_us) return;

  std::string line;
  line.reserve(160 + rec.session.size() + rec.tenant.size() + rec.outcome.size());
  line += "{\"ts_us\":";
  line += std::to_string(rec.ts_us);
  line += ",\"session\":\"";
  line += common::json_escape(rec.session);
  line += "\",\"tenant\":\"";
  line += common::json_escape(rec.tenant);
  line += "\",\"opcode\":\"";
  line += rec.opcode;
  line += "\",\"bytes\":";
  line += std::to_string(rec.bytes);
  line += ",\"latency_us\":";
  line += std::to_string(rec.latency_us);
  line += ",\"outcome\":\"";
  line += common::json_escape(rec.outcome);
  line += "\",\"degraded\":";
  line += rec.degraded ? "true" : "false";
  line += "}\n";

  if (cfg_.max_bytes > 0 && size_ + static_cast<std::int64_t>(line.size()) > cfg_.max_bytes &&
      size_ > 0)
    rotate();
  if (fd_ < 0) return;

  // One write(2) per record: with O_APPEND the record lands whole or not at
  // all across kill -9 — a partial write can only come from the filesystem
  // itself (ENOSPC), in which case the torn tail is the least of it.
  ssize_t wrote;
  do {
    wrote = ::write(fd_, line.data(), line.size());
  } while (wrote < 0 && errno == EINTR);
  if (wrote < 0) {
    report("request log write failed: " + std::string(std::strerror(errno)));
    return;
  }
  size_ += wrote;
}

}  // namespace wlc::serve
