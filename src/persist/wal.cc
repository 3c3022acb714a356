#include "persist/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/logging.h"
#include "common/macros.h"
#include "persist/codec.h"

namespace piye {
namespace persist {

namespace {

constexpr char kMagic[] = "PIYEWAL1";
constexpr size_t kMagicLen = 8;
constexpr size_t kFrameHeader = 10;  // u32 crc + u16 type + u32 len
/// A frame longer than this is treated as corruption, not data — it bounds
/// the allocation a flipped length field can request.
constexpr uint32_t kMaxPayload = 1u << 30;

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

Status WriteAll(int fd, const char* data, size_t len) {
  size_t off = 0;
  while (off < len) {
    ssize_t n = ::write(fd, data + off, len - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(Errno("wal write"));
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// Encodes one frame: crc over (type | len | payload), then the fields.
std::string EncodeFrame(uint16_t type, std::string_view payload) {
  Encoder body;
  body.PutU16(type);
  body.PutU32(static_cast<uint32_t>(payload.size()));
  std::string frame = body.Take();
  frame.append(payload.data(), payload.size());
  Encoder head;
  head.PutU32(Crc32(frame));
  return head.Take() + frame;
}

}  // namespace

const char* KillPointName(KillPoint kp) {
  switch (kp) {
    case KillPoint::kNone: return "none";
    case KillPoint::kBeforeAppend: return "crash-before-append";
    case KillPoint::kMidRecord: return "crash-mid-record";
    case KillPoint::kBeforeSync: return "crash-before-flush";
    case KillPoint::kTornFinalBlock: return "torn-final-block";
  }
  return "unknown";
}

Result<WalReadResult> ReadWal(const std::string& path) {
  WalReadResult out;
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return out;  // a fresh log is a valid empty log
    return Status::Internal(Errno("wal open '" + path + "'"));
  }
  std::string bytes;
  char buf[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Status::Internal(Errno("wal read '" + path + "'"));
    }
    if (n == 0) break;
    bytes.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);

  if (bytes.size() < kMagicLen || std::memcmp(bytes.data(), kMagic, kMagicLen) != 0) {
    out.clean = bytes.empty();
    out.valid_bytes = 0;
    if (!out.clean) out.tail_detail = "missing or corrupt WAL magic header";
    return out;
  }
  size_t pos = kMagicLen;
  out.valid_bytes = kMagicLen;
  while (pos < bytes.size()) {
    if (bytes.size() - pos < kFrameHeader) {
      out.clean = false;
      out.tail_detail = "torn frame header (" + std::to_string(bytes.size() - pos) +
                        " trailing bytes)";
      break;
    }
    Decoder head(std::string_view(bytes).substr(pos, kFrameHeader));
    const uint32_t crc = *head.GetU32();
    const uint16_t type = *head.GetU16();
    const uint32_t len = *head.GetU32();
    if (len > kMaxPayload || bytes.size() - pos - kFrameHeader < len) {
      out.clean = false;
      out.tail_detail = "torn or corrupt frame at offset " + std::to_string(pos) +
                        " (declared payload " + std::to_string(len) + " bytes)";
      break;
    }
    const std::string_view body =
        std::string_view(bytes).substr(pos + 4, kFrameHeader - 4 + len);
    if (Crc32(body) != crc) {
      out.clean = false;
      out.tail_detail = "checksum mismatch at offset " + std::to_string(pos);
      break;
    }
    WalRecord rec;
    rec.type = type;
    rec.payload.assign(body.substr(kFrameHeader - 4));
    out.records.push_back(std::move(rec));
    pos += kFrameHeader + len;
    out.valid_bytes = pos;
  }
  return out;
}

WalWriter::WalWriter(int fd, uint64_t synced) : fd_(fd), synced_(synced) {}

WalWriter::~WalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<WalWriter>> WalWriter::Open(const std::string& path) {
  PIYE_ASSIGN_OR_RETURN(WalReadResult existing, ReadWal(path));
  if (!existing.clean) {
    Logger::Warn("persist", "wal '" + path + "': discarding invalid tail (" +
                                existing.tail_detail + "); recovering the " +
                                std::to_string(existing.records.size()) +
                                "-record valid prefix");
  }
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::Internal(Errno("wal open '" + path + "'"));
  }
  uint64_t synced = existing.valid_bytes;
  if (synced < kMagicLen) {
    // New file, or one whose header itself was corrupt: start it over.
    if (::ftruncate(fd, 0) != 0 ||
        !WriteAll(fd, kMagic, kMagicLen).ok() || ::fsync(fd) != 0) {
      ::close(fd);
      return Status::Internal(Errno("wal init '" + path + "'"));
    }
    synced = kMagicLen;
  } else if (::ftruncate(fd, static_cast<off_t>(synced)) != 0 ||
             ::lseek(fd, 0, SEEK_END) < 0) {
    ::close(fd);
    return Status::Internal(Errno("wal truncate '" + path + "'"));
  }
  return std::unique_ptr<WalWriter>(new WalWriter(fd, synced));
}

Status WalWriter::Die(const std::string& what) {
  dead_ = true;
  return Status::Unavailable("wal writer crashed (injected " + what + ")");
}

Status WalWriter::Append(uint16_t type, std::string_view payload) {
  MutexLock lock(mu_);
  if (dead_) return Status::Unavailable("wal writer is dead (crashed earlier)");
  bool fire_now = false;
  if (kill_armed_) {
    if (kill_after_appends_ == 0) {
      if (kill_point_ == KillPoint::kBeforeAppend ||
          kill_point_ == KillPoint::kMidRecord) {
        fire_now = true;
      } else {
        kill_pending_sync_ = true;  // fires at the covering Sync
      }
      kill_armed_ = false;
    } else {
      --kill_after_appends_;
    }
  }
  if (fire_now && kill_point_ == KillPoint::kBeforeAppend) {
    return Die(KillPointName(kill_point_));
  }
  std::string frame = EncodeFrame(type, payload);
  if (fire_now) {  // kMidRecord: force a durable torn prefix, then die
    pending_.append(frame.data(), frame.size() / 2);
    // The injected crash is the point: the write/fsync outcome is what a
    // dying process would have left behind, success or not.
    (void)WriteAll(fd_, pending_.data(), pending_.size());
    (void)::fsync(fd_);
    synced_ += pending_.size();
    pending_.clear();
    return Die(KillPointName(kill_point_));
  }
  pending_ += frame;
  return Status::OK();
}

Status WalWriter::Sync() {
  MutexLock lock(mu_);
  if (dead_) return Status::Unavailable("wal writer is dead (crashed earlier)");
  if (kill_pending_sync_) {
    kill_pending_sync_ = false;
    if (kill_point_ == KillPoint::kBeforeSync) {
      // The process dies with the buffer still in user space: the records
      // appended since the last Sync never reach the file.
      pending_.clear();
      return Die(KillPointName(kill_point_));
    }
    // kTornFinalBlock: everything is written and synced, then the tail of
    // the final block is lost.
    (void)WriteAll(fd_, pending_.data(), pending_.size());
    (void)::fsync(fd_);
    uint64_t len = synced_ + pending_.size();
    const uint64_t torn = len > 3 ? len - 3 : 0;
    // Injected torn block: best-effort truncation mimics the disk losing
    // the final sectors of a synced write.
    (void)::ftruncate(fd_, static_cast<off_t>(torn));
    (void)::fsync(fd_);
    synced_ = torn;
    pending_.clear();
    return Die(KillPointName(kill_point_));
  }
  if (pending_.empty()) return Status::OK();
  PIYE_RETURN_NOT_OK(WriteAll(fd_, pending_.data(), pending_.size()));
  // fdatasync: the record bytes and the file length are what recovery
  // needs; the inode's timestamps are not worth a second journal commit.
  if (::fdatasync(fd_) != 0) {
    return Status::Internal(Errno("wal fdatasync"));
  }
  synced_ += pending_.size();
  pending_.clear();
  return Status::OK();
}

uint64_t WalWriter::synced_bytes() const {
  MutexLock lock(mu_);
  return synced_;
}

void WalWriter::ArmKillPoint(KillPoint kp, uint64_t after_appends) {
  MutexLock lock(mu_);
  kill_point_ = kp;
  kill_after_appends_ = after_appends;
  kill_armed_ = kp != KillPoint::kNone;
  kill_pending_sync_ = false;
}

bool WalWriter::crashed() const {
  MutexLock lock(mu_);
  return dead_;
}

}  // namespace persist
}  // namespace piye
