#ifndef PIYE_PERSIST_WAL_H_
#define PIYE_PERSIST_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/sync.h"

namespace piye {
namespace persist {

/// One typed record of a write-ahead log. `type` is opaque to the WAL layer;
/// the mediator's record vocabulary lives in mediator/persistence.h.
struct WalRecord {
  uint16_t type = 0;
  std::string payload;
};

/// Crash-injection kill-points for the durability layer. The harness arms a
/// kill-point on a WalWriter; when it fires, the writer simulates the
/// process dying at exactly that moment — the on-disk bytes are left in the
/// state a real crash would leave them in, and every subsequent operation on
/// the writer fails (the "process" is gone). Tests then re-open the
/// directory and prove recovery restores fail-closed state.
enum class KillPoint {
  kNone = 0,
  /// Crash before the record is even buffered: nothing reaches disk.
  kBeforeAppend,
  /// Torn write: only a prefix of the record's frame is forced to disk.
  kMidRecord,
  /// Crash after Append but before Sync: the buffered record is lost with
  /// the page cache (crash-before-flush).
  kBeforeSync,
  /// The record is written and synced, then the final disk block tears:
  /// the file loses its last few bytes.
  kTornFinalBlock,
};

const char* KillPointName(KillPoint kp);

/// Append-only checksummed record log.
///
/// File layout: an 8-byte magic header, then frames of
/// `u32 crc | u16 type | u32 payload_len | payload`, where the CRC-32 covers
/// type, length, and payload. Appends are buffered in memory until `Sync`,
/// which writes the buffer and fsyncs — callers that need fail-closed
/// durability (the mediation engine) Sync before releasing an answer.
///
/// Thread-safe; the engine serializes appends itself but the harness pokes
/// writers from test threads.
class WalWriter {
 public:
  /// Opens (creating if needed) the log for appending. An existing file with
  /// a torn or corrupt tail is truncated back to its last valid frame, so
  /// new records are never appended after garbage.
  static Result<std::unique_ptr<WalWriter>> Open(const std::string& path);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Buffers one record. Durable only after the next Sync.
  Status Append(uint16_t type, std::string_view payload);

  /// Flushes buffered records to the file and fsyncs it.
  Status Sync();

  /// Bytes known durable (synced) so far, including the header.
  uint64_t synced_bytes() const;

  /// Arms a kill-point that fires on the `after_appends`-th subsequent
  /// Append (0 ⇒ the very next one). kBeforeSync/kTornFinalBlock fire at
  /// the Sync that would cover that Append.
  void ArmKillPoint(KillPoint kp, uint64_t after_appends = 0);

  /// Test hook: true once an armed kill-point has fired; every operation
  /// fails from then on.
  bool crashed() const;

 private:
  WalWriter(int fd, uint64_t synced);

  /// Marks the writer crashed; caller holds mu_.
  Status Die(const std::string& what) REQUIRES(mu_);

  mutable Mutex mu_;
  int fd_;
  uint64_t synced_ GUARDED_BY(mu_);      ///< durable file length
  std::string pending_ GUARDED_BY(mu_);  ///< buffered, not yet synced frames
  bool dead_ GUARDED_BY(mu_) = false;

  KillPoint kill_point_ GUARDED_BY(mu_) = KillPoint::kNone;
  uint64_t kill_after_appends_ GUARDED_BY(mu_) = 0;
  bool kill_armed_ GUARDED_BY(mu_) = false;
  /// Armed sync-time kill reached its append.
  bool kill_pending_sync_ GUARDED_BY(mu_) = false;
};

/// Result of scanning a WAL file. The reader is torn-write tolerant by
/// design: it returns every frame up to the first truncated or
/// CRC-mismatching one and reports how the tail ended, instead of failing.
/// Only an unreadable file (I/O error) is a Status failure.
struct WalReadResult {
  std::vector<WalRecord> records;
  /// Length of the valid prefix (header + intact frames). A writer opening
  /// this file truncates it to this length.
  uint64_t valid_bytes = 0;
  /// False when trailing bytes after the valid prefix were discarded.
  bool clean = true;
  /// Human-readable account of a discarded tail, for the recovery log.
  std::string tail_detail;
};

/// Reads a WAL file. A missing file yields an empty, clean result (a fresh
/// directory is a valid empty log).
Result<WalReadResult> ReadWal(const std::string& path);

}  // namespace persist
}  // namespace piye

#endif  // PIYE_PERSIST_WAL_H_
