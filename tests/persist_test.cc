// Durability-layer suite: the persist/ codec, the checksummed torn-tolerant
// WAL with its crash-injection kill-points, the snapshot+WAL generation
// store, and a fuzz-style robustness pass proving a mangled log is always
// recovered fail-closed — a valid prefix plus a clean writable tail, never a
// crash, never garbage records.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "mediator/persistence.h"
#include "persist/codec.h"
#include "persist/state_log.h"
#include "persist/wal.h"

namespace piye {
namespace {

namespace fs = std::filesystem;
using persist::Crc32;
using persist::Decoder;
using persist::Encoder;
using persist::KillPoint;
using persist::ReadWal;
using persist::StateLog;
using persist::WalReadResult;
using persist::WalRecord;
using persist::WalWriter;

std::string TestPath(const std::string& name) {
  const fs::path p = fs::path(testing::TempDir()) / ("piye_" + name);
  fs::remove_all(p);
  return p.string();
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// --- Codec ---

TEST(CodecTest, Crc32MatchesReferenceVector) {
  // The canonical CRC-32 (IEEE, reflected) check value.
  const std::string check = "123456789";
  EXPECT_EQ(Crc32(check), 0xCBF43926u);
  EXPECT_EQ(Crc32(std::string_view()), 0u);
}

TEST(CodecTest, RoundTripsEveryFieldType) {
  Encoder enc;
  enc.PutU8(7);
  enc.PutU16(65535);
  enc.PutU32(123456789);
  enc.PutU64(0xDEADBEEFCAFEBABEull);
  enc.PutDouble(-2.75);
  const std::string binary("hello \0 world", 13);  // embedded NUL survives
  enc.PutString(binary);
  enc.PutStringVector({"a", "", "ccc"});
  enc.PutU64Vector({1, 2, 3});
  const std::string bytes = enc.Take();

  Decoder dec(bytes);
  EXPECT_EQ(*dec.GetU8(), 7);
  EXPECT_EQ(*dec.GetU16(), 65535);
  EXPECT_EQ(*dec.GetU32(), 123456789u);
  EXPECT_EQ(*dec.GetU64(), 0xDEADBEEFCAFEBABEull);
  EXPECT_DOUBLE_EQ(*dec.GetDouble(), -2.75);
  EXPECT_EQ(*dec.GetString(), binary);
  EXPECT_EQ(*dec.GetStringVector(), (std::vector<std::string>{"a", "", "ccc"}));
  EXPECT_EQ(*dec.GetU64Vector(), (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_TRUE(dec.exhausted());
}

TEST(CodecTest, TruncatedInputFailsInsteadOfReadingGarbage) {
  Encoder enc;
  enc.PutU64(42);
  enc.PutString("payload");
  const std::string bytes = enc.Take();
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    Decoder dec(std::string_view(bytes).substr(0, cut));
    auto v = dec.GetU64();
    if (!v.ok()) continue;  // truncated inside the u64
    EXPECT_EQ(*v, 42u);
    auto s = dec.GetString();
    EXPECT_FALSE(s.ok()) << "cut=" << cut;
  }
}

TEST(CodecTest, CorruptVectorCountCannotForceHugeAllocation) {
  // A length prefix far beyond the remaining bytes must be a decode error,
  // not a multi-gigabyte allocation.
  Encoder enc;
  enc.PutU64(1ull << 40);  // claims 2^40 strings follow
  const std::string bytes = enc.Take();
  Decoder dec_s(bytes);
  EXPECT_FALSE(dec_s.GetStringVector().ok());

  Encoder enc2;
  enc2.PutU64(1ull << 40);
  const std::string bytes2 = enc2.Take();
  Decoder dec_u(bytes2);
  EXPECT_FALSE(dec_u.GetU64Vector().ok());
}

// --- WAL ---

TEST(WalTest, AppendSyncReadRoundTrip) {
  const std::string path = TestPath("wal_roundtrip");
  {
    auto writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    EXPECT_TRUE((*writer)->Append(1, "alpha").ok());
    EXPECT_TRUE((*writer)->Append(2, "").ok());
    EXPECT_TRUE((*writer)->Append(3, std::string(10000, 'x')).ok());
    EXPECT_TRUE((*writer)->Sync().ok());
  }
  auto read = ReadWal(path);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->clean);
  ASSERT_EQ(read->records.size(), 3u);
  EXPECT_EQ(read->records[0].type, 1);
  EXPECT_EQ(read->records[0].payload, "alpha");
  EXPECT_EQ(read->records[1].payload, "");
  EXPECT_EQ(read->records[2].payload.size(), 10000u);
}

TEST(WalTest, UnsyncedAppendsAreNotOnDisk) {
  const std::string path = TestPath("wal_unsynced");
  auto writer = WalWriter::Open(path);
  ASSERT_TRUE(writer.ok());
  EXPECT_TRUE((*writer)->Append(1, "buffered-only").ok());
  auto read = ReadWal(path);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->records.empty());
  EXPECT_TRUE((*writer)->Sync().ok());
  read = ReadWal(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->records.size(), 1u);
}

TEST(WalTest, ReopenAppendsAfterExistingRecords) {
  const std::string path = TestPath("wal_reopen");
  {
    auto w = WalWriter::Open(path);
    ASSERT_TRUE(w.ok());
    EXPECT_TRUE((*w)->Append(1, "first").ok());
    EXPECT_TRUE((*w)->Sync().ok());
  }
  {
    auto w = WalWriter::Open(path);
    ASSERT_TRUE(w.ok());
    EXPECT_TRUE((*w)->Append(2, "second").ok());
    EXPECT_TRUE((*w)->Sync().ok());
  }
  auto read = ReadWal(path);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->records.size(), 2u);
  EXPECT_EQ(read->records[1].payload, "second");
}

TEST(WalTest, TornTailIsDiscardedAndTruncatedOnReopen) {
  const std::string path = TestPath("wal_torn");
  {
    auto w = WalWriter::Open(path);
    ASSERT_TRUE(w.ok());
    EXPECT_TRUE((*w)->Append(1, "kept").ok());
    EXPECT_TRUE((*w)->Sync().ok());
  }
  // A real torn write: raw garbage after the last intact frame.
  std::string bytes = ReadFileBytes(path);
  const size_t intact = bytes.size();
  WriteFileBytes(path, bytes + "\x07garbage-tail");

  auto read = ReadWal(path);
  ASSERT_TRUE(read.ok());
  EXPECT_FALSE(read->clean);
  ASSERT_EQ(read->records.size(), 1u);
  EXPECT_EQ(read->valid_bytes, intact);

  // Reopening truncates the garbage so new appends follow valid frames.
  {
    auto w = WalWriter::Open(path);
    ASSERT_TRUE(w.ok());
    EXPECT_TRUE((*w)->Append(2, "after-heal").ok());
    EXPECT_TRUE((*w)->Sync().ok());
  }
  read = ReadWal(path);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->clean);
  ASSERT_EQ(read->records.size(), 2u);
  EXPECT_EQ(read->records[1].payload, "after-heal");
}

TEST(WalTest, CorruptHeaderStartsTheLogOver) {
  const std::string path = TestPath("wal_badmagic");
  WriteFileBytes(path, "NOTAWAL!junkjunkjunk");
  auto read = ReadWal(path);
  ASSERT_TRUE(read.ok());
  EXPECT_FALSE(read->clean);
  EXPECT_TRUE(read->records.empty());
  auto w = WalWriter::Open(path);
  ASSERT_TRUE(w.ok());
  EXPECT_TRUE((*w)->Append(1, "fresh").ok());
  EXPECT_TRUE((*w)->Sync().ok());
  read = ReadWal(path);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->clean);
  ASSERT_EQ(read->records.size(), 1u);
}

// --- Kill-points: each leaves the on-disk bytes exactly as the simulated
// crash would, and the writer is dead afterwards. ---

struct KillCase {
  KillPoint kp;
  size_t surviving_records;  // records readable after the crash
  bool clean_after;          // whether the file ends at a frame boundary
};

class WalKillPointTest : public testing::TestWithParam<KillCase> {};

TEST_P(WalKillPointTest, CrashLeavesOnlyDurablePrefix) {
  const KillCase kc = GetParam();
  const std::string path =
      TestPath(std::string("wal_kill_") + persist::KillPointName(kc.kp));
  auto writer = WalWriter::Open(path);
  ASSERT_TRUE(writer.ok());
  WalWriter* w = writer->get();
  ASSERT_TRUE(w->Append(1, "durable-one").ok());
  ASSERT_TRUE(w->Sync().ok());

  w->ArmKillPoint(kc.kp);
  Status append = w->Append(2, "doomed-record");
  Status sync = append.ok() ? w->Sync() : append;
  EXPECT_FALSE(sync.ok()) << "the crash must surface as a failure";
  EXPECT_TRUE(w->crashed());

  // The writer is dead: the "process" cannot keep going.
  EXPECT_FALSE(w->Append(3, "post-mortem").ok());
  EXPECT_FALSE(w->Sync().ok());

  auto read = ReadWal(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->records.size(), kc.surviving_records);
  EXPECT_EQ(read->clean, kc.clean_after);
  EXPECT_EQ(read->records[0].payload, "durable-one");
}

INSTANTIATE_TEST_SUITE_P(
    AllKillPoints, WalKillPointTest,
    testing::Values(
        // Nothing of the doomed record reaches the disk.
        KillCase{KillPoint::kBeforeAppend, 1, true},
        // Half a frame reaches the disk: a torn, discardable tail.
        KillCase{KillPoint::kMidRecord, 1, false},
        // The buffer dies with the process: file ends at the last Sync.
        KillCase{KillPoint::kBeforeSync, 1, true},
        // Fully written and fsynced, then the final block tears.
        KillCase{KillPoint::kTornFinalBlock, 1, false}));

// --- StateLog generations ---

TEST(StateLogTest, FreshDirectoryOpensEmptyAndClean) {
  const std::string dir = TestPath("statelog_fresh");
  StateLog::RecoveredState recovered;
  auto log = StateLog::Open(dir, &recovered);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  EXPECT_TRUE(recovered.snapshot.empty());
  EXPECT_TRUE(recovered.records.empty());
  EXPECT_TRUE(recovered.wal_clean);
  EXPECT_EQ(recovered.generation, 0u);
}

TEST(StateLogTest, RecoversAppendedRecordsAcrossReopen) {
  const std::string dir = TestPath("statelog_reopen");
  {
    StateLog::RecoveredState recovered;
    auto log = StateLog::Open(dir, &recovered);
    ASSERT_TRUE(log.ok());
    EXPECT_TRUE((*log)->Append(5, "one").ok());
    EXPECT_TRUE((*log)->Append(6, "two").ok());
    EXPECT_TRUE((*log)->Sync().ok());
  }
  StateLog::RecoveredState recovered;
  auto log = StateLog::Open(dir, &recovered);
  ASSERT_TRUE(log.ok());
  EXPECT_TRUE(recovered.snapshot.empty());
  ASSERT_EQ(recovered.records.size(), 2u);
  EXPECT_EQ(recovered.records[0].payload, "one");
  EXPECT_EQ(recovered.records[1].payload, "two");
}

TEST(StateLogTest, RotateFoldsWalIntoSnapshotAndCollectsOldGeneration) {
  const std::string dir = TestPath("statelog_rotate");
  {
    StateLog::RecoveredState recovered;
    auto log = StateLog::Open(dir, &recovered);
    ASSERT_TRUE(log.ok());
    EXPECT_TRUE((*log)->Append(1, "pre-snapshot").ok());
    EXPECT_TRUE((*log)->Sync().ok());
    EXPECT_TRUE((*log)->Rotate("SNAPSHOT-BLOB").ok());
    EXPECT_EQ((*log)->generation(), 1u);
    EXPECT_TRUE((*log)->Append(2, "post-snapshot").ok());
    EXPECT_TRUE((*log)->Sync().ok());
  }
  // Generation 0's WAL is gone; only generation 1 remains.
  EXPECT_FALSE(fs::exists(fs::path(dir) / "wal-0"));
  EXPECT_TRUE(fs::exists(fs::path(dir) / "snapshot-1"));

  StateLog::RecoveredState recovered;
  auto log = StateLog::Open(dir, &recovered);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(recovered.generation, 1u);
  EXPECT_EQ(recovered.snapshot, "SNAPSHOT-BLOB");
  ASSERT_EQ(recovered.records.size(), 1u);
  EXPECT_EQ(recovered.records[0].payload, "post-snapshot");
}

TEST(StateLogTest, CorruptSnapshotFallsBackInsteadOfCrashing) {
  const std::string dir = TestPath("statelog_badsnap");
  {
    StateLog::RecoveredState recovered;
    auto log = StateLog::Open(dir, &recovered);
    ASSERT_TRUE(log.ok());
    EXPECT_TRUE((*log)->Rotate("GOOD-BLOB").ok());
    EXPECT_TRUE((*log)->Append(9, "live").ok());
    EXPECT_TRUE((*log)->Sync().ok());
  }
  // Rot a byte in the snapshot body: its CRC no longer matches.
  const std::string snap_path = (fs::path(dir) / "snapshot-1").string();
  std::string bytes = ReadFileBytes(snap_path);
  bytes[bytes.size() - 3] = static_cast<char>(bytes[bytes.size() - 3] ^ 0x40);
  WriteFileBytes(snap_path, bytes);

  StateLog::RecoveredState recovered;
  auto log = StateLog::Open(dir, &recovered);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  // Generation 1 is unusable; recovery falls back to an older (here: empty)
  // generation rather than trusting a corrupt snapshot or crashing.
  EXPECT_NE(recovered.snapshot, "GOOD-BLOB");
  EXPECT_TRUE((*log)->Append(1, "still-writable").ok());
  EXPECT_TRUE((*log)->Sync().ok());
}

// --- Fuzz: random truncation and bit-flips anywhere in the log must never
// crash the reader, never fabricate a record, and always leave a healable
// file (satellite: WAL-reader robustness). ---

TEST(WalFuzzTest, MangledLogsAlwaysRecoverToAValidPrefix) {
  const std::string path = TestPath("wal_fuzz_master");
  std::vector<std::string> payloads;
  {
    auto w = WalWriter::Open(path);
    ASSERT_TRUE(w.ok());
    Rng payload_rng(0xF00D);
    for (int i = 0; i < 40; ++i) {
      std::string payload(8 + payload_rng.NextBounded(120), '\0');
      for (auto& c : payload) {
        c = static_cast<char>('a' + payload_rng.NextBounded(26));
      }
      payloads.push_back(payload);
      ASSERT_TRUE((*w)->Append(static_cast<uint16_t>(i % 7 + 1), payload).ok());
    }
    ASSERT_TRUE((*w)->Sync().ok());
  }
  const std::string master = ReadFileBytes(path);

  Rng rng(20260806);
  for (int round = 0; round < 200; ++round) {
    std::string mangled = master;
    const int mode = static_cast<int>(rng.NextBounded(3));
    if (mode == 0) {  // truncate at a random offset
      mangled.resize(rng.NextBounded(mangled.size() + 1));
    } else if (mode == 1) {  // flip a random bit
      const size_t at = rng.NextBounded(mangled.size());
      mangled[at] = static_cast<char>(mangled[at] ^ (1u << rng.NextBounded(8)));
    } else {  // stomp a random run of bytes
      const size_t at = rng.NextBounded(mangled.size());
      const size_t len = std::min(mangled.size() - at, 1 + rng.NextBounded(64));
      for (size_t i = 0; i < len; ++i) {
        mangled[at + i] = static_cast<char>(rng.NextBounded(256));
      }
    }
    const std::string mangled_path = TestPath("wal_fuzz_case");
    WriteFileBytes(mangled_path, mangled);

    auto read = ReadWal(mangled_path);
    ASSERT_TRUE(read.ok()) << "round " << round;
    // Whatever survived must be an exact prefix of what was written: a
    // damaged log may lose records, never invent or alter them.
    ASSERT_LE(read->records.size(), payloads.size()) << "round " << round;
    for (size_t i = 0; i < read->records.size(); ++i) {
      ASSERT_EQ(read->records[i].payload, payloads[i])
          << "round " << round << " record " << i;
    }
    ASSERT_LE(read->valid_bytes, mangled.size()) << "round " << round;

    // And the file must be healable: reopening truncates the damage and
    // appending works.
    auto w = WalWriter::Open(mangled_path);
    ASSERT_TRUE(w.ok()) << "round " << round << ": " << w.status().ToString();
    ASSERT_TRUE((*w)->Append(99, "healed").ok());
    ASSERT_TRUE((*w)->Sync().ok());
    auto reread = ReadWal(mangled_path);
    ASSERT_TRUE(reread.ok());
    ASSERT_TRUE(reread->clean) << "round " << round;
    ASSERT_EQ(reread->records.size(), read->records.size() + 1);
    ASSERT_EQ(reread->records.back().payload, "healed");
  }
}

// --- Fuzz: the mediator's table-carrying records. A CRC-colliding payload
// must decode or fail cleanly — truncations always fail — and never crash
// or allocate beyond what the payload could hold. ---

relational::Table FuzzTable() {
  relational::Table t(relational::Schema{{"id", relational::ColumnType::kInt64},
                                         {"first visit", relational::ColumnType::kString},
                                         {"rate%", relational::ColumnType::kDouble},
                                         {"flag", relational::ColumnType::kBool}});
  using relational::Value;
  for (int i = 0; i < 11; ++i) {
    t.AppendRowUnchecked({i % 4 == 0 ? Value::Null() : Value::Int(i),
                          Value::Str(std::string(static_cast<size_t>(i), 'v')),
                          Value::Real(i / 3.0), Value::Boolean(i % 2 == 0)});
  }
  return t;
}

TEST(RecordFuzzTest, TablePayloadsFailCleanlyUnderTruncationAndBitFlips) {
  const relational::Table table = FuzzTable();
  mediator::DurableState state;
  state.total_history = 1;
  state.cumulative_loss["analyst"] = 0.5;
  state.warehouse.push_back(
      {"fingerprint", 3, std::make_shared<const relational::Table>(table)});
  const std::string put = mediator::EncodeWarehousePutRecord("fingerprint", 3, table);
  const std::string snapshot = mediator::EncodeSnapshot(state);
  auto put_status = [](const std::string& bytes) {
    return mediator::DecodeWarehousePutRecord(bytes).status();
  };
  auto snapshot_status = [](const std::string& bytes) {
    return mediator::DecodeSnapshot(bytes).status();
  };
  struct Case {
    const char* name;
    const std::string* bytes;
    std::function<Status(const std::string&)> decode;
  };
  for (const Case& c : {Case{"put", &put, put_status},
                        Case{"snapshot", &snapshot, snapshot_status}}) {
    SCOPED_TRACE(c.name);
    ASSERT_TRUE(c.decode(*c.bytes).ok());
    auto expect_clean = [](const Status& status) {
      EXPECT_TRUE(status.ok() || status.IsParseError() || status.IsInvalidArgument())
          << status.ToString();
    };
    for (size_t cut = 0; cut < c.bytes->size(); ++cut) {
      const Status status = c.decode(c.bytes->substr(0, cut));
      EXPECT_FALSE(status.ok()) << "cut " << cut;
      expect_clean(status);
    }
    Rng rng(0xC0DEC);
    for (int round = 0; round < 2000; ++round) {
      std::string mangled = *c.bytes;
      const size_t at = rng.NextBounded(mangled.size());
      if (round % 2 == 0) {
        mangled[at] = static_cast<char>(mangled[at] ^ (1u << rng.NextBounded(8)));
      } else {
        const size_t len = std::min(mangled.size() - at, 1 + rng.NextBounded(16));
        for (size_t i = 0; i < len; ++i) {
          mangled[at + i] = static_cast<char>(rng.NextBounded(256));
        }
      }
      expect_clean(c.decode(mangled));
    }
  }
}

}  // namespace
}  // namespace piye
