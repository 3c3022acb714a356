// Wire-protocol and single-process federation tests for src/net: frame
// codec round-trips and adversarial fuzz (truncation, bit flips, oversized
// lengths — mirroring the WAL fuzz in persist_test.cc), message schema
// round-trips, client/server exchanges over Unix and TCP sockets, engine
// integration through NetSource (byte-identity with the in-process path,
// skip-reason fidelity for unreachable servers, transport stats in
// Health()), deterministic transport fault injection, and client
// backpressure.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/scenario.h"
#include "mediator/engine.h"
#include "net/client.h"
#include "net/fault.h"
#include "net/frame.h"
#include "net/net_source.h"
#include "net/server.h"
#include "net/wire.h"
#include "relational/table_codec.h"
#include "source/remote_source.h"
#include "xml/parser.h"

namespace piye {
namespace {

using net::Frame;
using net::MessageType;

std::string TableBytes(const relational::Table& t) {
  return relational::EncodeTable(t);
}

/// A tagged answer with duplicate and non-identifier column names, NULLs
/// and every tag shape (rated, unrated, constrained budget).
source::FederatedSource::FragmentResult TaggedResult() {
  source::FederatedSource::FragmentResult result;
  relational::ColumnVector a(relational::ColumnType::kInt64);
  relational::ColumnVector b(relational::ColumnType::kInt64);
  relational::ColumnVector c(relational::ColumnType::kString);
  a.AppendInt(1);
  a.AppendNull();
  b.AppendInt(2);
  b.AppendInt(3);
  c.AppendStr("2001-02-03");
  c.AppendStr("");
  result.table.AddColumn({"id", relational::ColumnType::kInt64}, std::move(a));
  result.table.AddColumn({"id", relational::ColumnType::kInt64}, std::move(b));
  result.table.AddColumn({"first visit", relational::ColumnType::kString},
                         std::move(c));
  result.column_tags = {{"id", policy::DisclosureForm::kExact, 1.0},
                        {"id", std::nullopt, 1.0},
                        {"first visit", policy::DisclosureForm::kRange, 0.35}};
  result.losses.privacy_loss = 0.8;
  result.losses.information_loss = 0.25;
  result.loss_budget = 0.35;
  return result;
}

/// In-memory transport over a byte string — the harness for codec fuzzing
/// (no sockets, no threads, fully deterministic). Reads drain the buffer;
/// EOF thereafter.
class BufferTransport : public net::Transport {
 public:
  explicit BufferTransport(std::string bytes) : bytes_(std::move(bytes)) {}

  Result<size_t> Read(char* buf, size_t len, net::TimePoint) override {
    if (pos_ >= bytes_.size()) return static_cast<size_t>(0);  // clean EOF
    const size_t n = std::min(len, bytes_.size() - pos_);
    std::copy(bytes_.begin() + static_cast<ptrdiff_t>(pos_),
              bytes_.begin() + static_cast<ptrdiff_t>(pos_ + n), buf);
    pos_ += n;
    return n;
  }
  Status WriteAll(std::string_view data, net::TimePoint) override {
    written_.append(data);
    return Status::OK();
  }
  void Shutdown() override {}

  const std::string& written() const { return written_; }

 private:
  std::string bytes_;
  size_t pos_ = 0;
  std::string written_;
};

Result<Frame> DecodeBytes(std::string bytes,
                          size_t max_payload = net::kDefaultMaxPayload) {
  BufferTransport transport(std::move(bytes));
  return net::ReadFrame(transport, net::NoDeadline(),
                        std::chrono::milliseconds(1000), max_payload);
}

// ---------------------------------------------------------------------------
// Frame codec

TEST(FrameTest, RoundTripsAllMessageTypes) {
  for (uint8_t raw = 1; raw <= 8; ++raw) {
    Frame frame;
    frame.type = static_cast<MessageType>(raw);
    frame.request_id = 0x0123456789ABCDEFull + raw;
    frame.payload = std::string("payload-") + std::to_string(raw);
    auto decoded = DecodeBytes(net::EncodeFrame(frame));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->type, frame.type);
    EXPECT_EQ(decoded->request_id, frame.request_id);
    EXPECT_EQ(decoded->payload, frame.payload);
  }
}

TEST(FrameTest, RoundTripsEmptyAndLargePayloads) {
  for (size_t size : {size_t{0}, size_t{1}, size_t{64 * 1024 + 13}}) {
    Frame frame;
    frame.type = MessageType::kExecuteResponse;
    frame.request_id = 42;
    frame.payload.assign(size, 'x');
    auto decoded = DecodeBytes(net::EncodeFrame(frame));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->payload.size(), size);
  }
}

TEST(FrameTest, RejectsBadMagicVersionTypeAndFlags) {
  Frame frame;
  frame.type = MessageType::kHello;
  frame.payload = "hi";
  const std::string good = net::EncodeFrame(frame);

  // The header CRC is checked first, so a mutated field fails either on the
  // CRC or (for the CRC bytes themselves) on the mismatch — always a clean
  // kInvalidArgument, never a decode of garbage.
  auto mutate = [&](size_t offset, char value) {
    std::string bytes = good;
    bytes[offset] = value;
    auto status = DecodeBytes(bytes).status();
    EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  };
  mutate(0, 'X');   // magic
  mutate(4, 99);    // version
  mutate(5, 0);     // message type below range
  mutate(5, 100);   // message type above range
  mutate(6, 1);     // reserved flags
  mutate(21, 'X');  // header CRC itself
}

TEST(FrameTest, RejectsOversizedPayloadBeforeAllocating) {
  Frame frame;
  frame.type = MessageType::kExecuteRequest;
  frame.payload = std::string(2048, 'y');
  auto status = DecodeBytes(net::EncodeFrame(frame), /*max_payload=*/64).status();
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
}

TEST(FrameTest, TruncationIsUnavailableNeverAHang) {
  Frame frame;
  frame.type = MessageType::kSketchResponse;
  frame.request_id = 7;
  frame.payload = "truncate-me-truncate-me";
  const std::string good = net::EncodeFrame(frame);
  for (size_t keep = 0; keep < good.size(); ++keep) {
    auto result = DecodeBytes(good.substr(0, keep));
    ASSERT_FALSE(result.ok()) << "prefix of " << keep << " bytes decoded";
    EXPECT_TRUE(result.status().IsUnavailable() ||
                result.status().IsInvalidArgument())
        << result.status().ToString();
  }
}

TEST(FrameTest, FuzzBitFlipsNeverCrashAndNeverMisdecode) {
  Frame frame;
  frame.type = MessageType::kExecuteResponse;
  frame.request_id = 0xFEEDFACEull;
  frame.payload = "the quick brown fox jumps over the lazy dog";
  const std::string good = net::EncodeFrame(frame);

  Rng rng(20260808);
  size_t corruption_caught = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::string bytes = good;
    const size_t offset = static_cast<size_t>(rng.NextBounded(bytes.size()));
    const uint8_t mask = static_cast<uint8_t>(1u << rng.NextBounded(8));
    bytes[offset] =
        static_cast<char>(static_cast<uint8_t>(bytes[offset]) ^ mask);
    auto result = DecodeBytes(bytes);
    if (result.ok()) {
      // A CRC-32 collision from a single bit flip is impossible; a decode
      // that "succeeded" must be byte-identical to the original frame.
      EXPECT_EQ(result->payload, frame.payload);
      EXPECT_EQ(result->request_id, frame.request_id);
    } else {
      ++corruption_caught;
      EXPECT_TRUE(result.status().IsInvalidArgument() ||
                  result.status().IsUnavailable())
          << result.status().ToString();
    }
  }
  EXPECT_EQ(corruption_caught, 2000u);  // single bit flips are always caught
}

TEST(FrameTest, FuzzRandomGarbageIsRejectedCleanly) {
  Rng rng(99);
  for (int trial = 0; trial < 500; ++trial) {
    const size_t len = static_cast<size_t>(rng.NextBounded(128));
    std::string bytes(len, '\0');
    for (auto& c : bytes) c = static_cast<char>(rng.NextBounded(256));
    auto result = DecodeBytes(bytes);
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.status().IsInvalidArgument() ||
                result.status().IsUnavailable())
        << result.status().ToString();
  }
}

// ---------------------------------------------------------------------------
// Message schemas

TEST(WireTest, HelloAndHelloAckRoundTrip) {
  auto peer = net::DecodeHello(net::EncodeHello("piye-mediator"));
  ASSERT_TRUE(peer.ok());
  EXPECT_EQ(*peer, "piye-mediator");

  auto owners = net::DecodeHelloAck(
      net::EncodeHelloAck({"hospital", "pharmacy", "lab"}));
  ASSERT_TRUE(owners.ok());
  EXPECT_EQ(owners->size(), 3u);
  EXPECT_EQ((*owners)[1], "pharmacy");
}

TEST(WireTest, ExecuteRequestResponseRoundTrip) {
  net::ExecuteRequest req;
  req.owner = "hospital";
  req.fragment_xml = "<query requester=\"a\"/>";
  req.deadline_budget_ms = 750;
  auto decoded_req = net::DecodeExecuteRequest(net::EncodeExecuteRequest(req));
  ASSERT_TRUE(decoded_req.ok());
  EXPECT_EQ(decoded_req->owner, req.owner);
  EXPECT_EQ(decoded_req->fragment_xml, req.fragment_xml);
  EXPECT_EQ(decoded_req->deadline_budget_ms, 750u);

  // Status codes cross the wire verbatim — including the ones the engine
  // branches on (privacy refusals are never retried, kUnavailable trips
  // breakers).
  for (const Status& status :
       {Status::OK(), Status::PrivacyViolation("policy refused"),
        Status::Unavailable("flaky"), Status::DeadlineExceeded("late"),
        Status::Cancelled("gone")}) {
    net::ExecuteResponse resp;
    resp.status = status;
    if (status.ok()) resp.result = TaggedResult();
    auto decoded =
        net::DecodeExecuteResponse(net::EncodeExecuteResponse(resp));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->status.code(), status.code());
    EXPECT_EQ(decoded->status.message(), status.message());
    // Byte-equal tables: duplicate and non-identifier column names keep
    // their own values.
    EXPECT_EQ(TableBytes(decoded->result.table), TableBytes(resp.result.table));
    ASSERT_EQ(decoded->result.column_tags.size(), resp.result.column_tags.size());
    for (size_t c = 0; c < resp.result.column_tags.size(); ++c) {
      const source::ColumnTag& want = resp.result.column_tags[c];
      const source::ColumnTag& got = decoded->result.column_tags[c];
      EXPECT_EQ(got.name, want.name);
      EXPECT_EQ(got.form, want.form);
      EXPECT_EQ(got.budget, want.budget);
    }
    EXPECT_EQ(decoded->result.losses.privacy_loss, resp.result.losses.privacy_loss);
    EXPECT_EQ(decoded->result.losses.information_loss,
              resp.result.losses.information_loss);
    EXPECT_EQ(decoded->result.loss_budget, resp.result.loss_budget);
  }
}

TEST(WireTest, RejectsOldSchemaVersionAndMismatchedTags) {
  net::ExecuteResponse resp;
  resp.result = TaggedResult();
  std::string bytes = net::EncodeExecuteResponse(resp);
  // A version-1 payload (tagged XML text) is refused before it is read.
  bytes[0] = 1;
  EXPECT_TRUE(net::DecodeExecuteResponse(bytes).status().IsInvalidArgument());
  // Tags must match the table column for column.
  resp.result.column_tags.pop_back();
  EXPECT_TRUE(net::DecodeExecuteResponse(net::EncodeExecuteResponse(resp))
                  .status()
                  .IsInvalidArgument());
}

TEST(WireTest, SketchResponseRoundTripsBloomFilter) {
  relational::Table table(relational::Schema{
      {"name", relational::ColumnType::kString}});
  for (const char* v : {"ann", "bob", "cara", "dan"}) {
    table.AppendRowUnchecked({relational::Value::Str(v)});
  }
  auto sketch = match::ColumnSketch::Build({"org", "t", "name"}, table,
                                           "shared-key", /*name_public=*/true);
  ASSERT_TRUE(sketch.ok());
  ASSERT_TRUE(sketch->value_filter.has_value());

  net::SketchResponse resp;
  resp.status = Status::OK();
  resp.sketches.push_back(*sketch);
  auto decoded = net::DecodeSketchResponse(net::EncodeSketchResponse(resp));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->sketches.size(), 1u);
  const match::ColumnSketch& got = decoded->sketches[0];
  EXPECT_EQ(got.ref.ToString(), sketch->ref.ToString());
  EXPECT_EQ(got.type, sketch->type);
  EXPECT_DOUBLE_EQ(got.mean_length, sketch->mean_length);
  EXPECT_DOUBLE_EQ(got.distinct_ratio, sketch->distinct_ratio);
  ASSERT_TRUE(got.value_filter.has_value());
  EXPECT_EQ(got.value_filter->bits(), sketch->value_filter->bits());
  EXPECT_EQ(got.value_filter->num_hashes(), sketch->value_filter->num_hashes());
  // The round-tripped filter must score identically in schema matching.
  EXPECT_DOUBLE_EQ(got.InstanceSimilarity(*sketch), 1.0);
}

TEST(WireTest, ExecuteResponseFuzzFailsCleanly) {
  // Truncations and bit flips of a real answer: the decoder either accepts
  // the bytes or fails with a clean parse/argument error — never a crash,
  // a giant allocation or another status.
  net::ExecuteResponse resp;
  resp.result = TaggedResult();
  const std::string good = net::EncodeExecuteResponse(resp);
  auto decode = [](const std::string& bytes) {
    return net::DecodeExecuteResponse(bytes).status();
  };
  auto expect_clean = [](const Status& status) {
    EXPECT_TRUE(status.ok() || status.IsParseError() || status.IsInvalidArgument())
        << status.ToString();
  };
  for (size_t cut = 0; cut < good.size(); ++cut) {
    const Status status = decode(good.substr(0, cut));
    EXPECT_FALSE(status.ok()) << cut;
    expect_clean(status);
  }
  Rng rng(77);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string bytes = good;
    const int flips = 1 + static_cast<int>(rng.NextBounded(3));
    for (int f = 0; f < flips; ++f) {
      const size_t at = static_cast<size_t>(rng.NextBounded(bytes.size()));
      bytes[at] = static_cast<char>(bytes[at] ^ (1 << rng.NextBounded(8)));
    }
    expect_clean(decode(bytes));
  }
}

TEST(WireTest, FuzzPayloadDecodersNeverCrash) {
  Rng rng(4242);
  for (int trial = 0; trial < 1000; ++trial) {
    const size_t len = static_cast<size_t>(rng.NextBounded(96));
    std::string bytes(len, '\0');
    for (auto& c : bytes) c = static_cast<char>(rng.NextBounded(256));
    // Any outcome is fine except a crash or a hang; errors must be clean.
    (void)net::DecodeHello(bytes);
    (void)net::DecodeHelloAck(bytes);
    (void)net::DecodeExecuteRequest(bytes);
    const Status response = net::DecodeExecuteResponse(bytes).status();
    EXPECT_TRUE(response.ok() || response.IsParseError() || response.IsInvalidArgument())
        << response.ToString();
    (void)net::DecodeSketchRequest(bytes);
    (void)net::DecodeSketchResponse(bytes);
  }
}

// ---------------------------------------------------------------------------
// Fault injection determinism

TEST(FaultTest, SameSeedSameFaultSchedule) {
  net::FaultPlan plan;
  plan.seed = 1234;
  plan.drop_write_rate = 0.15;
  plan.tear_rate = 0.1;
  plan.corrupt_rate = 0.1;

  auto run = [&plan] {
    auto inner = std::make_unique<BufferTransport>("");
    BufferTransport* raw = inner.get();
    net::FaultInjectingTransport faulty(std::move(inner), plan);
    std::vector<int> outcomes;
    for (int i = 0; i < 64; ++i) {
      const Status s = faulty.WriteAll("0123456789abcdef", net::NoDeadline());
      outcomes.push_back(s.ok() ? 0 : 1);
      if (!s.ok()) break;  // killed connections stay dead, like a real socket
    }
    outcomes.push_back(static_cast<int>(raw->written().size()));
    return outcomes;
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);
  EXPECT_GE(a.size(), 2u);
}

TEST(FaultTest, CorruptionSurfacesAtTheReceiverCrc) {
  net::FaultPlan plan;
  plan.seed = 7;
  plan.corrupt_rate = 1.0;  // every write flips one bit
  Frame frame;
  frame.type = MessageType::kExecuteResponse;
  frame.request_id = 9;
  frame.payload = "corrupt me please";

  auto inner = std::make_unique<BufferTransport>("");
  BufferTransport* raw = inner.get();
  net::FaultInjectingTransport faulty(std::move(inner), plan);
  ASSERT_TRUE(net::WriteFrame(faulty, frame, net::NoDeadline()).ok());
  auto decoded = DecodeBytes(raw->written());
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsInvalidArgument())
      << decoded.status().ToString();
}

// ---------------------------------------------------------------------------
// Client/server over real sockets

std::string UniqueSocketPath(const std::string& tag) {
  return "unix:" + testing::TempDir() + "piye_net_" + tag + "_" +
         std::to_string(::getpid()) + ".sock";
}

struct Cluster {
  std::vector<std::unique_ptr<source::RemoteSource>> sources;
  std::vector<std::unique_ptr<net::SourceServer>> servers;
  std::vector<std::shared_ptr<net::NetClient>> clients;
  std::vector<std::unique_ptr<net::NetSource>> net_sources;

  Cluster() = default;
  Cluster(Cluster&&) = default;
  Cluster& operator=(Cluster&&) = default;
  ~Cluster() {
    for (auto& client : clients) client->Close();
    for (auto& server : servers) server->Stop();
  }
};

/// One server process-equivalent per source, all in this test process:
/// engine -> NetSource -> NetClient -> socket -> SourceServer -> the very
/// same RemoteSource objects the baseline engine calls directly, so any
/// byte difference is the wire's fault.
Cluster BuildCluster(const std::string& tag, bool tcp = false,
                     net::FaultPlan client_fault = {}) {
  Cluster cluster;
  const char* owners[] = {"hospital", "pharmacy", "lab"};
  for (size_t i = 0; i < 3; ++i) {
    auto tables = core::ClinicalScenario::MakePatientTables(20, 0.3, 100 + i);
    relational::Table table = i == 0   ? std::move(tables.hospital)
                              : i == 1 ? std::move(tables.pharmacy)
                                       : std::move(tables.lab);
    auto src = std::make_unique<source::RemoteSource>(
        owners[i], "patients", std::move(table), /*seed=*/i + 1);
    core::ClinicalScenario::ApplyPatientPolicies(src.get());
    for (const char* requester : {"alice", "bob"}) {
      EXPECT_TRUE(src->mutable_rbac()->AssignRole(requester, "analyst").ok());
    }

    net::ServerConfig server_config;
    server_config.listen_address =
        tcp ? "tcp:127.0.0.1:0"
            : UniqueSocketPath(tag + "_" + std::to_string(i));
    auto server = std::make_unique<net::SourceServer>(server_config);
    server->AddSource(src.get());
    EXPECT_TRUE(server->Start().ok());

    net::ClientConfig client_config;
    client_config.address = server->bound_address();
    client_config.fault = client_fault;
    if (client_fault.enabled()) client_config.fault.seed += i;
    auto client = std::make_shared<net::NetClient>(client_config);
    cluster.net_sources.push_back(
        std::make_unique<net::NetSource>(owners[i], client));
    cluster.clients.push_back(std::move(client));
    cluster.servers.push_back(std::move(server));
    cluster.sources.push_back(std::move(src));
  }
  return cluster;
}

source::PiqlQuery MakeQuery() {
  auto q = source::PiqlQuery::Parse(
      "<query requester=\"analyst\" purpose=\"research\" maxLoss=\"0.95\">"
      "<select>patient_id</select><select>sex</select></query>");
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return *q;
}

mediator::MediationEngine::Options EngineOptions() {
  mediator::MediationEngine::Options options;
  options.max_combined_loss = 0.95;
  options.max_cumulative_loss = 1e9;
  options.enable_warehouse = false;
  return options;
}

template <typename SourceVector>
std::unique_ptr<mediator::MediationEngine> BuildEngine(
    const SourceVector& sources) {
  auto engine = std::make_unique<mediator::MediationEngine>(EngineOptions());
  for (const auto& src : sources) {
    EXPECT_TRUE(engine->RegisterSource(src.get()).ok());
  }
  EXPECT_TRUE(engine->GenerateMediatedSchema("shared-key").ok());
  return engine;
}

TEST(NetFederationTest, FederatedAnswerIsByteIdenticalToInProcess) {
  Cluster cluster = BuildCluster("ident");
  auto wire_engine = BuildEngine(cluster.net_sources);
  auto local_engine = BuildEngine(cluster.sources);

  mediator::QueryOptions qopts;
  qopts.requester = "alice";
  const auto query = MakeQuery();
  auto over_wire = wire_engine->Execute(query, qopts);
  auto in_process = local_engine->Execute(query, qopts);
  ASSERT_TRUE(over_wire.ok()) << over_wire.status().ToString();
  ASSERT_TRUE(in_process.ok()) << in_process.status().ToString();
  EXPECT_EQ(over_wire->sources_answered.size(), 3u);
  EXPECT_TRUE(over_wire->sources_skipped.empty());
  EXPECT_EQ(TableBytes(over_wire->table()), TableBytes(in_process->table()));
  EXPECT_DOUBLE_EQ(over_wire->combined_privacy_loss,
                   in_process->combined_privacy_loss);
}

TEST(NetFederationTest, ColumnNamesThatAreNotXmlNamesCrossTheWire) {
  // A column named "first visit" is no valid XML element name; the answer
  // must arrive over the wire exactly as it does in process.
  relational::Table table(relational::Schema{
      {"patient_id", relational::ColumnType::kString},
      {"first visit", relational::ColumnType::kString}});
  for (int i = 0; i < 10; ++i) {
    const std::string day = std::to_string(i % 9 + 1);
    table.AppendRowUnchecked({relational::Value::Str("p" + std::to_string(i)),
                              relational::Value::Str("2001-02-0" + day)});
  }
  source::RemoteSource src("clinic", "visits", std::move(table), /*seed=*/3);
  core::ClinicalScenario::ApplyPatientPolicies(&src);
  net::ServerConfig server_config;
  server_config.listen_address = UniqueSocketPath("odd_names");
  net::SourceServer server(server_config);
  server.AddSource(&src);
  ASSERT_TRUE(server.Start().ok());
  net::ClientConfig client_config;
  client_config.address = server.bound_address();
  auto client = std::make_shared<net::NetClient>(client_config);
  std::vector<std::unique_ptr<source::FederatedSource>> wired;
  wired.push_back(std::make_unique<net::NetSource>("clinic", client));
  std::vector<source::FederatedSource*> local = {&src};

  auto build = [](const std::vector<source::FederatedSource*>& sources) {
    auto engine = std::make_unique<mediator::MediationEngine>(EngineOptions());
    for (auto* s : sources) EXPECT_TRUE(engine->RegisterSource(s).ok());
    EXPECT_TRUE(engine->GenerateMediatedSchema("shared-key").ok());
    return engine;
  };
  auto wire_engine = build({wired[0].get()});
  auto local_engine = build(local);
  auto query = source::PiqlQuery::Parse(
      "<query requester=\"analyst\" purpose=\"research\" maxLoss=\"0.95\">"
      "<select>patient_id</select><select>first visit</select></query>");
  ASSERT_TRUE(query.ok());
  auto over_wire = wire_engine->Execute(*query, mediator::QueryOptions{});
  auto in_process = local_engine->Execute(*query, mediator::QueryOptions{});
  ASSERT_TRUE(over_wire.ok()) << over_wire.status().ToString();
  ASSERT_TRUE(in_process.ok()) << in_process.status().ToString();
  EXPECT_EQ(over_wire->table().schema().column(1).name, "first visit");
  EXPECT_EQ(over_wire->table().num_rows(), 10u);
  EXPECT_EQ(TableBytes(over_wire->table()), TableBytes(in_process->table()));
  client->Close();
  server.Stop();
}

TEST(NetFederationTest, TcpTransportSmoke) {
  Cluster cluster = BuildCluster("tcp", /*tcp=*/true);
  auto engine = BuildEngine(cluster.net_sources);
  mediator::QueryOptions qopts;
  qopts.requester = "alice";
  auto result = engine->Execute(MakeQuery(), qopts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->sources_answered.size(), 3u);
}

TEST(NetFederationTest, SketchesCrossTheWireIdentically) {
  Cluster cluster = BuildCluster("sketch");
  for (size_t i = 0; i < cluster.sources.size(); ++i) {
    auto direct = cluster.sources[i]->ExportSketches("shared-key");
    auto wired = cluster.net_sources[i]->ExportSketches("shared-key");
    ASSERT_TRUE(direct.ok());
    ASSERT_TRUE(wired.ok()) << wired.status().ToString();
    ASSERT_EQ(direct->size(), wired->size());
    for (size_t j = 0; j < direct->size(); ++j) {
      EXPECT_EQ((*direct)[j].ref.ToString(), (*wired)[j].ref.ToString());
      EXPECT_DOUBLE_EQ((*direct)[j].InstanceSimilarity((*wired)[j]), 1.0);
    }
  }
}

TEST(NetFederationTest, UnreachableServerSkipsWithUnavailableDetail) {
  Cluster cluster = BuildCluster("skip");
  // Schema generation needs every source reachable; the outage happens
  // after, when the engines are already serving.
  auto engine = BuildEngine(cluster.net_sources);
  auto quorum_engine = BuildEngine(cluster.net_sources);
  // Source 2's server goes away entirely; its client must fail fast with a
  // kUnavailable whose detail names the connect failure, and the engine
  // must integrate the survivors.
  cluster.servers[2]->Stop();

  mediator::QueryOptions qopts;
  qopts.requester = "alice";
  auto result = engine->Execute(MakeQuery(), qopts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->sources_answered.size(), 2u);
  ASSERT_EQ(result->sources_skipped.count("lab"), 1u);
  const std::string& reason = result->sources_skipped.at("lab");
  EXPECT_NE(reason.find("Unavailable"), std::string::npos) << reason;
  EXPECT_NE(reason.find("unreachable"), std::string::npos) << reason;

  // Quorum stays enforceable over the wire.
  qopts.min_sources = 3;
  qopts.coalesce = false;
  auto quorum = quorum_engine->Execute(MakeQuery(), qopts);
  ASSERT_FALSE(quorum.ok());
  EXPECT_TRUE(quorum.status().IsUnavailable());
}

TEST(NetFederationTest, HealthReportsTransportStats) {
  Cluster cluster = BuildCluster("health");
  auto engine = BuildEngine(cluster.net_sources);
  mediator::QueryOptions qopts;
  qopts.requester = "alice";
  ASSERT_TRUE(engine->Execute(MakeQuery(), qopts).ok());

  const auto health = engine->Health();
  ASSERT_EQ(health.sources.size(), 3u);
  for (const auto& source_health : health.sources) {
    EXPECT_TRUE(source_health.transport.over_network);
    EXPECT_GE(source_health.transport.connects, 1u);
    // Handshake is not counted as a request frame; at least sketches +
    // fragment went out.
    EXPECT_GE(source_health.transport.frames_sent, 2u);
    EXPECT_GE(source_health.transport.frames_received, 2u);
    EXPECT_EQ(source_health.transport.corrupt_frames, 0u);
  }

  // The in-process path reports over_network = false.
  auto local_engine = BuildEngine(cluster.sources);
  for (const auto& source_health : local_engine->Health().sources) {
    EXPECT_FALSE(source_health.transport.over_network);
  }
}

TEST(NetFederationTest, FaultStormSurvivedByRetryAndReconnect) {
  net::FaultPlan storm;
  storm.seed = 20260808;
  storm.drop_write_rate = 0.05;
  storm.tear_rate = 0.04;
  storm.corrupt_rate = 0.04;
  storm.drop_read_rate = 0.04;
  Cluster cluster = BuildCluster("storm", /*tcp=*/false, storm);
  auto engine = BuildEngine(cluster.net_sources);
  auto local_engine = BuildEngine(cluster.sources);

  mediator::QueryOptions qopts;
  qopts.requester = "alice";
  qopts.max_retries = 6;
  qopts.coalesce = false;
  const auto query = MakeQuery();
  auto baseline = local_engine->Execute(query, qopts);
  ASSERT_TRUE(baseline.ok());
  const std::string expected = TableBytes(baseline->table());

  size_t full_answers = 0;
  for (int round = 0; round < 8; ++round) {
    auto result = engine->Execute(query, qopts);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (result->sources_answered.size() == 3) {
      ++full_answers;
      // Whatever survived the storm must be byte-identical — corruption is
      // either caught by CRC (and retried) or never happened.
      EXPECT_EQ(TableBytes(result->table()), expected);
    }
  }
  EXPECT_GT(full_answers, 0u) << "storm drowned every round";

  // The storm must be visible in the transport stats.
  uint64_t disconnects = 0, reconnects = 0;
  for (const auto& source_health : engine->Health().sources) {
    disconnects += source_health.transport.disconnects;
    reconnects += source_health.transport.reconnects;
  }
  EXPECT_GT(disconnects, 0u);
  EXPECT_GT(reconnects, 0u);
}

TEST(NetFederationTest, DeadlinePropagatesAndTimesOutCleanly) {
  Cluster cluster = BuildCluster("deadline");
  // Every source hangs far longer than the query deadline.
  for (auto& src : cluster.sources) {
    source::RemoteSource::FaultInjection faults;
    faults.latency_micros = 300'000;
    src->set_fault_injection(faults);
  }
  auto engine = BuildEngine(cluster.net_sources);
  mediator::QueryOptions qopts;
  qopts.requester = "alice";
  qopts.deadline_ms = 60;
  qopts.coalesce = false;
  const auto started = std::chrono::steady_clock::now();
  auto result = engine->Execute(MakeQuery(), qopts);
  const auto elapsed = std::chrono::steady_clock::now() - started;
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsUnavailable() ||
              result.status().IsDeadlineExceeded())
      << result.status().ToString();
  // Responsiveness: the expiry returns promptly instead of riding out the
  // 300 ms hang per source.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed),
            std::chrono::milliseconds(2000));
}

TEST(NetFederationTest, WindowBackpressureAdmitsAllEventually) {
  Cluster cluster = BuildCluster("window");
  net::ClientConfig config;
  config.address = cluster.servers[0]->bound_address();
  config.connections = 1;
  config.max_inflight_per_connection = 2;  // tiny window forces waiting
  net::NetClient client(config);

  const std::string fragment_xml =
      xml::Serialize(*MakeQuery().ToXml(), /*indent=*/-1);
  std::atomic<size_t> ok_count{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&] {
      auto result = client.ExecuteFragment("hospital", fragment_xml);
      if (result.ok()) ok_count.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok_count.load(), 8u);
  client.Close();
}

TEST(NetFederationTest, ServerStopDrainsGracefully) {
  Cluster cluster = BuildCluster("drain");
  net::ClientConfig config;
  config.address = cluster.servers[0]->bound_address();
  net::NetClient client(config);
  const std::string fragment_xml =
      xml::Serialize(*MakeQuery().ToXml(), /*indent=*/-1);
  // Prove liveness, then stop the server and expect clean kUnavailable for
  // subsequent calls (dial refused), not hangs.
  ASSERT_TRUE(client.ExecuteFragment("hospital", fragment_xml).ok());
  cluster.servers[0]->Stop();
  auto result = client.ExecuteFragment("hospital", fragment_xml);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsUnavailable()) << result.status().ToString();
  client.Close();
}

}  // namespace
}  // namespace piye
