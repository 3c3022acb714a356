// Wire-protocol and single-process federation tests for src/net: frame
// codec round-trips and adversarial fuzz (truncation, bit flips, oversized
// lengths — mirroring the WAL fuzz in persist_test.cc), message schema
// round-trips, client/server exchanges over Unix and TCP sockets, engine
// integration through NetSource (byte-identity with the in-process path,
// skip-reason fidelity for unreachable servers, transport stats in
// Health()), deterministic transport fault injection through a fault proxy,
// graceful drain, and client backpressure.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/outbreak.h"
#include "core/scenario.h"
#include "mediator/engine.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/net_source.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/transport.h"
#include "net/wire.h"
#include "persist/codec.h"
#include "policy/policy.h"
#include "reference/fault_transport.h"
#include "reference/faulty_source.h"
#include "relational/table_codec.h"
#include "source/remote_source.h"

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

/// `bytes` with its frame header CRC recomputed: a header whose fields were
/// changed on purpose by a sender, not damaged on the wire.
std::string WithHeaderCrc(std::string bytes) {
  const uint32_t crc = persist::Crc32(bytes.data(), 20);
  for (size_t i = 0; i < 4; ++i) bytes[20 + i] = static_cast<char>(crc >> (8 * i));
  return bytes;
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

  // The header CRC is checked first, so a field damaged on the wire fails
  // on the CRC (kDataLoss), never a decode of garbage. The same field sent
  // with a matching CRC is a peer breaking the protocol (kInvalidArgument).
  auto mutate = [&](size_t offset, char value) {
    std::string bytes = good;
    bytes[offset] = value;
    auto damaged = DecodeBytes(bytes).status();
    EXPECT_TRUE(damaged.IsDataLoss()) << damaged.ToString();
    auto sent = DecodeBytes(WithHeaderCrc(bytes)).status();
    EXPECT_TRUE(sent.IsInvalidArgument()) << sent.ToString();
  };
  mutate(0, 'X');   // magic
  mutate(4, 99);    // version
  mutate(5, 0);     // message type below range
  mutate(5, 100);   // message type above range
  mutate(6, 1);     // reserved flags
  std::string bad_crc = good;
  bad_crc[21] = 'X';  // the header CRC itself
  EXPECT_TRUE(DecodeBytes(bad_crc).status().IsDataLoss());
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
      EXPECT_TRUE(result.status().IsDataLoss()) << result.status().ToString();
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
    EXPECT_TRUE(result.status().IsDataLoss() || result.status().IsUnavailable())
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
  source::PiqlQuery fragment_query;
  fragment_query.requester = "a";
  req.fragment = fragment_query.CanonicalKey();
  req.deadline_budget_ms = 750;
  auto decoded_req = net::DecodeExecuteRequest(net::EncodeExecuteRequest(req));
  ASSERT_TRUE(decoded_req.ok());
  EXPECT_EQ(decoded_req->owner, req.owner);
  EXPECT_EQ(decoded_req->fragment, req.fragment);
  EXPECT_EQ(decoded_req->deadline_budget_ms, 750u);

  // Status codes cross the wire verbatim — including the ones the engine
  // branches on (privacy refusals are never retried, kUnavailable trips
  // breakers).
  std::vector<net::ExecuteResponse> responses;
  for (const Status& status :
       {Status::OK(), Status::PrivacyViolation("policy refused"),
        Status::Unavailable("flaky"), Status::DeadlineExceeded("late"),
        Status::Cancelled("gone")}) {
    net::ExecuteResponse& resp = responses.emplace_back();
    resp.status = status;
    if (status.ok()) resp.result = TaggedResult();
  }
  // Real pipeline results: an in-process answer and its wire form are the
  // same value, field for field.
  auto tables = core::ClinicalScenario::MakePatientTables(20, 0.5, 11);
  source::RemoteSource src("hospitalA", "patients", std::move(tables.hospital), 1);
  core::ClinicalScenario::ApplyPatientPolicies(&src);
  for (const char* body :
       {"<select>name</select><select>dob</select><select>diagnosis</select>",
        "<aggregate func=\"COUNT\" attribute=\"diagnosis\">"
        "<groupBy>sex</groupBy></aggregate>"}) {
    auto fragment = source::PiqlQuery::Parse(
        std::string("<query requester=\"analyst\" purpose=\"research\" "
                    "maxLoss=\"0.9\">") +
        body + "</query>");
    ASSERT_TRUE(fragment.ok()) << fragment.status().ToString();
    auto result = src.ExecuteFragment(*fragment);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_GT(result->table.num_rows(), 0u) << body;
    EXPECT_FALSE(result->table.schema().Contains("name")) << body;
    responses.emplace_back().result = *std::move(result);
  }
  for (const net::ExecuteResponse& resp : responses) {
    const Status& status = resp.status;
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
  net::ExecuteRequest req;
  req.owner = "hospital";
  req.fragment = source::PiqlQuery().CanonicalKey();
  std::string request_bytes = net::EncodeExecuteRequest(req);
  // Payloads of versions 1 (tagged XML result) and 2 (XML fragment text)
  // are refused before they are read.
  for (const char previous : {1, 2}) {
    SCOPED_TRACE("schema version " + std::to_string(previous));
    bytes[0] = previous;
    const Status response = net::DecodeExecuteResponse(bytes).status();
    EXPECT_TRUE(response.IsInvalidArgument()) << response.ToString();
    EXPECT_NE(response.message().find("unsupported schema version"), std::string::npos);
    request_bytes[0] = previous;
    const Status request = net::DecodeExecuteRequest(request_bytes).status();
    EXPECT_TRUE(request.IsInvalidArgument()) << request.ToString();
    EXPECT_NE(request.message().find("unsupported schema version"), std::string::npos);
  }
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
  net::faultref::FaultPlan plan;
  plan.seed = 1234;
  plan.drop_write_rate = 0.15;
  plan.tear_rate = 0.1;
  plan.corrupt_rate = 0.1;

  auto run = [&plan] {
    auto inner = std::make_unique<BufferTransport>("");
    BufferTransport* raw = inner.get();
    net::faultref::FaultInjectingTransport faulty(std::move(inner), plan);
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
  net::faultref::FaultPlan plan;
  plan.seed = 7;
  plan.corrupt_rate = 1.0;  // every write flips one bit
  Frame frame;
  frame.type = MessageType::kExecuteResponse;
  frame.request_id = 9;
  frame.payload = "corrupt me please";

  auto inner = std::make_unique<BufferTransport>("");
  BufferTransport* raw = inner.get();
  net::faultref::FaultInjectingTransport faulty(std::move(inner), plan);
  ASSERT_TRUE(net::WriteFrame(faulty, frame, net::NoDeadline()).ok());
  auto decoded = DecodeBytes(raw->written());
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsDataLoss()) << decoded.status().ToString();
}

// ---------------------------------------------------------------------------
// Client/server over real sockets

std::string UniqueSocketPath(const std::string& tag) {
  return "unix:" + testing::TempDir() + "piye_net_" + tag + "_" +
         std::to_string(::getpid()) + ".sock";
}

struct Cluster {
  std::vector<std::unique_ptr<source::RemoteSource>> sources;
  /// What each server hosts: its source behind a pass-through FaultySource.
  std::vector<std::unique_ptr<source::faultref::FaultySource>> faulty;
  std::vector<std::unique_ptr<net::SourceServer>> servers;
  /// A fault proxy in front of each server when the cluster has a plan.
  std::vector<std::unique_ptr<net::faultref::FaultProxy>> proxies;
  std::vector<std::shared_ptr<net::NetClient>> clients;
  std::vector<std::unique_ptr<net::NetSource>> net_sources;

  Cluster() = default;
  Cluster(Cluster&&) = default;
  Cluster& operator=(Cluster&&) = default;
  ~Cluster() {
    for (auto& client : clients) client->Close();
    proxies.clear();
    for (auto& server : servers) server->Stop();
  }
};

/// One server process-equivalent per source, all in this test process:
/// engine -> NetSource -> NetClient -> socket -> [FaultProxy ->] SourceServer
/// -> FaultySource (pass-through unless a test sets a plan) -> the very same
/// RemoteSource objects the baseline engine calls directly, so any byte
/// difference is the wire's fault. An enabled `fault` puts a proxy running
/// it (seed + i for source i) on `leg` in front of each server.
Cluster BuildCluster(
    const std::string& tag, bool tcp = false, net::faultref::FaultPlan fault = {},
    net::faultref::FaultProxy::Leg leg = net::faultref::FaultProxy::Leg::kUpstream) {
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
    auto faulty = std::make_unique<source::faultref::FaultySource>(
        src.get(), source::faultref::FaultySource::Plan{});
    auto server = std::make_unique<net::SourceServer>(server_config);
    server->AddSource(faulty.get());
    EXPECT_TRUE(server->Start().ok());

    net::ClientConfig client_config;
    client_config.address = server->bound_address();
    if (fault.enabled()) {
      net::faultref::FaultPlan plan = fault;
      plan.seed += i;
      auto proxy = std::make_unique<net::faultref::FaultProxy>(
          server->bound_address(), plan, leg);
      EXPECT_TRUE(proxy->Start().ok());
      client_config.address = proxy->address();
      cluster.proxies.push_back(std::move(proxy));
    }
    auto client = std::make_shared<net::NetClient>(client_config);
    cluster.net_sources.push_back(
        std::make_unique<net::NetSource>(owners[i], client));
    cluster.clients.push_back(std::move(client));
    cluster.servers.push_back(std::move(server));
    cluster.faulty.push_back(std::move(faulty));
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
  return options;
}

// Every answer here is a live federated execution, never a warehouse hit.
mediator::QueryOptions LiveOptions() { return {.allow_warehouse = false}; }

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

  mediator::QueryOptions qopts = LiveOptions();
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

TEST(NetFederationTest, StartRefusesTwoSourcesWithOneOwner) {
  // A second source with an owner already added once replaced the first
  // silently, and the server answered for only one of them.
  auto make = [](uint64_t seed) {
    relational::Table table(
        relational::Schema{{"patient_id", relational::ColumnType::kString}});
    table.AppendRowUnchecked({relational::Value::Str("p" + std::to_string(seed))});
    return std::make_unique<source::RemoteSource>("clinic", "visits", std::move(table),
                                                  seed);
  };
  auto first = make(1);
  auto second = make(2);
  net::ServerConfig server_config;
  server_config.listen_address = UniqueSocketPath("dup_owner");
  net::SourceServer server(server_config);
  server.AddSource(first.get());
  server.AddSource(second.get());
  const Status started = server.Start();
  ASSERT_FALSE(started.ok());
  EXPECT_TRUE(started.IsAlreadyExists()) << started.ToString();
  EXPECT_NE(started.message().find("'clinic'"), std::string::npos) << started.ToString();
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
  auto over_wire = wire_engine->Execute(*query, LiveOptions());
  auto in_process = local_engine->Execute(*query, LiveOptions());
  ASSERT_TRUE(over_wire.ok()) << over_wire.status().ToString();
  ASSERT_TRUE(in_process.ok()) << in_process.status().ToString();
  EXPECT_EQ(over_wire->table().schema().column(1).name, "first visit");
  EXPECT_EQ(over_wire->table().num_rows(), 10u);
  EXPECT_EQ(TableBytes(over_wire->table()), TableBytes(in_process->table()));
  client->Close();
  server.Stop();
}

TEST(NetFederationTest, QuotedLiteralsCrossTheWireUnchanged) {
  // A string literal with an embedded quote, or one that spells out
  // " OR diagnosis = ", must reach the server as the same literal: never
  // as an unterminated one, nor as a second disjunct that selects other
  // patients.
  relational::Table table(relational::Schema{
      {"patient_id", relational::ColumnType::kString},
      {"diagnosis", relational::ColumnType::kString}});
  const char* diagnoses[] = {"crohn's", "flu", "cold", "a' OR diagnosis = 'flu"};
  for (int i = 0; i < 12; ++i) {
    table.AppendRowUnchecked({relational::Value::Str("p" + std::to_string(i)),
                              relational::Value::Str(diagnoses[i % 4])});
  }
  source::RemoteSource src("clinic", "visits", std::move(table), /*seed=*/5);
  core::ClinicalScenario::ApplyPatientPolicies(&src);
  net::ServerConfig server_config;
  server_config.listen_address = UniqueSocketPath("quoted");
  net::SourceServer server(server_config);
  server.AddSource(&src);
  ASSERT_TRUE(server.Start().ok());
  net::ClientConfig client_config;
  client_config.address = server.bound_address();
  auto client = std::make_shared<net::NetClient>(client_config);
  net::NetSource wired("clinic", client);

  auto build = [](source::FederatedSource* source) {
    auto engine = std::make_unique<mediator::MediationEngine>(EngineOptions());
    EXPECT_TRUE(engine->RegisterSource(source).ok());
    EXPECT_TRUE(engine->GenerateMediatedSchema("shared-key").ok());
    return engine;
  };
  auto wire_engine = build(&wired);
  auto local_engine = build(&src);
  const std::pair<const char*, size_t> cases[] = {
      {"diagnosis = 'crohn''s'", 3},
      {"diagnosis = 'a'' OR diagnosis = ''flu'", 3},
      {"diagnosis IN ('flu', 'crohn''s')", 6},
  };
  for (const auto& [where, rows] : cases) {
    SCOPED_TRACE(where);
    auto query = source::PiqlQuery::Parse(
        std::string("<query requester=\"analyst\" purpose=\"research\" "
                    "maxLoss=\"0.95\"><select>patient_id</select>"
                    "<select>diagnosis</select><where>") +
        where + "</where></query>");
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    auto over_wire = wire_engine->Execute(*query, LiveOptions());
    auto in_process = local_engine->Execute(*query, LiveOptions());
    ASSERT_TRUE(over_wire.ok()) << over_wire.status().ToString();
    ASSERT_TRUE(in_process.ok()) << in_process.status().ToString();
    EXPECT_TRUE(over_wire->sources_skipped.empty());
    EXPECT_EQ(in_process->table().num_rows(), rows);
    EXPECT_EQ(TableBytes(over_wire->table()), TableBytes(in_process->table()));
  }
  client->Close();
  server.Stop();
}

/// A case-count source whose SUM answers carry Laplace noise, as in the
/// disease-outbreak example.
std::unique_ptr<source::RemoteSource> NoisyCaseSource(uint64_t seed) {
  auto tables = core::OutbreakScenario::MakeCaseTables({"sg"}, 30, 15, 0, 9);
  auto src = std::make_unique<source::RemoteSource>("sg", "cases",
                                                    std::move(tables[0]), seed);
  policy::PrivacyPolicy policy("sg", {});
  policy::PolicyRule cases_rule;
  cases_rule.id = "cases-aggregate";
  cases_rule.item = {"*", "cases"};
  cases_rule.purposes = {"disease-surveillance"};
  cases_rule.recipients = {"*"};
  cases_rule.form = policy::DisclosureForm::kAggregate;
  cases_rule.max_privacy_loss = 0.9;
  policy.AddRule(cases_rule);
  policy::PolicyRule day_rule;
  day_rule.id = "day-public";
  day_rule.item = {"*", "day"};
  day_rule.purposes = {"*"};
  day_rule.recipients = {"*"};
  day_rule.form = policy::DisclosureForm::kExact;
  policy.AddRule(day_rule);
  EXPECT_TRUE(src->mutable_policies()->AddPolicy(std::move(policy)).ok());
  EXPECT_TRUE(src->mutable_rbac()->AddRole("who").ok());
  EXPECT_TRUE(src->mutable_rbac()->AssignRole("who", "who").ok());
  EXPECT_TRUE(src->mutable_rbac()->Grant("who", access::Action::kSelect, "*", "*").ok());
  return src;
}

TEST(NetFederationTest, NoisyFragmentIsByteIdenticalOverTheWire) {
  // The Laplace stream is seeded from the fragment's canonical key, so the
  // server's decoded fragment must seed exactly what the in-process call
  // seeds: the same noisy table, byte for byte.
  auto src = NoisyCaseSource(/*seed=*/1);
  net::ServerConfig server_config;
  server_config.listen_address = UniqueSocketPath("noisy");
  net::SourceServer server(server_config);
  server.AddSource(src.get());
  ASSERT_TRUE(server.Start().ok());
  net::ClientConfig client_config;
  client_config.address = server.bound_address();
  net::NetSource wired("sg", std::make_shared<net::NetClient>(client_config));

  auto fragment = source::PiqlQuery::Parse(
      "<query requester=\"who\" purpose=\"disease-surveillance\" maxLoss=\"0.95\">"
      "<aggregate func=\"SUM\" attribute=\"cases\"><groupBy>day</groupBy>"
      "</aggregate></query>");
  ASSERT_TRUE(fragment.ok()) << fragment.status().ToString();
  auto in_process = src->ExecuteFragment(*fragment);
  auto over_wire = wired.ExecuteFragment(*fragment);
  ASSERT_TRUE(in_process.ok()) << in_process.status().ToString();
  ASSERT_TRUE(over_wire.ok()) << over_wire.status().ToString();
  ASSERT_GT(in_process->table.num_rows(), 0u);
  EXPECT_EQ(TableBytes(over_wire->table), TableBytes(in_process->table));
  // The answer is noisy: the same source under another seed releases
  // different values for the same fragment.
  auto reseeded = NoisyCaseSource(/*seed=*/2)->ExecuteFragment(*fragment);
  ASSERT_TRUE(reseeded.ok()) << reseeded.status().ToString();
  EXPECT_NE(TableBytes(reseeded->table), TableBytes(in_process->table));
  wired.client()->Close();
  server.Stop();
}

TEST(NetFederationTest, OverBoundFragmentIsRefusedAndTheServerKeepsServing) {
  // A hand-built key whose WHERE is a chain of 100,000 NOTs: the server's
  // decoder must stop at relational::kMaxExpressionNodes with a parse
  // error instead of recursing down the chain, and keep serving.
  Cluster cluster = BuildCluster("overbound");
  net::ClientConfig config;
  config.address = cluster.servers[0]->bound_address();
  net::NetClient client(config);
  const std::string plain = MakeQuery().CanonicalKey();
  // The key ends with the absent-WHERE and absent-aggregate flags.
  std::string hostile = plain.substr(0, plain.size() - 2);
  hostile += '\x01';
  hostile.append(100'000, static_cast<char>(relational::Expression::Op::kNot));
  persist::Encoder column;
  relational::Expression::ColumnRef("sex")->AppendCanonicalKey(&column);
  hostile += column.Take();
  hostile += '\x00';

  auto refused = client.ExecuteFragment("hospital", hostile);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsParseError()) << refused.status().ToString();
  auto next = client.ExecuteFragment("hospital", plain);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_GT(next->table.num_rows(), 0u);
  client.Close();
}

TEST(NetFederationTest, HugeDeadlineBudgetIsClampedNotWrapped) {
  // deadline_budget_ms is whatever the peer sends. A budget too large for a
  // steady-clock time point is clamped, not wrapped into a deadline in the
  // past (or, larger still, overflowed in the clock arithmetic).
  Cluster cluster = BuildCluster("hugebudget");
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  auto socket = net::Dial(cluster.servers[0]->bound_address(), deadline);
  ASSERT_TRUE(socket.ok()) << socket.status().ToString();
  net::SocketTransport transport(std::move(*socket));
  net::Frame hello;
  hello.type = net::MessageType::kHello;
  hello.request_id = 1;
  hello.payload = net::EncodeHello("raw-peer");
  ASSERT_TRUE(net::WriteFrame(transport, hello, deadline).ok());
  auto ack = net::ReadFrame(transport, deadline, std::chrono::seconds(5));
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  ASSERT_EQ(ack->type, net::MessageType::kHelloAck);

  const uint64_t budgets[] = {
      static_cast<uint64_t>(std::numeric_limits<int64_t>::max() / 1000),
      static_cast<uint64_t>(std::numeric_limits<int64_t>::max()),
      std::numeric_limits<uint64_t>::max()};
  uint64_t request_id = 2;
  for (uint64_t budget : budgets) {
    net::ExecuteRequest req;
    req.owner = "hospital";
    req.fragment = MakeQuery().CanonicalKey();
    req.deadline_budget_ms = budget;
    net::Frame frame;
    frame.type = net::MessageType::kExecuteRequest;
    frame.request_id = request_id++;
    frame.payload = net::EncodeExecuteRequest(req);
    ASSERT_TRUE(net::WriteFrame(transport, frame, deadline).ok());
    auto reply = net::ReadFrame(transport, deadline, std::chrono::seconds(5));
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_EQ(reply->type, net::MessageType::kExecuteResponse);
    EXPECT_EQ(reply->request_id, frame.request_id);
    auto resp = net::DecodeExecuteResponse(reply->payload);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_TRUE(resp->status.ok()) << "budget " << budget << ": "
                                   << resp->status.ToString();
    EXPECT_GT(resp->result.table.num_rows(), 0u) << "budget " << budget;
  }
}

TEST(NetFederationTest, TcpTransportSmoke) {
  Cluster cluster = BuildCluster("tcp", /*tcp=*/true);
  auto engine = BuildEngine(cluster.net_sources);
  mediator::QueryOptions qopts = LiveOptions();
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

  mediator::QueryOptions qopts = LiveOptions();
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
  mediator::QueryOptions qopts = LiveOptions();
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

/// The storm tests' rounds over a cluster behind fault proxies: eight live
/// queries with a retry budget of 6 through `engine`, built over the
/// cluster's NetSources.
void RunStormRounds(const Cluster& cluster, mediator::MediationEngine& engine) {
  auto local_engine = BuildEngine(cluster.sources);

  mediator::QueryOptions qopts = LiveOptions();
  qopts.requester = "alice";
  qopts.max_retries = 6;
  qopts.coalesce = false;
  const auto query = MakeQuery();
  auto baseline = local_engine->Execute(query, qopts);
  ASSERT_TRUE(baseline.ok());
  const std::string expected = TableBytes(baseline->table());

  size_t full_answers = 0;
  for (int round = 0; round < 8; ++round) {
    auto result = engine.Execute(query, qopts);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (result->sources_answered.size() == 3) {
      ++full_answers;
      // Whatever survived the storm must be byte-identical — corruption is
      // either caught by CRC (and retried) or never happened.
      EXPECT_EQ(TableBytes(result->table()), expected);
    }
  }
  EXPECT_GT(full_answers, 0u) << "storm drowned every round";
}

TEST(NetFederationTest, FaultStormSurvivedByRetryAndReconnect) {
  net::faultref::FaultPlan storm;
  storm.seed = 20260808;
  storm.drop_write_rate = 0.05;
  storm.tear_rate = 0.04;
  storm.corrupt_rate = 0.04;
  storm.drop_read_rate = 0.04;
  Cluster cluster = BuildCluster("storm", /*tcp=*/false, storm);
  auto engine = BuildEngine(cluster.net_sources);
  RunStormRounds(cluster, *engine);

  // The storm must be visible in the transport stats.
  uint64_t disconnects = 0, reconnects = 0;
  for (const auto& source_health : engine->Health().sources) {
    disconnects += source_health.transport.disconnects;
    reconnects += source_health.transport.reconnects;
  }
  EXPECT_GT(disconnects, 0u);
  EXPECT_GT(reconnects, 0u);
}

TEST(NetFederationTest, FaultStormOnResponsesConvergesToInProcessBytes) {
  // The plan sits on the proxy's downstream leg: responses, HelloAcks
  // included, are swallowed, torn and bit-flipped on their way to the
  // client, whose CRC checks must catch every flip.
  net::faultref::FaultPlan storm;
  storm.seed = 20261020;
  storm.drop_write_rate = 0.04;
  storm.tear_rate = 0.04;
  storm.corrupt_rate = 0.1;
  storm.drop_read_rate = 0.04;
  Cluster cluster = BuildCluster("storm_down", /*tcp=*/false, storm,
                                 net::faultref::FaultProxy::Leg::kDownstream);
  auto engine = BuildEngine(cluster.net_sources);
  RunStormRounds(cluster, *engine);

  uint64_t corrupt_frames = 0;
  for (const auto& source_health : engine->Health().sources) {
    corrupt_frames += source_health.transport.corrupt_frames;
  }
  EXPECT_GT(corrupt_frames, 0u);
}

TEST(NetFederationTest, CorruptHelloAckIsRedialedNotRefused) {
  // A bit flipped in transit in the first connection's HelloAck fails that
  // frame's header CRC. That is wire damage, not a peer speaking another
  // protocol: the client counts a corrupt frame, redials, and the fragment
  // is answered on the second connection.
  Cluster cluster = BuildCluster("flip_ack");
  const source::RemoteSource& hospital = *cluster.sources[0];
  auto listener = net::Listener::Listen(UniqueSocketPath("flip_ack_front"));
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::thread front([&] {
    for (int connection = 0; connection < 2; ++connection) {
      auto accepted = listener->Accept(deadline);
      if (!accepted.ok()) return;
      net::SocketTransport transport(std::move(*accepted));
      auto hello = net::ReadFrame(transport, deadline, net::kFrameTimeout);
      if (!hello.ok()) return;
      net::Frame ack;
      ack.type = net::MessageType::kHelloAck;
      ack.request_id = hello->request_id;
      ack.payload = net::EncodeHelloAck({hospital.owner()});
      std::string bytes = net::EncodeFrame(ack);
      if (connection == 0) bytes[5] ^= 0x01;  // the type byte
      if (!transport.WriteAll(bytes, deadline).ok() || connection == 0) continue;
      auto request = net::ReadFrame(transport, deadline, net::kFrameTimeout);
      if (!request.ok()) return;
      auto req = net::DecodeExecuteRequest(request->payload);
      if (!req.ok()) return;
      auto fragment = source::PiqlQuery::Decode(req->fragment);
      if (!fragment.ok()) return;
      net::ExecuteResponse resp;
      auto answer = hospital.ExecuteFragment(*fragment);
      resp.status = answer.status();
      if (answer.ok()) resp.result = std::move(*answer);
      net::Frame reply;
      reply.type = net::MessageType::kExecuteResponse;
      reply.request_id = request->request_id;
      reply.payload = net::EncodeExecuteResponse(resp);
      if (!net::WriteFrame(transport, reply, deadline).ok()) return;
      char byte;
      (void)transport.Read(&byte, 1, deadline);  // until the client hangs up
    }
  });

  net::ClientConfig config;
  config.address = listener->bound_address();
  config.connections = 1;
  net::NetClient client(config);
  auto over_wire = client.ExecuteFragment(hospital.owner(), MakeQuery().CanonicalKey());
  const source::TransportStats stats = client.stats();
  client.Close();
  front.join();
  listener->Close();

  ASSERT_TRUE(over_wire.ok()) << over_wire.status().ToString();
  auto in_process = hospital.ExecuteFragment(MakeQuery());
  ASSERT_TRUE(in_process.ok()) << in_process.status().ToString();
  EXPECT_EQ(TableBytes(over_wire->table), TableBytes(in_process->table));
  EXPECT_EQ(stats.corrupt_frames, 1u);
  EXPECT_EQ(stats.connect_failures, 1u);
  EXPECT_EQ(stats.connects, 1u);
}

TEST(NetFederationTest, HelloAckOfAnotherProtocolVersionIsNotRedialed) {
  // An intact HelloAck of another protocol version is the peer's protocol,
  // not wire damage: no corrupt frame, no redial, kInvalidArgument.
  auto listener = net::Listener::Listen(UniqueSocketPath("other_version"));
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::atomic<int> accepted_connections{0};
  std::thread front([&] {
    for (;;) {
      auto accepted = listener->Accept(deadline);
      if (!accepted.ok()) return;
      accepted_connections.fetch_add(1);
      net::SocketTransport transport(std::move(*accepted));
      auto hello = net::ReadFrame(transport, deadline, net::kFrameTimeout);
      if (!hello.ok()) continue;
      net::Frame ack;
      ack.type = net::MessageType::kHelloAck;
      ack.payload = net::EncodeHelloAck({"hospital"});
      std::string bytes = net::EncodeFrame(ack);
      bytes[4] = static_cast<char>(net::kProtocolVersion + 1);
      (void)transport.WriteAll(WithHeaderCrc(bytes), deadline);  // test peer
      char byte;
      (void)transport.Read(&byte, 1, deadline);  // until the client hangs up
    }
  });

  net::ClientConfig config;
  config.address = listener->bound_address();
  config.connections = 1;
  net::NetClient client(config);
  auto over_wire = client.ExecuteFragment("hospital", MakeQuery().CanonicalKey());
  const source::TransportStats stats = client.stats();
  client.Close();
  listener->Shutdown();
  front.join();
  listener->Close();

  ASSERT_FALSE(over_wire.ok());
  EXPECT_TRUE(over_wire.status().IsInvalidArgument()) << over_wire.status().ToString();
  EXPECT_NE(over_wire.status().message().find("unsupported protocol version"),
            std::string::npos)
      << over_wire.status().ToString();
  EXPECT_EQ(accepted_connections.load(), 1);
  EXPECT_EQ(stats.corrupt_frames, 0u);
  EXPECT_EQ(stats.connect_failures, 1u);
  EXPECT_EQ(stats.connects, 0u);
}

TEST(NetFederationTest, DeadlinePropagatesAndTimesOutCleanly) {
  Cluster cluster = BuildCluster("deadline");
  // Every source hangs far longer than the query deadline.
  for (auto& src : cluster.faulty) {
    source::faultref::FaultySource::Plan faults;
    faults.latency_micros = 300'000;
    src->set_plan(faults);
  }
  auto engine = BuildEngine(cluster.net_sources);
  mediator::QueryOptions qopts = LiveOptions();
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

  const std::string fragment = MakeQuery().CanonicalKey();
  std::atomic<size_t> ok_count{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&] {
      auto result = client.ExecuteFragment("hospital", fragment);
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
  const std::string fragment = MakeQuery().CanonicalKey();
  // Prove liveness, then stop the server and expect clean kUnavailable for
  // subsequent calls (dial refused), not hangs.
  ASSERT_TRUE(client.ExecuteFragment("hospital", fragment).ok());
  cluster.servers[0]->Stop();
  auto result = client.ExecuteFragment("hospital", fragment);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsUnavailable()) << result.status().ToString();
  client.Close();
}

TEST(NetFederationTest, StopLetsAnInFlightFragmentFinish) {
  // Stop() 50 ms into a 400 ms fragment: the drain window (2 s) covers it,
  // so the answer must arrive whole instead of being cancelled when the
  // connection's handler notices the stop.
  Cluster cluster = BuildCluster("drain_inflight");
  source::faultref::FaultySource::Plan slow;
  slow.latency_micros = 400'000;
  cluster.faulty[0]->set_plan(slow);
  net::ClientConfig config;
  config.address = cluster.servers[0]->bound_address();
  net::NetClient client(config);
  ASSERT_TRUE(client.ListOwners().ok());  // dialed before the stop

  const std::string fragment = MakeQuery().CanonicalKey();
  Result<source::FederatedSource::FragmentResult> over_wire =
      Status::Internal("not run");
  std::thread caller([&] { over_wire = client.ExecuteFragment("hospital", fragment); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto stop_started = std::chrono::steady_clock::now();
  cluster.servers[0]->Stop();
  const auto stop_took = std::chrono::steady_clock::now() - stop_started;
  caller.join();
  client.Close();

  ASSERT_TRUE(over_wire.ok()) << over_wire.status().ToString();
  auto in_process = cluster.sources[0]->ExecuteFragment(MakeQuery());
  ASSERT_TRUE(in_process.ok()) << in_process.status().ToString();
  EXPECT_EQ(TableBytes(over_wire->table), TableBytes(in_process->table));
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(stop_took),
            std::chrono::milliseconds(2000));
}

}  // namespace
}  // namespace piye
