#ifndef PIYE_NET_WIRE_H_
#define PIYE_NET_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "match/schema_matcher.h"
#include "source/federated_source.h"

namespace piye {
namespace net {

/// The PRIVATE-IYE federation wire protocol, layer 2: message payload
/// schemas. Payloads ride inside the CRC-framed envelope (net/frame.h) and
/// are encoded with the same bounds-checked little-endian codec as the WAL
/// (persist/codec), so a payload that survives the frame CRC but is
/// nonetheless malformed degrades to a clean `kParseError`, never UB.
///
/// Versioning rules: the frame header carries the protocol version; within
/// a version, every payload begins with its own u8 schema version so
/// individual messages can evolve without a protocol bump. Decoders reject
/// unknown schema versions with `kInvalidArgument`. Version 2 replaced the
/// tagged-XML result of an ExecuteResponse with the binary table codec plus
/// typed privacy tags.

constexpr uint8_t kWireSchemaVersion = 2;

/// ---- Handshake -----------------------------------------------------------

/// Hello (client → server): declares the peer name (diagnostics only).
std::string EncodeHello(const std::string& peer_name);
Result<std::string> DecodeHello(const std::string& payload);

/// HelloAck (server → client): the owners of the sources this server hosts.
std::string EncodeHelloAck(const std::vector<std::string>& owners);
Result<std::vector<std::string>> DecodeHelloAck(const std::string& payload);

/// ---- Execute -------------------------------------------------------------

struct ExecuteRequest {
  std::string owner;         ///< which hosted source runs the fragment
  std::string fragment_xml;  ///< xml::Serialize(PiqlQuery::ToXml())
  /// Remaining budget the mediator grants this fragment; 0 = no deadline.
  /// The server derives its own CancelToken deadline from this, so the
  /// mediator's per-source deadline propagates across the process boundary.
  uint64_t deadline_budget_ms = 0;
};
std::string EncodeExecuteRequest(const ExecuteRequest& req);
Result<ExecuteRequest> DecodeExecuteRequest(const std::string& payload);

struct ExecuteResponse {
  /// The source's verbatim execution status. Carrying (code, message)
  /// instead of a boolean keeps the mediator's error taxonomy intact across
  /// the wire: kPrivacyViolation is still never retried, kUnavailable still
  /// trips breakers, and skip reasons keep their detail.
  Status status;
  /// The released table (relational/table_codec) and its privacy tags: one
  /// (form, budget) per column — names come from the table — then the
  /// result-level losses and budget. Empty on error. The per-stage
  /// diagnostics of a FragmentResult do not cross the wire.
  source::FederatedSource::FragmentResult result;
};
std::string EncodeExecuteResponse(const ExecuteResponse& resp);
Result<ExecuteResponse> DecodeExecuteResponse(const std::string& payload);

/// ---- Sketches ------------------------------------------------------------

struct SketchRequest {
  std::string owner;
  std::string shared_key;
};
std::string EncodeSketchRequest(const SketchRequest& req);
Result<SketchRequest> DecodeSketchRequest(const std::string& payload);

struct SketchResponse {
  Status status;
  std::vector<match::ColumnSketch> sketches;
};
std::string EncodeSketchResponse(const SketchResponse& resp);
Result<SketchResponse> DecodeSketchResponse(const std::string& payload);

}  // namespace net
}  // namespace piye

#endif  // PIYE_NET_WIRE_H_
