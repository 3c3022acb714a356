#ifndef PIYE_NET_CLIENT_H_
#define PIYE_NET_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/result.h"
#include "common/sync.h"
#include "match/schema_matcher.h"
#include "net/frame.h"
#include "source/federated_source.h"

namespace piye {
namespace net {

struct ClientConfig {
  std::string address;  ///< "unix:<path>" or "tcp:<host>:<port>"
  /// Pool size. Requests round-robin across connections; each connection
  /// multiplexes up to `max_inflight_per_connection` requests.
  size_t connections = 2;
  /// Per-connection outstanding-request window. A request that would exceed
  /// it waits (bounded backpressure) instead of piling unbounded frames onto
  /// one stream.
  size_t max_inflight_per_connection = 16;
};

/// Mediator-side endpoint of the federation wire protocol: a pool of
/// connections to one source server, multiplexing requests tagged by
/// request id. A per-connection reader thread demuxes response frames into
/// the pending-request table; a dead connection fails its pending requests
/// with `kUnavailable` (the engine's retry/breaker machinery takes over) and
/// is redialed lazily by the next request. A redial makes up to three
/// attempts, each bounded by 1 s to connect and 1 s for the Hello exchange,
/// with a backoff that doubles from 10 ms to at most 200 ms and stops early
/// when the request's cancel token fires. A HelloAck that fails its CRC is
/// wire damage: it counts in `corrupt_frames` and fails that attempt. Only
/// an intact reply that breaks the protocol (another magic or version, or
/// a frame that is not a decodable HelloAck) ends the redial with
/// kInvalidArgument.
///
/// Thread-safe; one NetClient is shared by every NetSource pointing at the
/// same server process.
class NetClient {
 public:
  explicit NetClient(ClientConfig config);
  ~NetClient();

  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;

  /// Executes a fragment, given as its PiqlQuery::CanonicalKey, on the
  /// remote source `owner`, returning its released table and privacy tags.
  /// The token's deadline bounds the whole exchange (dial, write, wait); on
  /// expiry the client sends a best-effort CancelRequest so the server
  /// stops burning work on an abandoned query.
  Result<source::FederatedSource::FragmentResult> ExecuteFragment(
      const std::string& owner, const std::string& fragment,
      const CancelToken& cancel = {});

  Result<std::vector<match::ColumnSketch>> FetchSketches(
      const std::string& owner, const std::string& shared_key);

  /// Owners hosted by the server, from the most recent HelloAck (dials if
  /// necessary).
  Result<std::vector<std::string>> ListOwners();

  source::TransportStats stats() const;

  const std::string& address() const { return config_.address; }

  /// Shuts every connection down and joins the readers. Subsequent requests
  /// fail kUnavailable.
  void Close();

 private:
  struct Pending;
  struct Conn;

  /// Runs one request/response exchange, redialing as allowed.
  Result<Frame> DoRequest(MessageType type, std::string payload,
                          MessageType expected_response,
                          const CancelToken& cancel);
  Status EnsureConnected(std::shared_ptr<Conn> conn, const CancelToken& cancel);
  void ReaderLoop(std::shared_ptr<Conn> conn, uint64_t generation);
  void FailConnection(Conn& conn, uint64_t generation, const Status& reason);

  ClientConfig config_;
  std::vector<std::shared_ptr<Conn>> conns_;
  std::atomic<uint64_t> next_request_id_{1};
  std::atomic<size_t> round_robin_{0};
  std::atomic<bool> closed_{false};

  mutable Mutex owners_mu_;
  std::vector<std::string> owners_ GUARDED_BY(owners_mu_);

  // Transport statistics (satellite: surfaced through Health()).
  std::atomic<uint64_t> connects_{0};
  std::atomic<uint64_t> reconnects_{0};
  std::atomic<uint64_t> connect_failures_{0};
  std::atomic<uint64_t> frames_sent_{0};
  std::atomic<uint64_t> frames_received_{0};
  std::atomic<uint64_t> timeouts_{0};
  std::atomic<uint64_t> corrupt_frames_{0};
  std::atomic<uint64_t> disconnects_{0};
};

}  // namespace net
}  // namespace piye

#endif  // PIYE_NET_CLIENT_H_
