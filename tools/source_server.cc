// source_server: hosts one or more PRIVATE-IYE remote sources behind the
// federation wire protocol, turning the in-process federation into a true
// multi-process one. Each --source flag ingests a record-shaped XML file
// into a fully configured RemoteSource (the complete Figure 2(a) pipeline),
// and a net::SourceServer serves ExecuteFragment / ExportSketches over TCP
// or a Unix domain socket.
//
//   source_server --listen=unix:/tmp/hospital.sock
//     --source=owner=hospital,table=hospital,file=/tmp/hospital.xml,seed=11
//     --clinical-policies
//
// Flags:
//   --listen=ADDR            unix:<path> or tcp:<host>:<port> (port 0 = any)
//   --source=KEY=V,...       repeated; keys: owner, table, file, seed
//   --clinical-policies      apply the standard clinical policy set and the
//                            analyst role (granting requesters alice, bob,
//                            analyst) to every source — matching what the
//                            in-process tests configure, so a federated run
//                            is byte-identical to an in-process one
//   --workers=N              fragment worker threads, 1..256 (default 4)
//
// A flag or --source key that is unknown, a number that does not parse
// completely or is out of range, or a source owner given twice, exits with
// status 2 and a message naming it, before any file is read or any thread
// starts.
//
// On readiness the resolved address is printed as "LISTENING <addr>" on
// stdout (the line a spawning harness waits for). SIGTERM/SIGINT trigger a
// graceful drain: in-flight fragments finish and flush before exit.

#include <signal.h>

#include <charconv>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

#include "core/scenario.h"
#include "net/server.h"
#include "source/remote_source.h"

namespace {

using piye::Result;
using piye::Status;

struct SourceSpec {
  std::string owner;
  std::string table;
  std::string file;
  uint64_t seed = 0;
};

/// `text` as a number of type T, or nullopt unless every character is part
/// of it (no sign on an unsigned type, no spaces, no suffix).
template <typename T>
std::optional<T> ParseNumber(const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

/// The value of `flag` as an unsigned integer in [lo, hi].
Result<uint64_t> ParseCount(const std::string& flag, const std::string& text,
                            uint64_t lo, uint64_t hi) {
  const std::optional<uint64_t> n = ParseNumber<uint64_t>(text);
  if (!n.has_value() || *n < lo || *n > hi) {
    return Status::InvalidArgument(flag + " must be an integer in [" +
                                   std::to_string(lo) + ", " + std::to_string(hi) +
                                   "], got '" + text + "'");
  }
  return *n;
}

/// Stores a parsed flag value in `*out`, or prints why it is refused.
template <typename T, typename U>
bool Assign(const Result<T>& parsed, U* out) {
  if (!parsed.ok()) {
    std::cerr << "source_server: " << parsed.status().ToString() << "\n";
    return false;
  }
  *out = *parsed;
  return true;
}

constexpr uint64_t kMaxWorkers = 256;
constexpr uint64_t kMaxU64 = ~uint64_t{0};

Result<SourceSpec> ParseSourceSpec(const std::string& text) {
  SourceSpec spec;
  std::stringstream stream(text);
  std::string pair;
  while (std::getline(stream, pair, ',')) {
    const size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("--source item '" + pair +
                                     "' is not key=value");
    }
    const std::string key = pair.substr(0, eq);
    const std::string value = pair.substr(eq + 1);
    if (key == "owner") {
      spec.owner = value;
    } else if (key == "table") {
      spec.table = value;
    } else if (key == "file") {
      spec.file = value;
    } else if (key == "seed") {
      auto seed = ParseCount("--source seed", value, 0, kMaxU64);
      if (!seed.ok()) return seed.status();
      spec.seed = *seed;
    } else {
      return Status::InvalidArgument("--source key '" + key + "' unknown");
    }
  }
  if (spec.owner.empty() || spec.file.empty()) {
    return Status::InvalidArgument("--source needs at least owner= and file=");
  }
  if (spec.table.empty()) spec.table = spec.owner;
  return spec;
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

volatile sig_atomic_t g_stop = 0;
void HandleStop(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  piye::net::ServerConfig config;
  std::vector<SourceSpec> specs;
  bool clinical_policies = false;

  auto value_of = [](const std::string& arg, const std::string& flag,
                     std::string* out) {
    const std::string prefix = flag + "=";
    if (arg.rfind(prefix, 0) != 0) return false;
    *out = arg.substr(prefix.size());
    return true;
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    bool ok = true;  // false once a numeric flag is refused
    if (value_of(arg, "--listen", &value)) {
      config.listen_address = value;
    } else if (value_of(arg, "--source", &value)) {
      auto spec = ParseSourceSpec(value);
      if (!spec.ok()) {
        std::cerr << "source_server: " << spec.status().ToString() << "\n";
        return 2;
      }
      for (const SourceSpec& added : specs) {
        if (added.owner == spec->owner) {
          std::cerr << "source_server: --source owner '" << spec->owner
                    << "' given twice\n";
          return 2;
        }
      }
      specs.push_back(std::move(*spec));
    } else if (arg == "--clinical-policies") {
      clinical_policies = true;
    } else if (value_of(arg, "--workers", &value)) {
      ok = Assign(ParseCount("--workers", value, 1, kMaxWorkers), &config.worker_threads);
    } else {
      std::cerr << "source_server: unknown flag '" << arg << "'\n";
      return 2;
    }
    if (!ok) return 2;
  }
  if (specs.empty()) {
    std::cerr << "source_server: at least one --source is required\n";
    return 2;
  }

  std::vector<std::unique_ptr<piye::source::RemoteSource>> sources;
  for (const auto& spec : specs) {
    auto xml_text = ReadFile(spec.file);
    if (!xml_text.ok()) {
      std::cerr << "source_server: " << xml_text.status().ToString() << "\n";
      return 1;
    }
    auto source = piye::source::RemoteSource::FromXmlRecords(
        spec.owner, spec.table, *xml_text, spec.seed);
    if (!source.ok()) {
      std::cerr << "source_server: ingest of '" << spec.file
                << "' failed: " << source.status().ToString() << "\n";
      return 1;
    }
    if (clinical_policies) {
      piye::core::ClinicalScenario::ApplyPatientPolicies(source->get());
      for (const char* requester : {"alice", "bob"}) {
        (void)(*source)->mutable_rbac()->AssignRole(requester, "analyst");
      }
    }
    sources.push_back(std::move(*source));
  }

  piye::net::SourceServer server(config);
  for (const auto& source : sources) server.AddSource(source.get());
  const Status started = server.Start();
  if (!started.ok()) {
    std::cerr << "source_server: " << started.ToString() << "\n";
    return 1;
  }

  // Readiness line: the spawning harness parses the resolved address (the
  // kernel-assigned port for tcp:...:0) from it.
  std::cout << "LISTENING " << server.bound_address() << std::endl;

  struct sigaction action = {};
  action.sa_handler = HandleStop;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
  sigset_t empty;
  sigemptyset(&empty);
  while (g_stop == 0) {
    sigsuspend(&empty);  // wait for SIGTERM/SIGINT
  }
  server.Stop();  // graceful drain
  return 0;
}
