// Workload specs and the seeded operation streams they generate.
#include <algorithm>
#include <cstdio>
#include <random>

#include "common/strings.h"
#include "perfbench.h"

namespace perfbench {
namespace {

using piye::source::PiqlQuery;

// Generated dates of birth are 19YY-MM-DD with YY in [30, 89] and DD in
// [1, 28]; a window is a half-open range over that calendar.
constexpr int kDaysPerMonth = 28;
constexpr int kCalendarDays = 60 * 12 * kDaysPerMonth;

std::string DateOf(int day) {
  day = std::clamp(day, 0, kCalendarDays);
  const int month_index = day / kDaysPerMonth;
  char buf[16];
  std::snprintf(buf, sizeof(buf), "19%02d-%02d-%02d", 30 + month_index / 12,
                1 + month_index % 12, 1 + day % kDaysPerMonth);
  if (day == kCalendarDays) return "1990-01-01";
  return buf;
}

struct Window {
  int start = 0;
  int days = 0;
};

Window RandomWindow(std::mt19937_64* rng, int days) {
  return {static_cast<int>((*rng)() % static_cast<uint64_t>(kCalendarDays - days + 1)),
          days};
}

enum class Shape { kRows, kCount };

/// A PIQL query over the mediated clinical schema: patient ids and dates of
/// birth inside a window, or their count. `refused` asks for a purpose the
/// source policies do not allow, which every source refuses.
PiqlQuery MakeQuery(const std::string& requester, Shape shape, Window window,
                    bool refused) {
  std::string xml = "<query requester=\"" + requester + "\" purpose=\"" +
                    (refused ? "marketing" : "healthcare") + "\" maxLoss=\"1.0\">";
  if (shape == Shape::kRows) {
    xml += "<select>patient_id</select><select>dob</select>";
  } else {
    xml += "<aggregate func=\"COUNT\" attribute=\"patient_id\"/>";
  }
  xml += "<where>dob &gt;= '" + DateOf(window.start) + "' AND dob &lt; '" +
         DateOf(window.start + window.days) + "'</where></query>";
  auto parsed = PiqlQuery::Parse(xml);
  if (!parsed.ok()) {
    std::fprintf(stderr, "perfbench: bad generated query %s: %s\n", xml.c_str(),
                 parsed.status().ToString().c_str());
    std::abort();
  }
  return std::move(*parsed);
}

Op QueryOp(const std::string& requester, Shape shape, Window window,
           bool refused, bool allow_warehouse) {
  auto request = std::make_shared<Request>();
  request->query = MakeQuery(requester, shape, window, refused);
  request->options.requester = requester;
  request->options.allow_warehouse = allow_warehouse;
  return Op{std::move(request)};
}

std::string Requester(size_t client, size_t index) {
  return "c" + std::to_string(client) + "-r" + std::to_string(index);
}

/// Marks exactly `count` of `n` positions, chosen by the seed.
std::vector<bool> PickPositions(std::mt19937_64* rng, size_t n, size_t count) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  for (size_t i = n; i > 1; --i) std::swap(order[i - 1], order[(*rng)() % i]);
  std::vector<bool> marked(n, false);
  for (size_t i = 0; i < std::min(count, n); ++i) marked[order[i]] = true;
  return marked;
}

}  // namespace

Result<WorkloadSpec> FindWorkload(const std::string& name, bool small) {
  WorkloadSpec s;
  s.name = name;
  if (name == "wide-integrate") {
    s.clients = 1;
    s.patients = 25600;
    s.allow_warehouse = false;
    s.ops_per_second = 75;
    s.warmup_ops = 8;
    s.setups = 9;
  } else if (name == "wire-federation") {
    s.clients = 4;
    s.patients = 25600;
    s.wire = true;
    s.allow_warehouse = false;
    s.ops_per_second = 800;
    s.warmup_ops = 40;
    s.setups = 9;
  } else if (name == "emergency-mix") {
    s.clients = 4;
    s.patients = 25600;
    s.durable = true;
    s.ops_per_second = 100000;
    s.warmup_ops = 40;
    s.setups = 9;
    s.anchor_releases = 800;
  } else {
    return Status::InvalidArgument("unknown workload '" + name + "'");
  }
  if (small) {
    s.patients = std::max<size_t>(s.patients / 16, 200);
    s.anchor_releases /= 8;
    s.setups = 2;
    s.warmup_ops = 4;
  }
  return s;
}

Plan MakePlan(const WorkloadSpec& spec, uint64_t seed, size_t ops) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 0x5EED);
  Plan plan;
  plan.clients.resize(spec.clients);
  const size_t per_client = std::max<size_t>(ops / spec.clients, 1);
  const bool wh = spec.allow_warehouse;

  if (spec.name == "wide-integrate") {
    // Five-year windows: thousands of rows from every source per answer.
    const int days = 60 * kDaysPerMonth;
    for (size_t c = 0; c < spec.clients; ++c) {
      const auto refused = PickPositions(&rng, per_client, per_client / 50);
      for (size_t i = 0; i < per_client; ++i) {
        // Four releases of loss 0.3 per requester stay inside the default
        // cumulative budget of 2.0.
        plan.clients[c].push_back(QueryOp(Requester(c, i / 4), Shape::kRows,
                                          RandomWindow(&rng, days), refused[i], wh));
      }
    }
    for (size_t i = 0; i < spec.warmup_ops; ++i) {
      plan.warmup.push_back(QueryOp("warmup-" + std::to_string(i / 4), Shape::kRows,
                                    RandomWindow(&rng, days), false, wh));
    }
  } else if (spec.name == "wire-federation") {
    // Small answers: two-week row windows or two-year counts.
    for (size_t c = 0; c < spec.clients; ++c) {
      const auto refused = PickPositions(&rng, per_client, per_client / 50);
      for (size_t i = 0; i < per_client; ++i) {
        const bool rows = rng() % 2 == 0;
        plan.clients[c].push_back(QueryOp(
            Requester(c, i / 6), rows ? Shape::kRows : Shape::kCount,
            RandomWindow(&rng, rows ? 14 : 24 * kDaysPerMonth), refused[i], wh));
      }
    }
    for (size_t i = 0; i < spec.warmup_ops; ++i) {
      plan.warmup.push_back(QueryOp("warmup-" + std::to_string(i / 6), Shape::kRows,
                                    RandomWindow(&rng, 14), false, wh));
    }
  } else if (spec.name == "emergency-mix") {
    // A hot set of sixteen questions asked again and again by four
    // responders per client; client 0 advances the epoch eight times per
    // run, so every cached answer ages out and misses periodically. Each
    // advance also evicts what the warehouse can no longer serve.
    struct Template {
      Shape shape;
      Window window;
    };
    std::vector<Template> hot;
    for (size_t i = 0; i < 16; ++i) {
      const bool rows = i % 2 == 0;
      hot.push_back({rows ? Shape::kRows : Shape::kCount,
                     RandomWindow(&rng, rows ? kDaysPerMonth : 12 * kDaysPerMonth)});
    }
    const size_t responders = 4;
    const size_t epoch_every = std::max<size_t>(per_client / 8, 1);
    for (size_t c = 0; c < spec.clients; ++c) {
      // Every (responder, question) pair is one shared request.
      std::vector<Op> asked, refused_asked;
      for (size_t r = 0; r < responders; ++r) {
        for (const Template& t : hot) {
          asked.push_back(QueryOp(Requester(c, r), t.shape, t.window, false, wh));
          refused_asked.push_back(QueryOp(Requester(c, r), t.shape, t.window, true, wh));
        }
      }
      const auto refused = PickPositions(&rng, per_client, per_client / 200);
      for (size_t i = 0; i < per_client; ++i) {
        if (c == 0 && i > 0 && i % epoch_every == 0) plan.clients[c].push_back(Op{});
        const size_t pick = rng() % asked.size();
        plan.clients[c].push_back(refused[i] ? refused_asked[pick] : asked[pick]);
      }
    }
    // No responder may exhaust its budget: every answer costs at most 1.0.
    plan.max_cumulative_loss = static_cast<double>(per_client) + 1.0;
    // The trust anchor: earlier responders' releases, five each, seeded by
    // four threads that each own whole requesters (so every seeded budget
    // is fixed). They charge budgets but materialize nothing.
    const size_t anchor_threads = 4;
    plan.anchor.resize(anchor_threads);
    for (size_t i = 0; i < spec.anchor_releases; ++i) {
      const std::string requester = "archive-" + std::to_string(i / 5);
      plan.anchor[piye::strings::Fnv1a64(requester) % anchor_threads].push_back(
          QueryOp(requester, Shape::kRows, RandomWindow(&rng, 7), false,
                  /*allow_warehouse=*/false));
    }
    for (size_t i = 0; i < spec.warmup_ops; ++i) {
      const Template& t = hot[i % hot.size()];
      plan.warmup.push_back(QueryOp("warmup", t.shape, t.window, false, wh));
    }
  }
  for (size_t c = 0; c < plan.clients.size(); ++c) {
    for (const auto& op : plan.clients[c]) {
      if (op.request != nullptr) plan.client_of[op.request->options.requester] = c;
    }
  }
  return plan;
}

}  // namespace perfbench
