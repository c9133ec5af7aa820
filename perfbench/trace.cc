// perf_trace — in-process replay of a served benchmark run, timed per layer.
//
//   perf_trace --db=instance.db --replay=replay.txt --threads=2 \
//              --spans=spans.jsonl
//
// The replay file lists the served run's requests in the order the server
// applied them (perfbench/run.py writes it):
//
//   W <version> <n>            followed by n ingest lines "<rel> <v1> ..."
//   Q <version> <rows> <hit> <notion> <backend> <threshold> <kind> <text>
//
// The replay wraps each call into a layer's public entry point in a span
// (name, start, end, parent, request): LoadDatabase, the IncDbService
// constructor and Ingest (snapshot publishes), ParseRA / ParseSql,
// Optimize, and, for the queries the served run had to evaluate (plan-cache
// misses), QueryEngine::Run and EvalSql / EvalSqlCertain; then
// IncDbService::Run and, after every miss, a second Run that hits the plan
// cache. Spans stay in memory until the end and are then written to --spans
// as JSON lines; per-layer metrics go to stdout as one JSON object. Nothing
// inside src/ is instrumented: layer counters come from the EvalStats each
// QueryEngine::Run returns. The tracing overhead is the cost of recording
// that many spans (calibrated at the end) over the traced calls' time.
//
// Every replayed query must return the row count the served run returned at
// the same snapshot version; differences are listed in "row_mismatches".
// Exit status: 0 on a completed replay, 2 on bad usage or unreadable input.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "incdb.h"

namespace {

using Clock = std::chrono::steady_clock;

struct Event {
  bool write = false;
  uint64_t version = 0;
  // Queries.
  size_t served_rows = 0;
  bool served_hit = false;
  std::string notion;
  std::string backend;
  double threshold = 1.0;
  std::string kind;  // "query" (RA) or "sql"
  std::string text;
  // Writes.
  std::vector<incdb::IngestRow> rows;
};

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int64_t parent;  // index into the span vector, -1 for a root
  int64_t request;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  int64_t Begin(const char* name, int64_t parent, int64_t request) {
    spans_.push_back({name, Now(), 0, parent, request});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  // Closes span `id` and returns its duration in seconds.
  double End(int64_t id) {
    Span& s = spans_[static_cast<size_t>(id)];
    s.end_ns = Now();
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }

  bool Write(const std::string& path) const {
    std::ofstream out(path);
    for (const Span& s : spans_) {
      out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
          << ",\"request\":" << s.request << "}\n";
    }
    return static_cast<bool>(out);
  }

  size_t size() const { return spans_.size(); }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

double Seconds(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Same token grammar as the wire protocol's ingest rows.
incdb::Value ParseValueToken(const std::string& t) {
  if (t.size() >= 2 && t[0] == '_') {
    return incdb::Value::Null(
        static_cast<incdb::NullId>(std::strtoull(t.c_str() + 1, nullptr, 10)));
  }
  char* end = nullptr;
  const long long v = std::strtoll(t.c_str(), &end, 10);
  if (!t.empty() && *end == '\0') return incdb::Value::Int(v);
  if (t.size() >= 2 && t.front() == '\'' && t.back() == '\'') {
    return incdb::Value::Str(t.substr(1, t.size() - 2));
  }
  return incdb::Value::Str(t);
}

bool ReadReplay(const std::string& path, std::vector<Event>* events) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    Event e;
    if (tag == "W") {
      size_t n = 0;
      ls >> e.version >> n;
      e.write = true;
      for (size_t i = 0; i < n; ++i) {
        std::string row_line;
        if (!std::getline(in, row_line)) return false;
        std::istringstream rs(row_line);
        incdb::IngestRow row;
        rs >> row.relation;
        std::vector<incdb::Value> values;
        std::string tok;
        while (rs >> tok) values.push_back(ParseValueToken(tok));
        row.tuple = incdb::Tuple(std::move(values));
        e.rows.push_back(std::move(row));
      }
    } else if (tag == "Q") {
      int hit = 0;
      ls >> e.version >> e.served_rows >> hit >> e.notion >> e.backend >>
          e.threshold >> e.kind;
      e.served_hit = hit != 0;
      std::getline(ls, e.text);
      e.text = incdb::Trim(e.text);
    } else {
      return false;
    }
    events->push_back(std::move(e));
  }
  return true;
}

bool ParseNotion(const std::string& s, incdb::AnswerNotion* out) {
  for (int i = 0; i <= static_cast<int>(
                          incdb::AnswerNotion::kCertainWithProbability);
       ++i) {
    const auto n = static_cast<incdb::AnswerNotion>(i);
    if (s == incdb::AnswerNotionName(n)) {
      *out = n;
      return true;
    }
  }
  return false;
}

// The request incdb_serve builds for the same session state and line.
incdb::QueryRequest MakeRequest(const Event& e, int threads) {
  incdb::QueryRequest req;
  req.input = e.kind == "sql" ? incdb::QueryInput::SqlText(e.text)
                              : incdb::QueryInput::RaText(e.text);
  ParseNotion(e.notion, &req.notion);
  req.backend = e.backend == "ctable" ? incdb::Backend::kCTable
                                      : incdb::Backend::kEnumeration;
  req.eval.num_threads = threads;
  req.probability.threshold = e.threshold;
  return req;
}

bool IsWorldQuantified(incdb::AnswerNotion n) {
  return n == incdb::AnswerNotion::kCertainEnum ||
         n == incdb::AnswerNotion::kPossible ||
         n == incdb::AnswerNotion::kCertainWithProbability;
}

// Per-layer samples and counters gathered over the traced pass.
struct Layers {
  double load_s = 0;
  std::vector<double> publish_ms;
  double rows_reforced = 0;
  size_t writes = 0;
  std::vector<double> sql_parse_us, sql_eval_ms, ra_parse_us, optimize_us,
      engine_ms, hit_us;
  double traced_s = 0;  // root spans: whole queries and publishes
  double tuples_in = 0, rows_out = 0;
  double vectorized = 0, batches = 0, subplan_hits = 0, delta_applied = 0,
         delta_fallbacks = 0;
  size_t queries = 0;  // evaluated by the engine (served misses)
  double world_space = 0;
  size_t enum_queries = 0;
  double ct_rows = 0, ct_sat = 0, ct_simplified = 0, ct_pruned = 0;
  size_t ct_queries = 0;
  double counted = 0, sampled = 0, exact_hits = 0, prob_rows = 0;
  size_t prob_queries = 0;
};

void Usage() {
  std::fprintf(stderr,
               "usage: perf_trace --db=FILE --replay=FILE [--threads=N] "
               "[--spans=FILE]\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string db_file, replay_file, spans_file;
  int threads = 0;
  incdb::ServiceLimits limits;
  limits.max_worlds_per_query = 200'000;  // incdb_serve's default
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--db=")) {
      db_file = v;
    } else if (const char* v = value("--replay=")) {
      replay_file = v;
    } else if (const char* v = value("--spans=")) {
      spans_file = v;
    } else if (const char* v = value("--threads=")) {
      threads = std::atoi(v);
    } else {
      return Usage(), 2;
    }
  }
  if (db_file.empty() || replay_file.empty()) return Usage(), 2;

  std::ifstream in(db_file);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", db_file.c_str());
    return 2;
  }
  std::ostringstream text;
  text << in.rdbuf();
  std::vector<Event> events;
  if (!ReadReplay(replay_file, &events)) {
    std::fprintf(stderr, "bad replay file %s\n", replay_file.c_str());
    return 2;
  }

  Tracer tracer;
  Layers m;
  int64_t span = tracer.Begin("io.load", -1, -1);
  auto loaded = incdb::LoadDatabase(text.str());
  m.load_s = tracer.End(span);
  if (!loaded.ok()) {
    std::fprintf(stderr, "bad dump: %s\n", loaded.status().ToString().c_str());
    return 2;
  }
  const incdb::Database db = std::move(loaded).value();

  span = tracer.Begin("snapshot.publish", -1, -1);
  incdb::IncDbService service(db, limits);
  m.publish_ms.push_back(tracer.End(span) * 1e3);
  m.traced_s += m.publish_ms.back() * 1e-3;

  std::vector<std::string> mismatches;
  int64_t request = 0;
  for (const Event& e : events) {
    ++request;
    if (e.write) {
      span = tracer.Begin("snapshot.publish", -1, request);
      auto version = service.Ingest(e.rows);
      m.publish_ms.push_back(tracer.End(span) * 1e3);
      m.traced_s += m.publish_ms.back() * 1e-3;
      if (!version.ok() || *version != e.version) {
        mismatches.push_back("write published version " +
                             (version.ok() ? std::to_string(*version)
                                           : version.status().ToString()) +
                             ", served " + std::to_string(e.version));
      }
      const auto snap = service.CurrentSnapshot();
      std::set<std::string> touched;
      for (const incdb::IngestRow& row : e.rows) touched.insert(row.relation);
      for (const std::string& name : touched) {
        m.rows_reforced +=
            static_cast<double>(snap->db().GetRelation(name).size());
      }
      ++m.writes;
      continue;
    }

    const incdb::QueryRequest req = MakeRequest(e, threads);
    const auto snap = service.CurrentSnapshot();
    const incdb::Database& sdb = snap->db();
    const int64_t root = tracer.Begin("query", -1, request);

    incdb::RAExprPtr plan;
    incdb::SqlQuery sql;
    if (e.kind == "sql") {
      span = tracer.Begin("sql.parse", root, request);
      auto parsed = incdb::ParseSql(e.text);
      m.sql_parse_us.push_back(tracer.End(span) * 1e6);
      if (parsed.ok()) sql = *std::move(parsed);
    } else {
      span = tracer.Begin("algebra.parse", root, request);
      auto parsed = incdb::ParseRA(e.text);
      m.ra_parse_us.push_back(tracer.End(span) * 1e6);
      if (parsed.ok()) plan = *parsed;
    }
    if (plan != nullptr) {
      span = tracer.Begin("algebra.optimize", root, request);
      const incdb::RAExprPtr optimized = incdb::Optimize(plan, sdb);
      m.optimize_us.push_back(tracer.End(span) * 1e6);
    }

    // The engine as the service calls it (world budget clamped to the
    // server's ceiling), for the queries the server had to evaluate: the
    // served run's plan-cache misses.
    incdb::QueryRequest engine_req = req;
    engine_req.world_options.max_worlds = std::min(
        engine_req.world_options.max_worlds, limits.max_worlds_per_query);
    incdb::Result<incdb::QueryResponse> resp =
        incdb::Status::Internal("not evaluated");
    if (!e.served_hit) {
      span = tracer.Begin("engine.run", root, request);
      resp = incdb::QueryEngine(sdb).Run(engine_req);
      m.engine_ms.push_back(tracer.End(span) * 1e3);
    }

    if (!e.served_hit && e.kind == "sql" && !IsWorldQuantified(req.notion)) {
      incdb::EvalOptions opts = engine_req.eval;
      span = tracer.Begin("sql.eval", root, request);
      switch (req.notion) {
        case incdb::AnswerNotion::k3VL:
          (void)incdb::EvalSql(sql, sdb, incdb::SqlEvalMode::kSql3VL, opts);
          break;
        case incdb::AnswerNotion::kMaybe:
          (void)incdb::EvalSql(sql, sdb, incdb::SqlEvalMode::kSqlMaybe,
                               opts);
          break;
        case incdb::AnswerNotion::kCertainNaive:
          (void)incdb::EvalSqlCertain(sql, sdb, false, opts);
          break;
        default:
          (void)incdb::EvalSql(sql, sdb, incdb::SqlEvalMode::kNaive, opts);
          break;
      }
      m.sql_eval_ms.push_back(tracer.End(span) * 1e3);
    }

    span = tracer.Begin("service.run", root, request);
    auto served = service.Run(req);
    const double run_s = tracer.End(span);
    if (served.ok() && served->cache_hit) {
      m.hit_us.push_back(run_s * 1e6);
    } else if (served.ok()) {
      span = tracer.Begin("service.hit", root, request);
      auto again = service.Run(req);
      const double hit_s = tracer.End(span);
      if (again.ok() && again->cache_hit) m.hit_us.push_back(hit_s * 1e6);
    }
    m.traced_s += tracer.End(root);

    const std::string where = e.notion + "/" + e.backend + " " + e.kind +
                              " " + e.text + " at version " +
                              std::to_string(e.version);
    if (!served.ok()) {
      mismatches.push_back(where + ": " + served.status().ToString());
      continue;
    }
    if (served->snapshot_version != e.version) {
      mismatches.push_back(where + ": replay at version " +
                           std::to_string(served->snapshot_version));
    }
    if (served->response.relation.size() != e.served_rows) {
      mismatches.push_back(
          where + ": served " + std::to_string(e.served_rows) +
          " rows, replay " +
          std::to_string(served->response.relation.size()));
    }
    if (e.served_hit) continue;
    if (!resp.ok()) {
      mismatches.push_back(where + ": " + resp.status().ToString());
      continue;
    }
    const size_t rows = resp->relation.size();
    if (rows != e.served_rows) {
      mismatches.push_back(where + ": served " +
                           std::to_string(e.served_rows) +
                           " rows, engine replay " + std::to_string(rows));
    }

    const incdb::EvalStats& st = resp->stats;
    ++m.queries;
    m.tuples_in += static_cast<double>(st.TotalTuplesIn());
    m.rows_out += static_cast<double>(rows);
    m.vectorized += static_cast<double>(st.rows_vectorized());
    m.batches += static_cast<double>(st.batches_processed());
    m.subplan_hits += static_cast<double>(st.cache_hits());
    m.delta_applied += static_cast<double>(st.delta_applied());
    m.delta_fallbacks += static_cast<double>(st.delta_fallbacks());
    if (IsWorldQuantified(req.notion)) {
      if (req.backend == incdb::Backend::kEnumeration) {
        ++m.enum_queries;
        m.world_space += static_cast<double>(
            incdb::CountWorldsCwa(sdb, engine_req.world_options));
      } else {
        const incdb::OpCounters& x =
            st.at(incdb::EvalOp::kCTableExtract);
        ++m.ct_queries;
        m.ct_rows += static_cast<double>(x.tuples_in);
        m.ct_sat += static_cast<double>(x.probes);
        m.ct_simplified += static_cast<double>(st.cond_simplified());
        m.ct_pruned += static_cast<double>(st.unsat_pruned());
      }
    }
    if (req.notion == incdb::AnswerNotion::kCertainWithProbability) {
      ++m.prob_queries;
      m.counted += static_cast<double>(st.worlds_counted());
      m.sampled += static_cast<double>(st.samples_drawn());
      m.exact_hits += static_cast<double>(st.exact_count_hits());
      m.prob_rows += static_cast<double>(resp->probabilities.size());
    }
  }

  // Tracing overhead: what recording this many spans costs, as a share of
  // the traced calls' own time.
  double span_s = 0;
  {
    constexpr int kCalibration = 100'000;
    Tracer scratch;
    const auto start = Clock::now();
    for (int i = 0; i < kCalibration; ++i) {
      scratch.End(scratch.Begin("calibration", -1, i));
    }
    span_s = Seconds(start) / kCalibration;
  }
  const double overhead_pct =
      Ratio(span_s * static_cast<double>(tracer.size()), m.traced_s) * 100.0;

  if (!spans_file.empty() && !tracer.Write(spans_file)) {
    std::fprintf(stderr, "cannot write %s\n", spans_file.c_str());
    return 2;
  }

  const double q = static_cast<double>(m.queries);
  const double ct = static_cast<double>(m.ct_queries);
  const double pq = static_cast<double>(m.prob_queries);
  const std::vector<std::pair<std::string, std::pair<double, const char*>>>
      metrics = {
          {"io.load_s", {m.load_s, "s"}},
          {"snapshot.publish_ms", {Median(m.publish_ms), "ms"}},
          {"snapshot.rows_reforced",
           {Ratio(m.rows_reforced, static_cast<double>(m.writes)), "count"}},
          {"service.hit_us", {Median(m.hit_us), "us"}},
          {"sql.parse_us", {Median(m.sql_parse_us), "us"}},
          {"sql.eval_ms", {Median(m.sql_eval_ms), "ms"}},
          {"algebra.parse_us", {Median(m.ra_parse_us), "us"}},
          {"algebra.optimize_us", {Median(m.optimize_us), "us"}},
          {"engine.run_ms", {Median(m.engine_ms), "ms"}},
          {"engine.rows_examined_per_row_returned",
           {Ratio(m.tuples_in, m.rows_out), "ratio"}},
          {"engine.rows_vectorized", {Ratio(m.vectorized, q), "count"}},
          {"engine.batches", {Ratio(m.batches, q), "count"}},
          {"engine.subplan_cache_hits", {Ratio(m.subplan_hits, q), "count"}},
          {"engine.delta_applied", {Ratio(m.delta_applied, q), "count"}},
          {"engine.delta_fallbacks", {Ratio(m.delta_fallbacks, q), "count"}},
          {"worlds.space_per_query",
           {Ratio(m.world_space, static_cast<double>(m.enum_queries)),
            "count"}},
          {"ctables.rows", {Ratio(m.ct_rows, ct), "count"}},
          {"ctables.sat_checks", {Ratio(m.ct_sat, ct), "count"}},
          {"ctables.cond_simplified", {Ratio(m.ct_simplified, ct), "count"}},
          {"ctables.unsat_pruned", {Ratio(m.ct_pruned, ct), "count"}},
          {"counting.worlds_counted", {Ratio(m.counted, pq), "count"}},
          {"counting.samples_drawn", {Ratio(m.sampled, pq), "count"}},
          {"counting.exact_share", {Ratio(m.exact_hits, m.prob_rows), "ratio"}},
          {"trace.overhead_pct", {overhead_pct, "%"}},
      };
  std::printf("{\"queries\": %zu, \"spans\": %zu, \"metrics\": {",
              m.queries, tracer.size());
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": [%.17g, \"%s\"]", i == 0 ? "" : ", ",
                metrics[i].first.c_str(), metrics[i].second.first,
                metrics[i].second.second);
  }
  std::printf("}, \"row_mismatches\": [");
  for (size_t i = 0; i < mismatches.size() && i < 20; ++i) {
    std::string s = mismatches[i];
    for (char& c : s) {
      if (c == '"' || c == '\\') c = '\'';
    }
    std::printf("%s\"%s\"", i == 0 ? "" : ", ", s.c_str());
  }
  std::printf("]}\n");
  return 0;
}
