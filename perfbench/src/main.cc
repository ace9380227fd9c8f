// perfbench: the end-to-end daisyd benchmark. See perfbench/README.md.
//
//   perfbench --workload explore_cold|warm_serving|ingest_mixed --seed N
//             --seconds S --trace 0|1 --daisyd PATH [--work DIR]
//             [--commit ID]
//   perfbench --selftest
//
// --trace 0 boots daisyd once per round and prints the end-to-end metrics;
// --trace 1 replays the workload in-process untraced and traced, plus one
// daisyd round for the server-side view, and prints the per-layer metrics.
// The last stdout line is the JSON result. Exits 1 on a correctness
// mismatch or a failed operation, 2 on bad arguments.

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "loadgen.h"
#include "runner.h"
#include "selftest.h"
#include "stats.h"
#include "system.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using daisy::Result;
using daisy::Status;

constexpr size_t kDaisydWorkers = 4;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string daisyd;
  std::string work = ".bench_work";
  std::string commit = "unknown";
  bool selftest = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    if (f == "--selftest") {
      a->selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (f == "--workload") a->workload = v;
    else if (f == "--seed") a->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (f == "--seconds") a->seconds = std::strtod(v.c_str(), nullptr);
    else if (f == "--trace") a->trace = std::atoi(v.c_str());
    else if (f == "--daisyd") a->daisyd = v;
    else if (f == "--work") a->work = v;
    else if (f == "--commit") a->commit = v;
    else return false;
  }
  return a->selftest || (!a->workload.empty() && !a->daisyd.empty() &&
                         a->seconds > 0 && (a->trace == 0 || a->trace == 1));
}

double Median(const std::vector<double>& v) { return Percentile(v, 50); }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Everything one invocation measured and checked.
struct Report {
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< printed as `# ...` lines
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Note(const std::string& n) { notes.push_back(n); }
  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < 10) errors.push_back(what);
  }
  void Count(const RoundRecord& r) {
    attempted += r.attempted;
    failed += r.failed;
    for (const std::string& e : r.errors) {
      if (errors.size() < 10) errors.push_back(e);
    }
  }
};

std::string Fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

/// A number with all its digits (the shortest text that reads back as the
/// same double).
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

// ----------------------------------------------------------- correctness --

/// explore_cold: same sequence, same answers, same repair counts as the
/// in-process reference. warm_serving: read path, same answers.
void CheckAgainstReference(const WorkloadSpec& spec, const RoundRecord& ref,
                           const RoundRecord& got, Report* report) {
  if (spec.appends > 0) return;  // ingest_mixed is checked by VerifyAcked
  if (got.outcomes.size() != ref.outcomes.size()) {
    report->Fail("connection count differs from the reference");
    return;
  }
  for (size_t c = 0; c < got.outcomes.size(); ++c) {
    if (got.outcomes[c].size() != ref.outcomes[c].size()) {
      report->Fail("conn " + std::to_string(c) + ": " +
                   std::to_string(got.outcomes[c].size()) + " answers, " +
                   std::to_string(ref.outcomes[c].size()) + " in reference");
      continue;
    }
    for (size_t i = 0; i < got.outcomes[c].size(); ++i) {
      const QueryOutcome& g = got.outcomes[c][i];
      const QueryOutcome& r = ref.outcomes[c][i];
      const std::string at =
          "conn " + std::to_string(c) + " query " + std::to_string(i) + ": ";
      if (g.rows != r.rows || g.checksum != r.checksum) {
        report->Fail(at + "answer differs from the reference (" +
                     std::to_string(g.rows) + " vs " + std::to_string(r.rows) +
                     " rows)");
      } else if (spec.clean_at_setup && !g.read_path) {
        report->Fail(at + "left the read path after CleanAll");
      } else if (!spec.clean_at_setup && g.errors_fixed != r.errors_fixed) {
        report->Fail(at + "errors_fixed " + std::to_string(g.errors_fixed) +
                     " vs reference " + std::to_string(r.errors_fixed));
      }
    }
  }
}

// ------------------------------------------------------------------ rounds --

/// Set-up shared by both systems: CleanAll for warm_serving, the "before"
/// scrape, and the workload's connections.
struct Prepared {
  std::string before;
  std::vector<std::unique_ptr<Conn>> conns;
};

Result<Prepared> Prepare(System* system, const WorkloadSpec& spec) {
  if (spec.clean_at_setup) {
    DAISY_ASSIGN_OR_RETURN(std::unique_ptr<Conn> c, system->Connect());
    DAISY_RETURN_IF_ERROR(c->CleanAll());
  }
  Prepared p;
  // Scrape before connecting: daisyd serves one connection per worker, and
  // warm_serving's four connections would leave none for the scrape.
  DAISY_ASSIGN_OR_RETURN(p.before, system->Scrape());
  DAISY_ASSIGN_OR_RETURN(p.conns, OpenConnections(system, spec));
  return p;
}

/// The "after" page. A server worker records a request's latency only
/// after its reply is sent, so the page is retaken (briefly) until it
/// holds one Query/Append/Checkpoint observation per attempted op.
Result<PromPage> ScrapeAfter(System* system, const PromPage& before,
                             uint64_t attempted) {
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  for (;;) {
    DAISY_ASSIGN_OR_RETURN(std::string text, system->Scrape());
    PromPage after = ParsePrometheus(text);
    double observed = 0;
    for (const char* type : {"Query", "Append", "Checkpoint"}) {
      observed += SampleDelta(
          before, after,
          std::string("daisy_server_request_latency_us_count{type=\"") + type +
              "\"}");
    }
    if (observed >= static_cast<double>(attempted) || Clock::now() > deadline) {
      return after;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

struct DaisydRound {
  RoundRecord rec;
  double setup_s = 0;
  double peak_rss_mb = 0;
  PromPage before, after;
};

/// One measured round against a freshly booted daisyd.
Result<DaisydRound> RunDaisydRound(const Args& args, const WorkloadSpec& spec,
                                   const Inputs& inputs, const std::string& dir) {
  DaisydRound out;
  const auto spawn = Clock::now();
  DAISY_ASSIGN_OR_RETURN(std::unique_ptr<Daisyd> d,
                         Daisyd::Start(args.daisyd, inputs, dir, kDaisydWorkers));
  DAISY_ASSIGN_OR_RETURN(Prepared p, Prepare(d.get(), spec));
  out.setup_s = MicrosSince(spawn) / 1e6;
  out.rec = RunRound(spec, inputs, &p.conns);
  p.conns.clear();
  out.before = ParsePrometheus(p.before);
  DAISY_ASSIGN_OR_RETURN(out.after, ScrapeAfter(d.get(), out.before,
                                                out.rec.attempted));
  if (spec.appends > 0) {
    DAISY_ASSIGN_OR_RETURN(std::unique_ptr<Conn> c, d->Connect());
    ++out.rec.attempted;
    if (Status st = VerifyAcked(c.get(), out.rec.acked_ids); !st.ok()) {
      out.rec.Fail(st.ToString());
    }
  }
  out.peak_rss_mb = d->PeakRssMb();
  if (!d->Stop()) out.rec.Fail("daisyd did not exit cleanly on SIGTERM");
  return out;
}

struct LocalRound {
  RoundRecord rec;
  Trace trace;
};

Result<LocalRound> RunLocalRound(const WorkloadSpec& spec, const Inputs& inputs,
                                 const std::string& dir, bool traced) {
  DAISY_ASSIGN_OR_RETURN(std::unique_ptr<LocalEngine> engine,
                         LocalEngine::Start(inputs, dir, traced));
  DAISY_ASSIGN_OR_RETURN(Prepared p, Prepare(engine.get(), spec));
  LocalRound out;
  out.rec = RunRound(spec, inputs, &p.conns);
  p.conns.clear();  // merges the connections' spans
  if (spec.appends > 0 && !traced) {
    DAISY_ASSIGN_OR_RETURN(std::unique_ptr<Conn> c, engine->Connect());
    if (Status st = VerifyAcked(c.get(), out.rec.acked_ids); !st.ok()) {
      out.rec.Fail("in-process: " + st.ToString());
    }
  }
  out.trace = engine->trace();
  return out;
}

void AddTail(const std::string& name, const std::vector<double>& v,
             Report* report) {
  const Tail t = TailOf(v);
  report->Add(name, t.value, "ms");
  if (v.empty()) return;
  report->Note(name + " is p" + Fmt("%g", t.percentile) + " of " +
               std::to_string(t.samples) + " samples (" +
               std::to_string(t.beyond) + " beyond it)");
}

/// The run's daisyd rounds, each checked against the in-process reference.
/// --seconds sets their number, the same in both modes.
Result<std::vector<DaisydRound>> RunDaisydRounds(const Args& args,
                                                 const WorkloadSpec& spec,
                                                 const Inputs& inputs,
                                                 const std::string& dir,
                                                 const RoundRecord& ref,
                                                 Report* report) {
  const size_t rounds = static_cast<size_t>(
      std::max(1.0, std::round(args.seconds / spec.nominal_round_s)));
  std::vector<DaisydRound> out;
  for (size_t r = 0; r < rounds; ++r) {
    const std::string round_dir = dir + "/daisyd" + std::to_string(r);
    // ingest_mixed's latencies depend more on its data than on the machine,
    // so each of its rounds draws its own tables and append stream from the
    // seed. The other workloads repeat one dataset, which the in-process
    // reference answers once.
    Inputs own;
    const Inputs* round_inputs = &inputs;
    if (spec.appends > 0 && r > 0) {
      std::error_code ec;
      std::filesystem::create_directories(round_dir, ec);
      DAISY_ASSIGN_OR_RETURN(
          own, MakeInputs(spec, DeriveSeed(args.seed, "round" + std::to_string(r)),
                          round_dir));
      round_inputs = &own;
    }
    DAISY_ASSIGN_OR_RETURN(
        DaisydRound round,
        RunDaisydRound(args, spec, *round_inputs, round_dir));
    report->Count(round.rec);
    CheckAgainstReference(spec, ref, round.rec, report);
    out.push_back(std::move(round));
  }
  return out;
}

// ---------------------------------------------------------------- modes --

Status RunEndToEnd(const Args& args, const WorkloadSpec& spec,
                   const Inputs& inputs, const std::string& dir,
                   Report* report) {
  RoundRecord ref;
  if (spec.appends == 0) {
    DAISY_ASSIGN_OR_RETURN(LocalRound local,
                           RunLocalRound(spec, inputs, dir + "/ref", false));
    ref = std::move(local.rec);
    report->Count(ref);
  }
  DAISY_ASSIGN_OR_RETURN(std::vector<DaisydRound> rounds,
                         RunDaisydRounds(args, spec, inputs, dir, ref, report));
  std::vector<double> setup, workload, rss, query_ms;
  double query_time_s = 0;
  size_t queries = 0;
  for (const DaisydRound& round : rounds) {
    setup.push_back(round.setup_s);
    workload.push_back(round.rec.workload_s);
    rss.push_back(round.peak_rss_mb);
    query_ms.insert(query_ms.end(), round.rec.query_ms.begin(),
                    round.rec.query_ms.end());
    queries += round.rec.query_ms.size();
    query_time_s += round.rec.workload_s;
  }
  std::string per_round;
  for (double w : workload) per_round += " " + Fmt("%.3f", w);
  report->Note("rounds=" + std::to_string(rounds.size()) +
               " (each on a freshly booted daisyd); workload_s per round:" +
               per_round);
  report->Add("setup_s", Median(setup), "s");
  report->Add("workload_s", Median(workload), "s");
  report->Add("query_p50_ms", Median(query_ms), "ms");
  AddTail("query_tail_ms", query_ms, report);
  report->Add("queries_per_s", queries / query_time_s, "1/s");
  report->Add("peak_rss_mb", Median(rss), "MiB");
  return Status::OK();
}

double RootTotalUs(const Trace& t) {
  double total = 0;
  for (const Span& s : t.spans) {
    if (s.parent < 0) total += s.end_us - s.start_us;
  }
  return total;
}

/// Durations (µs) of the spans called `name`, summed per op.
std::map<uint32_t, double> DurationsByOp(const Trace& t, const std::string& name) {
  std::map<uint32_t, double> out;
  for (const Span& s : t.spans) {
    if (s.name == name) out[s.op] += s.end_us - s.start_us;
  }
  return out;
}

std::vector<double> Values(const std::map<uint32_t, double>& m, double scale) {
  std::vector<double> v;
  for (const auto& [op, d] : m) v.push_back(d * scale);
  return v;
}

Status RunTraced(const Args& args, const WorkloadSpec& spec,
                 const Inputs& inputs, const std::string& dir,
                 Report* report) {
  DAISY_ASSIGN_OR_RETURN(LocalRound plain,
                         RunLocalRound(spec, inputs, dir + "/plain", false));
  report->Count(plain.rec);
  DAISY_ASSIGN_OR_RETURN(LocalRound traced,
                         RunLocalRound(spec, inputs, dir + "/traced", true));
  report->Count(traced.rec);
  DAISY_ASSIGN_OR_RETURN(
      std::vector<DaisydRound> rounds,
      RunDaisydRounds(args, spec, inputs, dir, plain.rec, report));
  const Trace& t = traced.trace;
  if (t.unparsed_traces > 0) {
    report->Fail(std::to_string(t.unparsed_traces) +
                 " EXPLAIN ANALYZE replies had no trace section");
  }

  // server: the daisyd rounds' registry deltas (counts are per round) and
  // their pooled client view.
  const double nrounds = static_cast<double>(rounds.size());
  auto count = [&rounds, nrounds](const std::string& name) {
    double total = 0;
    for (const DaisydRound& r : rounds) {
      total += SampleDelta(r.before, r.after, name);
    }
    return total / nrounds;
  };
  auto handled = [&rounds](const char* type) {
    HistogramDelta sum;
    for (const DaisydRound& r : rounds) {
      const HistogramDelta h = HistogramBetween(
          r.before, r.after, "daisy_server_request_latency_us",
          std::string("type=\"") + type + "\"");
      if (sum.counts.empty()) sum.bounds = h.bounds;
      sum.counts.resize(h.counts.size());
      for (size_t i = 0; i < h.counts.size(); ++i) sum.counts[i] += h.counts[i];
      sum.count += h.count;
      sum.sum += h.sum;
    }
    return sum;
  };
  RoundRecord d;
  for (DaisydRound& r : rounds) d.Absorb(std::move(r.rec));
  const HistogramDelta queries = handled("Query");
  report->Add("server.query_handle_ms_p50",
              HistogramQuantile(queries, 0.5) / 1e3, "ms");
  report->Add("server.append_handle_ms_p50",
              HistogramQuantile(handled("Append"), 0.5) / 1e3, "ms");
  // Requests are not paired across the socket, and the histogram's
  // factor-2 buckets are too coarse to subtract medians, so the overhead
  // is the exact mean: client time minus the histogram's sum.
  double client_ms = 0;
  for (double ms : d.query_ms) client_ms += ms;
  report->Add("server.overhead_ms_mean",
              queries.count > 0 ? (client_ms - queries.sum / 1e3) / queries.count
                                : 0,
              "ms");
  report->Note("server: " + JsonNumber(queries.count) + " queries handled in " +
               Fmt("%.1f", queries.sum / 1e3) + " ms; " +
               std::to_string(d.query_ms.size()) + " client queries took " +
               Fmt("%.1f", client_ms) + " ms");
  report->Add("server.rows_streamed", d.rows_streamed / nrounds, "count");
  report->Add("server.admission_rejections",
              count("daisy_server_admission_rejections_total"), "count");

  // query / plan / clean: spans of the traced in-process replay.
  const auto parse = DurationsByOp(t, "query.parse");
  const auto plan = DurationsByOp(t, "plan.plan");
  const auto engine = DurationsByOp(t, "clean.engine");
  const auto roots = DurationsByOp(t, "op.query");
  std::vector<double> plan_us;
  for (const auto& [op, us] : plan) {
    const auto p = parse.find(op);
    // Explain parses again; the two parses run at different moments, so
    // on a busy engine the difference can dip below 0.
    plan_us.push_back(std::max(0.0, us - (p == parse.end() ? 0 : p->second)));
  }
  double parse_total = 0, root_total = 0;
  for (const auto& [op, us] : parse) parse_total += us;
  for (const auto& [op, us] : roots) root_total += us;
  report->Add("query.parse_us_p50", Median(Values(parse, 1)), "us");
  report->Add("query.parse_share", root_total > 0 ? parse_total / root_total : 0,
              "fraction");
  report->Add("plan.plan_us_p50", Median(plan_us), "us");

  const std::vector<double> self = SelfTimes(t.spans);
  const std::set<std::string> layer_spans = {
      "op.query",   "op.append",    "op.checkpoint",      "query.parse",
      "plan.plan",  "clean.engine", "clean.engine_append", "persist.checkpoint"};
  std::map<std::string, double> layer_self_us;
  double engine_self_us = 0;
  double op_total = 0, op_uncovered = 0;
  for (size_t i = 0; i < t.spans.size(); ++i) {
    const Span& s = t.spans[i];
    if (s.parent < 0) {
      op_total += s.end_us - s.start_us;
      op_uncovered += self[i];
    } else if (s.name == "clean.engine") {
      engine_self_us += self[i];
    } else if (layer_spans.count(s.name) == 0) {
      layer_self_us[OperatorLayer(s.name)] += self[i];
    }
  }
  const double nq = std::max<double>(1, roots.size());
  for (const char* layer : {"plan.join", "plan.scan_filter", "plan.aggregate",
                            "plan.output", "clean.cleanop"}) {
    report->Add(std::string(layer) + "_self_ms",
                layer_self_us[layer] / 1e3 / nq, "ms");
  }
  // The engine call's time outside every plan operator: its own parse and
  // plan, locking, derived-state refresh and the WAL wait.
  report->Add("clean.engine_self_ms", engine_self_us / 1e3 / nq, "ms");
  report->Add("plan.rows_per_result",
              t.result_rows > 0 ? static_cast<double>(t.operator_rows) /
                                      static_cast<double>(t.result_rows)
                                : 0,
              "ratio");

  std::vector<double> read_ms, write_ms;
  for (const auto& [op, us] : engine) {
    const auto p = t.query_path.find(op);
    if (p == t.query_path.end()) continue;
    (p->second == 1 ? write_ms : read_ms).push_back(us / 1e3);
  }
  report->Add("clean.engine_query_ms_p50", Median(Values(engine, 1e-3)), "ms");
  report->Add("clean.read_query_ms_p50", Median(read_ms), "ms");
  report->Add("clean.writer_query_ms_p50", Median(write_ms), "ms");
  report->Add("clean.writer_queries",
              count("daisy_engine_queries_total{path=\"write\"}"), "count");
  report->Add("clean.read_path_queries",
              count("daisy_engine_queries_total{path=\"read\"}"), "count");
  // The cost model's switch, from the in-process reference's reports
  // (1-based query index; 0 = never switched).
  double switch_query = 0, tuples_scanned = 0, extra_tuples = 0;
  size_t index = 0;
  for (const auto& conn : plain.rec.outcomes) {
    for (const QueryOutcome& o : conn) {
      ++index;
      if (o.switched_to_full && switch_query == 0) switch_query = index;
      tuples_scanned += o.tuples_scanned;
      extra_tuples += o.extra_tuples;
    }
  }
  report->Add("clean.switch_query", switch_query, "index");
  report->Add("clean.engine_append_ms_p50",
              Median(Values(DurationsByOp(t, "clean.engine_append"), 1e-3)),
              "ms");

  const double detect_ops = count("daisy_engine_detect_ops_total");
  const double repairs = count("daisy_engine_repairs_total");
  report->Add("detect.ops", detect_ops, "count");
  report->Add("detect.delta_rows_checked",
              count("daisy_engine_delta_rows_checked_total"), "count");
  report->Add("repair.tuples", repairs, "count");
  report->Add("repair.per_detect_op", detect_ops > 0 ? repairs / detect_ops : 0,
              "ratio");
  report->Note("repair.per_detect_op = " + JsonNumber(repairs) + " / " +
               JsonNumber(detect_ops));
  report->Add("relax.tuples_scanned", tuples_scanned, "count");
  report->Add("relax.extra_tuples", extra_tuples, "count");

  const double records = count("daisy_persist_wal_records_total");
  const double fsyncs = count("daisy_persist_wal_fsyncs_total");
  report->Add("persist.wal_records", records, "count");
  report->Add("persist.wal_fsyncs", fsyncs, "count");
  report->Add("persist.records_per_fsync", fsyncs > 0 ? records / fsyncs : 0,
              "ratio");
  report->Add("persist.checkpoints", count("daisy_persist_checkpoints_total"),
              "count");
  const auto& cp = d.checkpoint_ms;
  report->Add("persist.checkpoint_ms_max",
              cp.empty() ? 0 : *std::max_element(cp.begin(), cp.end()), "ms");

  report->Add("append_p50_ms", Median(d.append_ms), "ms");
  AddTail("append_tail_ms", d.append_ms, report);
  report->Add("failed_frac",
              d.attempted > 0 ? static_cast<double>(d.failed) /
                                        static_cast<double>(d.attempted)
                                  : 0,
              "fraction");
  report->Add("loadgen.late_ms_max", d.late_ms_max, "ms");
  // Same ops in-process, root spans only vs every layer span.
  report->Add("trace.overhead_frac",
              RootTotalUs(traced.trace) / RootTotalUs(plain.trace) - 1,
              "fraction");
  report->Add("trace.unexplained_frac",
              op_total > 0 ? op_uncovered / op_total : 0, "fraction");
  // The bypass predictions of perfbench/README.md, stated per run.
  const double writers = count("daisy_engine_queries_total{path=\"write\"}");
  const double checkpoints = count("daisy_persist_checkpoints_total");
  bool holds = true;
  std::string prediction;
  if (spec.clean_at_setup) {
    prediction = "detect.ops = repair.tuples = persist.wal_records = "
                 "clean.writer_queries = 0";
    holds = detect_ops == 0 && repairs == 0 && records == 0 && writers == 0;
  } else if (spec.appends > 0) {
    prediction = "persist.checkpoints >= 1 and persist.wal_fsyncs > 0";
    holds = checkpoints >= 1 && fsyncs > 0;
  } else {
    prediction = "detect.ops > 0 and clean.writer_queries > 0";
    holds = detect_ops > 0 && writers > 0;
  }
  report->Note("prediction " + prediction + ": " +
               (holds ? "holds" : "DOES NOT HOLD"));
  report->Note("in-process workload_s: untraced " +
               Fmt("%.4f", plain.rec.workload_s) + ", traced " +
               Fmt("%.4f", traced.rec.workload_s));

  // Write the spans out with the result.
  std::ofstream spans(args.work + "/results/" + spec.name + "-seed" +
                      std::to_string(args.seed) + "-spans.jsonl");
  for (size_t i = 0; i < t.spans.size(); ++i) {
    const Span& s = t.spans[i];
    spans << "{\"id\":" << i << ",\"parent\":" << s.parent << ",\"op\":"
          << s.op << ",\"name\":\"";
    for (char c : s.name) spans << (c == '"' || c == '\\' ? '_' : c);
    spans << "\",\"start_us\":" << JsonNumber(s.start_us)
          << ",\"end_us\":" << JsonNumber(s.end_us)
          << ",\"self_us\":" << JsonNumber(self[i]) << "}\n";
  }
  return Status::OK();
}

std::string ResultJson(const Report& r) {
  std::ostringstream out;
  out << "{\"correct\": " << (r.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << std::max<uint64_t>(1, r.attempted)
      << ", \"failed\": " << r.failed << ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    out << (i ? ", " : "") << "\"" << r.metrics[i].name << "\": {\"value\": "
        << JsonNumber(r.metrics[i].value) << ", \"unit\": \""
        << r.metrics[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --daisyd PATH [--work DIR] [--commit ID]\n"
                 "       perfbench --selftest\n");
    return 2;
  }
  if (int failures = RunSelfTests(); failures > 0 || args.selftest) {
    std::printf("selftest: %d failed\n", failures);
    return failures > 0 ? 1 : 0;
  }
  WorkloadSpec spec;
  if (!LookupWorkload(args.workload, &spec)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  const std::string dir = args.work + "/run-" + std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  std::filesystem::create_directories(args.work + "/results", ec);
  Result<Inputs> inputs = MakeInputs(spec, args.seed, dir);
  Report report;
  Status st = inputs.status();
  if (st.ok()) {
    st = args.trace ? RunTraced(args, spec, inputs.value(), dir, &report)
                    : RunEndToEnd(args, spec, inputs.value(), dir, &report);
  }
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
    std::fprintf(stderr, "perfbench: run directory kept at %s\n", dir.c_str());
    return 1;
  }

  std::ostringstream header;
  header << "workload=" << spec.name << " seed=" << args.seed
         << " trace=" << args.trace << " nproc=" << ::sysconf(_SC_NPROCESSORS_ONLN)
         << " build=" << PERFBENCH_BUILD_TYPE << " commit=" << args.commit
         << " daisyd_workers=" << kDaisydWorkers;
  std::ostringstream sizes;
  for (const TableFile& f : inputs.value().tables) {
    sizes << f.name << "=" << f.rows << " ";
  }
  sizes << "rows";
  if (spec.appends > 0) {
    sizes << "; appends=" << spec.appends << "x" << spec.rows_per_append
          << " rows at " << spec.appends_per_s << "/s, checkpoint every "
          << spec.checkpoint_every;
  }
  std::vector<std::string> lines = {header.str(), "inputs: " + sizes.str()};
  lines.insert(lines.end(), report.notes.begin(), report.notes.end());
  for (const std::string& e : report.errors) lines.push_back("FAILED: " + e);
  for (const std::string& l : lines) std::printf("# %s\n", l.c_str());
  for (const Metric& m : report.metrics) {
    std::printf("%-32s %16s %s\n", m.name.c_str(), JsonNumber(m.value).c_str(),
                m.unit.c_str());
  }

  const std::string json = ResultJson(report);
  std::ofstream result(args.work + "/results/" + spec.name + "-seed" +
                       std::to_string(args.seed) + "-trace" +
                       std::to_string(args.trace) + ".json");
  result << "{\"notes\": [";
  for (size_t i = 0; i < lines.size(); ++i) {
    result << (i ? ", " : "") << "\"";
    for (char c : lines[i]) result << (c == '"' || c == '\\' ? '\'' : c);
    result << "\"";
  }
  result << "], \"result\": " << json << "}\n";

  std::filesystem::remove_all(dir, ec);
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return report.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
