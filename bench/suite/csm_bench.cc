// csm_bench — the repository's one benchmark: four workloads, each run in
// its own process, measured end to end (untraced) or split across layers
// (traced). README.md beside this file describes the workloads, the metric
// definitions and their bounds; BENCHMARK.json at the repository root
// lists them.
//
//   csm_bench --workload W [--seed N] [--seconds S] [--trace 0|1]
//             [--trace-out FILE] [--scratch DIR] [--ops N] [--inject-fault]
//
// One client drives the system in a closed loop: each op starts when the
// previous one has returned. Every engine runs with parallel_threads =
// min(hardware threads, 4). Ops come in rounds: a round's ops see the
// same inputs in every round (an engine workload's round is one op; the
// append workload's round restarts from the set-up table). Set-up runs
// kSetupReps times and the last repetition's inputs are used; an untimed
// warm-up round follows; then whole rounds run until --seconds have
// passed (or until --ops ops of each kind have run).
//
// Checks: op k of every round must reproduce op k of the warm-up round bit
// for bit; the warm-up output is diffed against a second engine, and the
// workload's engine configuration against the AW-RA oracle on a prefix of
// the data. A failed check or a non-OK Status counts the op as failed and
// makes the process exit 1. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics untraced, the per-layer metrics traced.
//
// The system is driven only through public entry points; all scratch
// files live under --scratch.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "data/netlog.h"
#include "data/queries.h"
#include "data/synthetic.h"
#include "exec/exec_context.h"
#include "exec/factory.h"
#include "exec/session.h"
#include "exec/sort_scan.h"
#include "model/schema.h"
#include "obs/trace.h"
#include "opt/lowering.h"
#include "storage/external_sorter.h"
#include "storage/fact_table.h"
#include "storage/table_io.h"
#include "storage/temp_file.h"
#include "testing/differential.h"
#include "workflow/workflow.h"

namespace csm {
namespace {

namespace fs = std::filesystem;

using Output = std::vector<EvalOutput>;

constexpr int kSetupReps = 5;
constexpr int kWarmupOps = 2;       // rounded up to whole rounds
constexpr int kMinOps = 3;          // per kind, even when --seconds is short
constexpr int kThreadProbeOps = 3;  // traced: ops repeated at 1 thread
constexpr int kStorageProbeReps = 3;
constexpr int kPlanProbeReps = 25;
constexpr size_t kOracleRows = 20000;
constexpr double kWallCapSeconds = 150;  // stop timing well before 180 s

/// CSM_BENCH_SCALE multiplies every data size (the smoke test runs 0.01).
double Scale() {
  const char* env = std::getenv("CSM_BENCH_SCALE");
  const double value = env != nullptr ? std::atof(env) : 1.0;
  return value > 0 ? value : 1.0;
}

size_t Rows(double base) {
  return std::max<size_t>(1, static_cast<size_t>(base * Scale()));
}

int HardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB on Linux
}

FactTable Slice(const FactTable& src, size_t begin, size_t end) {
  FactTable out(src.schema());
  out.Reserve(end - begin);
  for (size_t row = begin; row < end; ++row) {
    out.AppendRow(src.dim_row(row), src.measure_row(row));
  }
  return out;
}

/// Byte image of an output: tables in name order, rows sorted by key,
/// values as raw bit patterns. Equal images mean bit-identical results.
std::string CanonicalBytes(const Output& out) {
  std::string bytes;
  for (const EvalOutput& eval : out) {
    for (const auto& [name, table] : eval.tables) {
      bytes += name;
      bytes.push_back('\0');
      std::vector<std::string> rows(table.num_rows());
      const size_t key_bytes = table.num_dims() * sizeof(Value);
      for (size_t r = 0; r < table.num_rows(); ++r) {
        const double value = table.value(r);
        rows[r].assign(reinterpret_cast<const char*>(table.key_row(r)),
                       key_bytes);
        rows[r].append(reinterpret_cast<const char*>(&value),
                       sizeof(value));
      }
      std::sort(rows.begin(), rows.end());
      for (const std::string& row : rows) bytes += row;
    }
  }
  return bytes;
}

const MeasureTable* FindWanted(const EvalOutput& want,
                               const std::string& name) {
  return want.FindTable(name);
}
const MeasureTable* FindWanted(const std::map<std::string, MeasureTable>& want,
                               const std::string& name) {
  auto it = want.find(name);
  return it == want.end() ? nullptr : &it->second;
}

/// DiffTables over every output measure of `workflow`.
template <typename Want>
Status DiffOutput(const Workflow& workflow, const EvalOutput& got,
                  const Want& want, const std::string& what) {
  for (const MeasureDef& def : workflow.measures()) {
    if (!def.is_output) continue;
    const MeasureTable* g = got.FindTable(def.name);
    const MeasureTable* w = FindWanted(want, def.name);
    if (g == nullptr || w == nullptr) {
      return Status::Internal(what + ": measure " + def.name + " missing");
    }
    if (auto diff = testing_util::DiffTables(*g, *w)) {
      return Status::Internal(what + ": " + def.name + ": " + *diff);
    }
  }
  return Status::OK();
}

/// What one op reports besides its output.
struct OpInfo {
  size_t rows = 0;  // fact rows consumed, or rows appended
  size_t dirty_regions = 0;
  size_t patched_measures = 0;
  size_t cache_hits = 0;
  size_t cache_reads = 0;
};

/// One benchmark workload: its inputs, its op, and its output checks.
class Workload {
 public:
  Workload(std::string scratch, int threads)
      : scratch_(std::move(scratch)), threads_(threads) {}
  virtual ~Workload() = default;

  /// Builds the inputs from `seed`, replacing the previous repetition's.
  /// Returns the seconds spent in FactTable::EnsureDictEncoding.
  virtual Result<double> Setup(uint64_t seed) = 0;

  /// Ops per round; op `slot` of every round sees the same inputs.
  virtual int round_ops() const { return 1; }

  /// Untimed preparation of op `slot` of a round at `threads` executors.
  virtual Status PrepareOp(int /*slot*/, int /*threads*/) {
    return Status::OK();
  }

  /// One op; spans go to `tracer` under `parent` (null runs untraced).
  virtual Result<Output> RunOp(int threads, Tracer* tracer, SpanId parent,
                               OpInfo* info) = 0;

  /// Checks that need the inputs as they are right after warm-up op
  /// `slot` produced `out`.
  virtual Status CheckWarmupOp(int /*slot*/, const Output& /*out*/) {
    return Status::OK();
  }

  /// Checks run once timing is over; `warm` is the last warm-up output.
  virtual Status CheckAfterRun(const Output& warm) = 0;

  // --- layer probes (traced runs) ---
  /// The table the storage probes copy, sort, write and append to.
  virtual const FactTable& table() const = 0;
  /// Builds the workload's workflows through the DSL (parse probe).
  virtual Result<std::vector<Workflow>> BuildWorkflows() const = 0;
  virtual EngineKind kind() const = 0;
  virtual bool file_input() const { return false; }
  virtual size_t memory_budget() const {
    return EngineOptions{}.memory_budget_bytes;
  }
  virtual size_t append_rows() const { return table().num_rows() / 100; }

 protected:
  ExecContext Context(int threads, Tracer* tracer, SpanId parent) const {
    ExecContext ctx;
    ctx.options.parallel_threads = threads;
    ctx.options.memory_budget_bytes = memory_budget();
    ctx.options.temp_dir = scratch_;
    ctx.tracer = tracer;
    ctx.trace_parent = parent;
    return ctx;
  }

  std::string scratch_;
  int threads_;
};

/// The three workloads whose op is one engine run over a fixed table.
struct EngineSpec {
  bool netlog = false;  // data: network log (else §7.1 synthetic)
  size_t rows = 0;
  std::function<Result<Workflow>(SchemaPtr)> query;
  EngineKind kind = EngineKind::kSortScan;
  bool run_file = false;     // SortScanEngine::RunFile over a binary file
  size_t memory_budget = 0;  // 0 = EngineOptions default
  EngineKind check_kind = EngineKind::kSingleScan;
};

class EngineWorkload : public Workload {
 public:
  EngineWorkload(std::string scratch, int threads, EngineSpec spec)
      : Workload(std::move(scratch), threads),
        spec_(std::move(spec)),
        schema_(spec_.netlog ? MakeNetworkLogSchema()
                             : MakeSyntheticSchema(4, 3, 10, 1000)),
        fact_path_(scratch_ + "/facts.bin") {}

  ~EngineWorkload() override {
    if (spec_.run_file) RemoveFileIfExists(fact_path_);
  }

  Result<double> Setup(uint64_t seed) override {
    table_.reset();
    if (spec_.netlog) {
      NetLogOptions data;
      data.rows = spec_.rows;
      data.seed = seed;
      table_ = std::make_unique<FactTable>(GenerateNetLog(schema_, data));
    } else {
      SyntheticDataOptions data;
      data.rows = spec_.rows;
      data.seed = seed;
      table_ = std::make_unique<FactTable>(
          GenerateSyntheticFacts(schema_, data));
    }
    Timer dict;
    table_->EnsureDictEncoding();
    const double dict_seconds = dict.Seconds();
    if (spec_.run_file) {
      CSM_RETURN_NOT_OK(WriteFactTableBinary(*table_, fact_path_));
    }
    CSM_ASSIGN_OR_RETURN(Workflow workflow, spec_.query(schema_));
    workflow_ = std::make_unique<Workflow>(std::move(workflow));
    CSM_ASSIGN_OR_RETURN(engine_, MakeEngine(spec_.kind));
    return dict_seconds;
  }

  Result<Output> RunOp(int threads, Tracer* tracer, SpanId parent,
                       OpInfo* info) override {
    ExecContext ctx = Context(threads, tracer, parent);
    Output out;
    if (spec_.run_file) {
      // A fresh directory per op: spill files must all be gone after it.
      const std::string dir =
          scratch_ + "/op-" + std::to_string(op_dirs_++);
      fs::create_directories(dir);
      ctx.options.temp_dir = dir;
      SortScanEngine engine;
      Result<EvalOutput> result =
          engine.RunFile(*workflow_, fact_path_, ctx);
      std::error_code ec;
      const bool leftovers = !fs::is_empty(dir, ec);
      fs::remove_all(dir, ec);
      if (!result.ok()) return result.status();
      if (leftovers) {
        return Status::Internal("temp files left in the op's directory");
      }
      out.push_back(std::move(*result));
    } else {
      CSM_ASSIGN_OR_RETURN(EvalOutput result,
                           engine_->Run(*workflow_, *table_, ctx));
      out.push_back(std::move(result));
    }
    info->rows = table_->num_rows();
    return out;
  }

  Status CheckAfterRun(const Output& warm) override {
    // Second engine on the same input.
    ExecContext ctx = Context(threads_, nullptr, kNoSpan);
    ctx.options.memory_budget_bytes = EngineOptions{}.memory_budget_bytes;
    CSM_ASSIGN_OR_RETURN(std::unique_ptr<Engine> engine,
                         MakeEngine(spec_.check_kind));
    CSM_ASSIGN_OR_RETURN(EvalOutput want,
                         engine->Run(*workflow_, *table_, ctx));
    CSM_RETURN_NOT_OK(DiffOutput(
        *workflow_, warm.at(0), want,
        "vs " + std::string(EngineKindName(spec_.check_kind))));

    // The workload's own configuration against the oracle on a prefix.
    const size_t n = std::min(kOracleRows, table_->num_rows());
    FactTable prefix = Slice(*table_, 0, n);
    CSM_ASSIGN_OR_RETURN(auto reference,
                         testing_util::ComputeReference(*workflow_, prefix));
    ctx = Context(threads_, nullptr, kNoSpan);
    Result<EvalOutput> got = Status::Internal("not run");
    if (spec_.run_file) {
      // Same budget-to-data ratio as the full run, so the prefix spills
      // through the same run/merge path.
      ctx.options.memory_budget_bytes = std::max<size_t>(
          64 << 10, memory_budget() * n / table_->num_rows());
      const std::string path = scratch_ + "/oracle.bin";
      CSM_RETURN_NOT_OK(WriteFactTableBinary(prefix, path));
      SortScanEngine file_engine;
      got = file_engine.RunFile(*workflow_, path, ctx);
      RemoveFileIfExists(path);
    } else {
      got = engine_->Run(*workflow_, prefix, ctx);
    }
    CSM_RETURN_NOT_OK(got.status());
    return DiffOutput(*workflow_, *got, reference, "vs AW-RA oracle");
  }

  const FactTable& table() const override { return *table_; }
  Result<std::vector<Workflow>> BuildWorkflows() const override {
    CSM_ASSIGN_OR_RETURN(Workflow workflow, spec_.query(schema_));
    return std::vector<Workflow>{std::move(workflow)};
  }
  EngineKind kind() const override { return spec_.kind; }
  bool file_input() const override { return spec_.run_file; }
  size_t memory_budget() const override {
    return spec_.memory_budget > 0 ? spec_.memory_budget
                                   : Workload::memory_budget();
  }

 private:
  EngineSpec spec_;
  SchemaPtr schema_;
  std::string fact_path_;
  std::unique_ptr<FactTable> table_;
  std::unique_ptr<Workflow> workflow_;
  std::unique_ptr<Engine> engine_;
  uint64_t op_dirs_ = 0;
};

// The four bench/multi_query dashboard queries: all build the same hidden
// per-(hour, source) count, then ask different questions of it.
const char* const kDashboardQueries[] = {
    R"(measure Count at (t:hour, U:ip) = agg count(*) from FACT hidden;
       measure Busy at (t:hour) = agg count(M) from Count where M > 2;)",
    R"(measure Count at (t:hour, U:ip) = agg count(*) from FACT hidden;
       measure Traffic at (t:hour) = agg sum(M) from Count;)",
    R"(measure Count at (t:hour, U:ip) = agg count(*) from FACT hidden;
       measure Peak at (t:hour) = agg max(M) from Count;
       measure AvgLoad at (t:day) = agg avg(M) from Count;)",
    R"(measure Count at (t:hour, U:ip) = agg count(*) from FACT hidden;
       measure Hourly at (t:hour) = agg sum(M) from Count;
       measure Daily at (t:day) = agg sum(M) from Count;
       measure Share at (t:hour) = match Daily using parentchild agg sum(M);
       measure Frac at (t:hour) = combine(Hourly, Share)
           as Hourly / Share;)",
};

/// Writes beside reads: each op appends a batch through
/// QuerySession::AppendAndRefresh, then re-reads all four queries, which
/// the patched cache must answer. A step's cost grows with the table
/// (derived measures re-derive from every (hour, source) region), so each
/// round restarts from the set-up table: every run then measures the same
/// table sizes however many rounds fit in it.
class DashboardWorkload : public Workload {
 public:
  static constexpr int kRoundSteps = 20;

  DashboardWorkload(std::string scratch, int threads)
      : Workload(std::move(scratch), threads),
        schema_(MakeNetworkLogSchema()),
        delta_(schema_) {}

  Result<double> Setup(uint64_t seed) override {
    session_.reset();
    table_.reset();
    base_.reset();
    seed_ = seed;
    NetLogOptions data;
    data.rows = Rows(400e3);
    data.seed = seed;
    base_ = std::make_unique<FactTable>(GenerateNetLog(schema_, data));
    Timer dict;
    base_->EnsureDictEncoding();
    const double dict_seconds = dict.Seconds();
    CSM_ASSIGN_OR_RETURN(queries_, BuildWorkflows());
    CSM_RETURN_NOT_OK(Restart(threads_));
    return dict_seconds;
  }

  int round_ops() const override { return kRoundSteps; }

  Status PrepareOp(int slot, int threads) override {
    if (slot == 0 && (steps_ > 0 || session_threads_ != threads)) {
      CSM_RETURN_NOT_OK(Restart(threads));
    }
    NetLogOptions data;
    data.rows = Rows(4000);
    data.seed = seed_ * 1000003 + static_cast<uint64_t>(slot) + 1;
    data.escalation_events = 0;
    data.recon_events = 0;
    delta_ = GenerateNetLog(schema_, data);
    return Status::OK();
  }

  Result<Output> RunOp(int threads, Tracer* tracer, SpanId parent,
                       OpInfo* info) override {
    ++steps_;
    ExecContext ctx = Context(threads, tracer, parent);
    CSM_ASSIGN_OR_RETURN(SessionAppendReport append,
                         session_->AppendAndRefresh(*table_, delta_, ctx));
    for (const Workflow& query : queries_) {
      CSM_RETURN_NOT_OK(session_->Submit(query).status());
    }
    CSM_ASSIGN_OR_RETURN(Output out, session_->RunPending(*table_, ctx));
    const SessionReport read = session_->last_report();
    info->rows = append.delta_rows;
    info->dirty_regions = append.dirty_regions;
    info->patched_measures = append.patched_measures;
    info->cache_hits = read.cache_hits;
    info->cache_reads = read.queries;
    if (read.cache_hits < queries_.size()) {
      return Status::Internal("read served " +
                              std::to_string(read.cache_hits) + " of " +
                              std::to_string(queries_.size()) +
                              " queries from the cache");
    }
    return out;
  }

  /// The first and last reads of the warm-up round against fresh
  /// single-scan runs of each query over the table as it is then.
  Status CheckWarmupOp(int slot, const Output& out) override {
    if (slot != 0 && slot != kRoundSteps - 1) return Status::OK();
    CSM_ASSIGN_OR_RETURN(std::unique_ptr<Engine> engine,
                         MakeEngine(EngineKind::kSingleScan));
    for (size_t q = 0; q < queries_.size(); ++q) {
      ExecContext ctx = Context(threads_, nullptr, kNoSpan);
      CSM_ASSIGN_OR_RETURN(EvalOutput want,
                           engine->Run(queries_[q], *table_, ctx));
      CSM_RETURN_NOT_OK(DiffOutput(queries_[q], out.at(q), want,
                                   "query " + std::to_string(q) +
                                       " vs fresh single-scan run"));
    }
    return Status::OK();
  }

  /// The session on a prefix — cold over 4/5 of it, the rest appended in
  /// four batches — against the oracle over the whole prefix.
  Status CheckAfterRun(const Output& /*warm*/) override {
    const size_t n = std::min(kOracleRows, base_->num_rows());
    const size_t cold = n * 4 / 5;
    FactTable prefix = Slice(*base_, 0, n);
    CSM_ASSIGN_OR_RETURN(std::unique_ptr<QuerySession> session,
                         Open(threads_));
    FactTable table = Slice(prefix, 0, cold);
    for (const Workflow& query : queries_) {
      CSM_RETURN_NOT_OK(session->Submit(query).status());
    }
    ExecContext ctx = Context(threads_, nullptr, kNoSpan);
    CSM_RETURN_NOT_OK(session->RunPending(table, ctx).status());
    constexpr size_t kAppends = 4;
    for (size_t i = 0; i < kAppends; ++i) {
      const size_t lo = cold + (n - cold) * i / kAppends;
      const size_t hi = cold + (n - cold) * (i + 1) / kAppends;
      CSM_RETURN_NOT_OK(
          session->AppendAndRefresh(table, Slice(prefix, lo, hi), ctx)
              .status());
    }
    for (const Workflow& query : queries_) {
      CSM_RETURN_NOT_OK(session->Submit(query).status());
    }
    CSM_ASSIGN_OR_RETURN(Output out, session->RunPending(table, ctx));
    for (size_t q = 0; q < queries_.size(); ++q) {
      CSM_ASSIGN_OR_RETURN(auto reference, testing_util::ComputeReference(
                                               queries_[q], prefix));
      CSM_RETURN_NOT_OK(DiffOutput(queries_[q], out.at(q), reference,
                                   "query " + std::to_string(q) +
                                       " vs AW-RA oracle"));
    }
    return Status::OK();
  }

  const FactTable& table() const override { return *base_; }
  Result<std::vector<Workflow>> BuildWorkflows() const override {
    std::vector<Workflow> queries;
    for (const char* dsl : kDashboardQueries) {
      CSM_ASSIGN_OR_RETURN(Workflow query, Workflow::Parse(schema_, dsl));
      queries.push_back(std::move(query));
    }
    return queries;
  }
  EngineKind kind() const override { return EngineKind::kSortScan; }
  size_t append_rows() const override { return Rows(4000); }

 private:
  Result<std::unique_ptr<QuerySession>> Open(int threads) const {
    SessionOptions options;
    options.engine_options = Context(threads, nullptr, kNoSpan).options;
    options.cache_capacity = 8;
    options.delta_patching = true;
    return QuerySession::Create(EngineKind::kSortScan, options);
  }

  /// A fresh copy of the set-up table with the queries run once, cold,
  /// in a new session at `threads`.
  Status Restart(int threads) {
    session_.reset();
    table_ = std::make_unique<FactTable>(base_->Clone());
    CSM_ASSIGN_OR_RETURN(session_, Open(threads));
    for (const Workflow& query : queries_) {
      CSM_RETURN_NOT_OK(session_->Submit(query).status());
    }
    ExecContext ctx = Context(threads, nullptr, kNoSpan);
    CSM_RETURN_NOT_OK(session_->RunPending(*table_, ctx).status());
    session_threads_ = threads;
    steps_ = 0;
    return Status::OK();
  }

  SchemaPtr schema_;
  uint64_t seed_ = 0;
  std::vector<Workflow> queries_;
  std::unique_ptr<FactTable> base_;   // the set-up table
  std::unique_ptr<FactTable> table_;  // base_ plus this round's appends
  std::unique_ptr<QuerySession> session_;
  int session_threads_ = 0;
  int steps_ = 0;  // ops run since the last restart
  FactTable delta_;
};

struct WorkloadDef {
  const char* name;
  uint64_t seed;
  std::function<std::unique_ptr<Workload>(const std::string&, int)> make;
};

std::vector<WorkloadDef> Workloads() {
  auto engine = [](EngineSpec spec) {
    return [spec](const std::string& scratch, int threads) {
      return std::make_unique<EngineWorkload>(scratch, threads, spec);
    };
  };
  EngineSpec q1;
  q1.rows = Rows(1.6e6);
  q1.query = [](SchemaPtr s) { return MakeQ1ChildParent(std::move(s), 7); };
  q1.kind = EngineKind::kSortScan;
  q1.check_kind = EngineKind::kSingleScan;

  EngineSpec q2;
  q2.rows = Rows(1.6e6);
  q2.query = [](SchemaPtr s) { return MakeQ2SiblingChain(std::move(s), 7); };
  q2.kind = EngineKind::kSortScan;
  q2.run_file = true;
  // The data is 4x the budget at every scale.
  q2.memory_budget =
      std::max<size_t>(64 << 10, static_cast<size_t>((16 << 20) * Scale()));
  q2.check_kind = EngineKind::kSortScan;

  EngineSpec net;
  net.netlog = true;
  net.rows = Rows(1e6);
  net.query = [](SchemaPtr s) { return MakeCombinedNetworkQuery(std::move(s)); };
  net.kind = EngineKind::kSingleScan;
  net.check_kind = EngineKind::kSortScan;

  return {
      {"paper_q1", 1601, engine(q1)},
      {"q2_spill", 1602, engine(q2)},
      {"net_singlescan", 1603, engine(net)},
      {"dashboard_append", 1604,
       [](const std::string& scratch, int threads) {
         return std::make_unique<DashboardWorkload>(scratch, threads);
       }},
  };
}

// ---------------------------------------------------------------------------
// Measurement

/// Time of one traced op by phase, read from the spans under its op span.
/// "scan" is the work that folds input rows into measure state: the
/// engines' scan/partition spans, or delta.apply for an append.
struct Phases {
  double wall = 0;
  double sort = 0;     // sort, plan
  double scan = 0;     // scan, partition, delta.apply
  double combine = 0;  // combine
  double session = 0;  // session.append outside delta.apply, session reads
};

Phases ReadPhases(const Tracer& tracer, SpanId op, double wall) {
  Phases p;
  p.wall = wall;
  p.sort = tracer.SumDurationExclusive(op, {"sort", "plan"});
  p.scan = tracer.SumDurationExclusive(op, {"scan", "partition",
                                            "delta.apply"});
  p.combine = tracer.SumDurationExclusive(op, {"combine"});
  p.session = tracer.SumDurationExclusive(op, {"session.append", "session"}) -
              tracer.SumDurationExclusive(op, {"delta.apply"});
  return p;
}

/// Sum of counter `name` over the spans named `span_name` under `root`.
double SumSpanCounter(const Tracer& tracer, SpanId root,
                      const std::string& span_name, const std::string& name) {
  double total = 0;
  std::vector<SpanId> stack{root};
  while (!stack.empty()) {
    const SpanData span = tracer.GetSpan(stack.back());
    stack.pop_back();
    if (span.name == span_name) {
      for (const TraceMetric& m : span.counters) {
        if (m.name == name) total += m.value;
      }
    }
    stack.insert(stack.end(), span.children.begin(), span.children.end());
  }
  return total;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  size_t samples;
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string json = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  return json + "}";
}

/// The seeded fault of the negative-control test: +1 on the first value
/// of the first non-empty output table.
void InjectFault(Output* out) {
  for (EvalOutput& eval : *out) {
    for (auto& [name, table] : eval.tables) {
      if (table.num_rows() == 0) continue;
      const double v = table.value(0);
      table.set_value(0, std::isnan(v) ? 0.0 : v + 1.0);
      return;
    }
  }
}

struct Options {
  std::string workload;
  uint64_t seed = 0;
  bool seed_set = false;
  double seconds = 20;
  bool trace = false;
  std::string trace_out;
  std::string scratch = "csm_bench_scratch";
  int ops = 0;  // > 0: this many timed ops of each kind, in whole rounds
  bool inject_fault = false;
};

int Usage(const std::string& msg) {
  std::fprintf(stderr,
               "csm_bench: %s\nusage: csm_bench --workload W [--seed N] "
               "[--seconds S] [--trace 0|1] [--trace-out FILE] "
               "[--scratch DIR] [--ops N] [--inject-fault]\nworkloads:",
               msg.c_str());
  for (const WorkloadDef& def : Workloads()) {
    std::fprintf(stderr, " %s", def.name);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

class Bench {
 public:
  Bench(const Options& opts, const WorkloadDef& def)
      : opts_(opts),
        name_(def.name),
        seed_(opts.seed_set ? opts.seed : def.seed),
        threads_(std::min(HardwareThreads(), 4)),
        w_(def.make(opts.scratch, threads_)),
        round_(w_->round_ops()) {}

  int Run();

 private:
  enum class OpKind { kUntraced, kTraced, kThreadProbe };

  void Fail(const std::string& what, const Status& status) {
    std::fprintf(stderr, "csm_bench %s: %s: %s\n", name_.c_str(),
                 what.c_str(), status.ToString().c_str());
  }
  /// Runs, times and checks op `slot` of a round; a failure is counted.
  void TimedOp(OpKind kind, int slot);
  /// Whole rounds covering at least `ops` ops.
  int RoundUp(int ops) const { return (ops + round_ - 1) / round_ * round_; }
  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples) {
    metrics_.push_back({name, value, unit, samples});
  }
  void AddLayerMetrics();
  void ProbeLayers();

  const Options& opts_;
  std::string name_;
  uint64_t seed_;
  int threads_;
  std::unique_ptr<Workload> w_;
  int round_;
  Tracer tracer_;

  size_t attempted_ = 0;
  size_t failed_ = 0;
  bool correct_ = true;
  std::vector<std::string> images_;  // warm-up output per round slot

  std::vector<double> untraced_s_;
  size_t untraced_rows_ = 0;
  size_t untraced_attempted_ = 0;
  std::vector<double> traced_s_;
  size_t traced_attempted_ = 0;
  std::vector<Phases> traced_phases_;
  std::vector<SpanId> traced_spans_;
  std::vector<double> t1_s_;
  std::vector<Phases> t1_phases_;
  OpInfo session_totals_;
  size_t session_ops_ = 0;

  std::vector<double> dict_s_;
  std::vector<Metric> metrics_;
};

void Bench::TimedOp(OpKind kind, int slot) {
  const bool traced = kind != OpKind::kUntraced;
  const int threads = kind == OpKind::kThreadProbe ? 1 : threads_;
  ++attempted_;
  ++(kind == OpKind::kUntraced ? untraced_attempted_ : traced_attempted_);
  if (Status s = w_->PrepareOp(slot, threads); !s.ok()) {
    Fail("prepare op", s);
    ++failed_;
    return;
  }
  const SpanId span = traced ? tracer_.BeginSpan("bench.op") : kNoSpan;
  OpInfo info;
  Timer timer;
  Result<Output> out =
      w_->RunOp(threads, traced ? &tracer_ : nullptr, span, &info);
  const double seconds = timer.Seconds();
  if (traced) tracer_.EndSpan(span);

  Status status = out.status();
  if (status.ok()) {
    if (opts_.inject_fault && attempted_ == 1) InjectFault(&*out);
    if (CanonicalBytes(*out) != images_[slot]) {
      status = Status::Internal("output differs from the warm-up round's");
    }
  }
  if (!status.ok()) {
    Fail("op " + std::to_string(attempted_), status);
    ++failed_;
    return;
  }

  if (kind == OpKind::kThreadProbe) {
    t1_s_.push_back(seconds);
    t1_phases_.push_back(ReadPhases(tracer_, span, seconds));
  } else if (traced) {
    traced_s_.push_back(seconds);
    traced_phases_.push_back(ReadPhases(tracer_, span, seconds));
    traced_spans_.push_back(span);
    if (info.cache_reads > 0) {
      session_totals_.dirty_regions += info.dirty_regions;
      session_totals_.patched_measures += info.patched_measures;
      session_totals_.cache_hits += info.cache_hits;
      session_totals_.cache_reads += info.cache_reads;
      ++session_ops_;
    }
  } else {
    untraced_s_.push_back(seconds);
    untraced_rows_ += info.rows;
  }
}

void Bench::ProbeLayers() {
  const FactTable& table = w_->table();
  const double rows = static_cast<double>(table.num_rows());
  auto fail = [&](const char* what, const Status& s) {
    Fail(what, s);
    correct_ = false;
  };

  std::vector<double> parse_s;
  std::vector<Workflow> workflows;
  for (int i = 0; i < kPlanProbeReps; ++i) {
    Timer timer;
    Result<std::vector<Workflow>> built = w_->BuildWorkflows();
    parse_s.push_back(timer.Seconds());
    if (!built.ok()) return fail("parse probe", built.status());
    workflows = std::move(*built);
  }
  EngineOptions options;
  options.parallel_threads = threads_;
  options.memory_budget_bytes = w_->memory_budget();
  std::vector<double> lower_s;
  for (int i = 0; i < kPlanProbeReps; ++i) {
    Timer timer;
    for (const Workflow& workflow : workflows) {
      Result<PhysicalPlan> plan =
          LowerToPlan(w_->kind(), workflow, options, w_->file_input());
      if (!plan.ok()) return fail("lower probe", plan.status());
    }
    lower_s.push_back(timer.Seconds());
  }
  // The order the sort/scan engine would sort this workload's data by.
  Result<PhysicalPlan> sort_plan =
      LowerToPlan(EngineKind::kSortScan, workflows.at(0), options);
  if (!sort_plan.ok()) return fail("sort-key probe", sort_plan.status());

  std::vector<double> clone_s, sort_s, sort1_s, write_s, read_s, append_s;
  SortStats spill;
  const std::string path = opts_.scratch + "/probe.bin";
  const size_t append_rows =
      std::min(table.num_rows(), std::max<size_t>(1, w_->append_rows()));
  FactTable delta =
      Slice(table, table.num_rows() - append_rows, table.num_rows());
  for (int rep = 0; rep < kStorageProbeReps; ++rep) {
    Timer timer;
    FactTable copy = table.Clone();
    clone_s.push_back(timer.Seconds());

    for (int threads : {threads_, 1}) {
      Result<TempDir> temp = TempDir::Make(opts_.scratch);
      if (!temp.ok()) return fail("sort probe", temp.status());
      SortOptions sort_options;
      sort_options.memory_budget_bytes = w_->memory_budget();
      sort_options.temp_dir = &*temp;
      sort_options.threads = threads;
      SortStats stats;
      FactTable input = table.Clone();
      timer.Reset();
      Result<FactTable> sorted = SortFactTable(
          std::move(input), sort_plan->sort_key, sort_options, &stats);
      (threads == threads_ ? sort_s : sort1_s).push_back(timer.Seconds());
      if (!sorted.ok()) return fail("sort probe", sorted.status());
      if (threads == threads_) spill = stats;
    }

    timer.Reset();
    Status written = WriteFactTableBinary(table, path);
    write_s.push_back(timer.Seconds());
    if (!written.ok()) return fail("write probe", written);
    timer.Reset();
    Result<FactTable> read = ReadFactTableBinary(table.schema(), path);
    read_s.push_back(timer.Seconds());
    RemoveFileIfExists(path);
    if (!read.ok()) return fail("read probe", read.status());

    timer.Reset();
    Status appended = copy.AppendBatch(delta);
    append_s.push_back(timer.Seconds());
    if (!appended.ok()) return fail("append probe", appended);
  }

  const size_t n = kStorageProbeReps;
  Add("workflow.parse_s", Median(parse_s), "s", parse_s.size());
  Add("opt.lower_s", Median(lower_s), "s", lower_s.size());
  Add("storage.clone_s", Median(clone_s), "s", n);
  Add("storage.dict_build_s", Median(dict_s_), "s", dict_s_.size());
  Add("storage.sort_s", Median(sort_s), "s", n);
  Add("storage.sort_rows_per_s", rows / Median(sort_s), "rows/s", n);
  Add("storage.sort_speedup", Median(sort1_s) / Median(sort_s), "ratio", n);
  Add("storage.sort_runs", static_cast<double>(spill.runs), "count", 1);
  Add("storage.spilled_bytes", static_cast<double>(spill.spilled_bytes), "B",
      1);
  Add("storage.spill_bytes_per_input_byte",
      static_cast<double>(spill.spilled_bytes) /
          (rows * static_cast<double>(table.RowBytes())),
      "ratio", 1);
  Add("storage.write_s", Median(write_s), "s", n);
  Add("storage.read_s", Median(read_s), "s", n);
  Add("storage.append_s", Median(append_s), "s", n);
}

void Bench::AddLayerMetrics() {
  const double traced_p50 = Median(traced_s_);
  Phases total;
  std::vector<double> scan_tn, scan_t1;
  for (const Phases& p : traced_phases_) {
    total.wall += p.wall;
    total.sort += p.sort;
    total.scan += p.scan;
    total.combine += p.combine;
    total.session += p.session;
    scan_tn.push_back(p.scan);
  }
  for (const Phases& p : t1_phases_) scan_t1.push_back(p.scan);
  const size_t nt = traced_s_.size();
  const double ops = static_cast<double>(std::max<size_t>(1, nt));
  const double attributed =
      total.sort + total.scan + total.combine + total.session;
  const double share = total.wall > 0 ? 1.0 / total.wall : 0;
  auto per_op = [&](const char* counter) {
    double sum = 0;
    for (SpanId op : traced_spans_) {
      sum += SumSpanCounter(tracer_, op, "scan", counter);
    }
    return sum / ops;
  };
  double peak_entries = 0, peak_bytes = 0;
  for (SpanId op : traced_spans_) {
    peak_entries =
        std::max(peak_entries, tracer_.MaxGauge(op, "peak_hash_entries"));
    peak_bytes = std::max(peak_bytes, tracer_.MaxGauge(op, "peak_hash_bytes"));
  }
  const double batches = per_op("batches");
  const double skipped = per_op("batches_skipped");
  const double session_ops =
      static_cast<double>(std::max<size_t>(1, session_ops_));

  Add("bench.trace_overhead_frac", traced_p50 / Median(untraced_s_) - 1,
      "ratio", nt);
  Add("exec.op_s", traced_p50, "s", nt);
  Add("exec.sort_share", total.sort * share, "ratio", nt);
  Add("exec.scan_share", total.scan * share, "ratio", nt);
  Add("exec.combine_share", total.combine * share, "ratio", nt);
  Add("exec.session_share", total.session * share, "ratio", nt);
  Add("exec.unattributed_s", (total.wall - attributed) / ops, "s", nt);
  Add("exec.scan_speedup", Median(scan_t1) / Median(scan_tn), "ratio",
      t1_s_.size());
  Add("e2e_speedup", Median(t1_s_) / traced_p50, "ratio", t1_s_.size());
  Add("exec.rows_scanned", per_op("rows_scanned"), "count", nt);
  Add("exec.batches", batches, "count", nt);
  Add("exec.batches_skipped", skipped, "count", nt);
  Add("exec.batch_skip_ratio", batches > 0 ? skipped / batches : 0, "ratio",
      nt);
  Add("exec.morsels", per_op("morsels"), "count", nt);
  Add("exec.steals", per_op("steals"), "count", nt);
  Add("exec.peak_hash_entries", peak_entries, "count", nt);
  Add("exec.peak_hash_bytes", peak_bytes, "B", nt);
  Add("exec.session.dirty_regions",
      static_cast<double>(session_totals_.dirty_regions) / session_ops,
      "count", session_ops_);
  Add("exec.session.patched_measures",
      static_cast<double>(session_totals_.patched_measures) / session_ops,
      "count", session_ops_);
  Add("exec.session.cache_hit_ratio",
      session_totals_.cache_reads > 0
          ? static_cast<double>(session_totals_.cache_hits) /
                static_cast<double>(session_totals_.cache_reads)
          : 0,
      "ratio", session_ops_);
}

int Bench::Run() {
  std::printf("# csm_bench workload=%s seed=%llu threads=%d "
              "hardware_threads=%d scale=%g trace=%d\n",
              name_.c_str(), static_cast<unsigned long long>(seed_),
              threads_, HardwareThreads(), Scale(), opts_.trace ? 1 : 0);
  Timer wall;

  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    Timer timer;
    Result<double> dict = w_->Setup(seed_);
    setup_s.push_back(timer.Seconds());
    if (!dict.ok()) {
      Fail("setup", dict.status());
      return 1;
    }
    dict_s_.push_back(*dict);
  }

  // Warm-up rounds: their outputs are what every later round must match.
  images_.assign(round_, "");
  Output warm;
  for (int i = 0, n = RoundUp(kWarmupOps); i < n; ++i) {
    const int slot = i % round_;
    OpInfo info;
    Status status = w_->PrepareOp(slot, threads_);
    Result<Output> out = status.ok()
                             ? w_->RunOp(threads_, nullptr, kNoSpan, &info)
                             : Result<Output>(status);
    if (out.ok()) status = w_->CheckWarmupOp(slot, *out);
    if (!status.ok()) {
      Fail("warm-up op", status);
      return 1;
    }
    images_[slot] = CanonicalBytes(*out);
    warm = std::move(*out);
  }

  // Closed loop, one client, whole rounds. Traced runs alternate untraced
  // and traced rounds, so tracing overhead is measured under the same
  // conditions.
  const size_t min_ops = opts_.ops > 0 ? RoundUp(opts_.ops) : kMinOps;
  Timer loop;
  for (int i = 0;; ++i) {
    const int slot = i % round_;
    if (slot == 0) {
      const bool enough =
          untraced_attempted_ >= min_ops &&
          (!opts_.trace || traced_attempted_ >= min_ops);
      if (opts_.ops > 0 ? enough
                        : (enough && loop.Seconds() >= opts_.seconds) ||
                              wall.Seconds() >= kWallCapSeconds) {
        break;
      }
    }
    const bool traced = opts_.trace && (i / round_) % 2 == 1;
    TimedOp(traced ? OpKind::kTraced : OpKind::kUntraced, slot);
  }
  // Read before the checks: a second engine may need far more memory
  // than the workload itself (single-scan state on paper_q1).
  const double peak_rss_mb = PeakRssMb();
  if (Status s = w_->CheckAfterRun(warm); !s.ok()) {
    Fail("check", s);
    correct_ = false;
  }

  if (opts_.trace) {
    for (int i = 0, n = RoundUp(kThreadProbeOps); i < n; ++i) {
      TimedOp(OpKind::kThreadProbe, i % round_);
    }
    ProbeLayers();
    AddLayerMetrics();
  } else {
    double op_seconds = 0;
    for (double s : untraced_s_) op_seconds += s;
    Add("latency_p50_s", Median(untraced_s_), "s", untraced_s_.size());
    Add("rows_per_s", static_cast<double>(untraced_rows_) / op_seconds,
        "rows/s", untraced_s_.size());
    Add("setup_s", Median(setup_s), "s", setup_s.size());
    Add("peak_rss_mb", peak_rss_mb, "MB", 1);
  }

  for (const Metric& m : metrics_) {
    std::printf("%s %s %.6g %s n=%zu\n", name_.c_str(), m.name.c_str(),
                m.value, m.unit.c_str(), m.samples);
  }
  if (!opts_.trace_out.empty()) {
    std::ofstream out(opts_.trace_out);
    out << "{\"workload\": \"" << name_ << "\", \"seed\": " << seed_
        << ", \"threads\": " << threads_
        << ", \"hardware_threads\": " << HardwareThreads()
        << ", \"metrics\": " << MetricsJson(metrics_)
        << ", \"spans\": " << tracer_.ToJson() << "}\n";
    if (!out) {
      Fail("trace-out", Status::IOError("cannot write " + opts_.trace_out));
      correct_ = false;
    }
  }
  const bool ok = correct_ && failed_ == 0 && !untraced_s_.empty();
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              ok ? "true" : "false", attempted_, failed_,
              MetricsJson(metrics_).c_str());
  std::fflush(stdout);
  return ok ? 0 : 1;
}

int Main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--inject-fault") {
      opts.inject_fault = true;
      continue;
    }
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    const char* v = argv[++i];
    if (flag == "--workload") {
      opts.workload = v;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(v, nullptr, 10);
      opts.seed_set = true;
    } else if (flag == "--seconds") {
      opts.seconds = std::atof(v);
    } else if (flag == "--trace") {
      opts.trace = std::atoi(v) != 0;
    } else if (flag == "--trace-out") {
      opts.trace_out = v;
    } else if (flag == "--scratch") {
      opts.scratch = v;
    } else if (flag == "--ops") {
      opts.ops = std::atoi(v);
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  for (const WorkloadDef& def : Workloads()) {
    if (opts.workload != def.name) continue;
    std::error_code ec;
    fs::create_directories(opts.scratch, ec);
    if (ec) return Usage("cannot create " + opts.scratch);
    return Bench(opts, def).Run();
  }
  return Usage("unknown workload '" + opts.workload + "'");
}

}  // namespace
}  // namespace csm

int main(int argc, char** argv) { return csm::Main(argc, argv); }
