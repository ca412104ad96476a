// Host-cost benchmark of the Camouflage reproduction, end to end and per
// layer. Every layer is timed from outside, around calls into its public
// functions, and every counter is one the program already exposes.
//
//   perfbench --workload <syscall-mix|user-mix|attack-sweep> --seed <n>
//             --seconds <s> --trace <0|1> [--spans <path>]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// untraced and then traced for half the time each, adds the layer probes,
// prints the per-layer metrics and writes the spans to --spans. The last
// stdout line is one JSON object {correct, attempted, failed, metrics}.
// See perfbench/README.md for the metric definitions.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "analysis/verifier.h"
#include "attacks/attacks.h"
#include "compiler/instrument.h"
#include "core/bootloader.h"
#include "expected.h"
#include "isa/isa.h"
#include "kernel/image_cache.h"
#include "kernel/kernel_builder.h"
#include "kernel/machine.h"
#include "kernel/snapshot.h"
#include "kernel/workloads.h"
#include "par/pool.h"
#include "qarma/qarma64.h"
#include "stats.h"

namespace pb = perfbench;
namespace wl = camo::kernel::workloads;
using namespace camo;

namespace {

// ---- workload sizes --------------------------------------------------------

// Chosen so one cell lasts ~0.1 s: enough cells per run for steady medians
// while the run phase still dominates the cell's guest work.
constexpr uint64_t kSyscallIters = 2000;
constexpr uint64_t kResizeRows = 240;
constexpr uint64_t kBuildUnits = 160;
constexpr uint64_t kMaxSteps = 2'000'000'000;
constexpr unsigned kSweepJobs = 2;   // fixed so the host's core count cannot
                                     // change what a round measures
constexpr int kWarmups = 15;         // attack-sweep set-up repetitions
constexpr int kMinCells = 5;
constexpr int kForks = 8;            // fork-probe children
constexpr int kImageReps = 5;        // image-pipeline probe repetitions
// Percentiles of the run workloads' cell times and per-cell rates that
// their time and rate metrics report (see the workloads section below).
constexpr double kTimePct = 95;
constexpr double kRatePct = 5;

// ---- clocks ----------------------------------------------------------------

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
double wall_s() { return static_cast<double>(now_ns()) * 1e-9; }
double thread_cpu_s() {
  timespec t{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}

/// One traced call. A null log records nothing, so untraced runs pay a
/// branch per call.
class Scope {
 public:
  Scope(pb::SpanLog* log, const char* name, uint64_t cell, int parent)
      : log_(log), id_(log ? log->open(name, cell, parent, now_ns()) : -1) {}
  ~Scope() {
    if (log_) log_->close(id_, now_ns());
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  pb::SpanLog* log_;
  int id_;
};

volatile uint64_t g_sink = 0;  // keeps probe loops from being folded away

// ---- output ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    if (!pb::valid_metric_name(name) || !pb::valid_unit(unit)) {
      std::fprintf(stderr, "perfbench: bad metric name/unit %s [%s]\n",
                   name.c_str(), unit.c_str());
      std::exit(2);
    }
    metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

std::string json_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string loadavg() {
  std::ifstream f("/proc/loadavg");
  double a = 0, b = 0, c = 0;
  f >> a >> b >> c;
  return "[" + json_num(a) + "," + json_num(b) + "," + json_num(c) + "]";
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;
}

double median_span_s(const std::vector<pb::Span>& spans,
                     const std::vector<int64_t>& self, const char* name) {
  std::vector<double> v;
  for (size_t i = 0; i < spans.size(); ++i)
    if (std::string_view(spans[i].name) == name)
      v.push_back(static_cast<double>(self[i]) * 1e-9);
  return pb::median(v);
}

void write_spans(const std::string& path, const std::vector<pb::Span>& spans,
                 const std::vector<int64_t>& self) {
  if (path.empty()) return;
  std::ofstream f(path);
  f << "{\"spans\":[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const pb::Span& s = spans[i];
    f << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":\"" << s.name
      << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
      << ",\"parent\":" << s.parent << ",\"cell\":" << s.cell
      << ",\"self_ns\":" << self[i] << "}";
  }
  f << "\n]}\n";
  if (!f) std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
}

// ---- machines --------------------------------------------------------------

kernel::MachineConfig run_config(uint64_t seed, bool obs) {
  kernel::MachineConfig cfg;
  cfg.kernel.protection = compiler::ProtectionConfig::full();
  cfg.kernel.log_pac_failures = false;
  cfg.obs.enabled = obs;
  cfg.seed = seed;
  return cfg;
}

/// The configuration attacks:: gives its machines under full protection.
kernel::MachineConfig attack_config(uint64_t seed) {
  kernel::MachineConfig cfg = run_config(seed, true);
  cfg.kernel.pac_failure_threshold = 8;
  return cfg;
}

std::vector<obj::Program> syscall_mix_programs() {
  std::vector<obj::Program> v;
  v.push_back(wl::read_file(kSyscallIters, 64, kernel::FileKind::Null));
  v.push_back(wl::write_file(kSyscallIters, 64, kernel::FileKind::Null));
  v.push_back(wl::open_close(kSyscallIters / 2));
  v.push_back(wl::stat_file(kSyscallIters));
  v.push_back(wl::yield_loop(kSyscallIters / 2));
  v.push_back(wl::yield_loop(kSyscallIters / 2));
  v.push_back(wl::call_hook(kSyscallIters));
  v.push_back(wl::queue_work(kSyscallIters));
  return v;
}

std::vector<obj::Program> user_mix_programs() {
  std::vector<obj::Program> v;
  v.push_back(wl::image_resize(kResizeRows));
  v.push_back(wl::package_build(kBuildUnits));
  return v;
}

std::vector<obj::Program> probe_programs() {
  std::vector<obj::Program> v;
  v.push_back(wl::null_syscall(16));
  return v;
}

struct RunWorkload {
  std::vector<obj::Program> (*programs)();
  pb::RunExpect expect;
};

/// Host-side counters of core 0 after a cell's run (deterministic for a
/// fixed engine configuration).
struct Counters {
  uint64_t retired = 0, sim_cycles = 0;
  cpu::Cpu::FastPathStats fp;
  uint64_t sb_blocks = 0, sb_served = 0;  // served: cache + chain hits
  uint64_t traces_formed = 0, trace_hits = 0, trace_guard_exits = 0;
  cpu::PauthUnit::PacCacheStats pac;
  mem::Mmu::TlbStats tlb;
};

struct CellTimes {
  double setup_s = 0, run_s = 0, cell_s = 0;
  uint64_t retired = 0;
};

/// One cell: construct -> boot -> run -> read-out -> destroy, on this
/// thread's CPU clock. Inputs are generated before the clock starts.
CellTimes run_cell(const RunWorkload& w, uint64_t seed, bool obs,
                   pb::Tally& tally, pb::SpanLog* log, uint64_t cell,
                   Counters* counters) {
  std::vector<obj::Program> progs = w.programs();
  CellTimes t;
  const double c0 = thread_cpu_s();
  Scope cs(log, "cell", cell, -1);
  std::unique_ptr<kernel::Machine> m;
  {
    Scope s(log, "kernel.construct", cell, cs.id());
    m = std::make_unique<kernel::Machine>(run_config(seed, obs));
  }
  for (auto& p : progs) m->add_user_program(std::move(p));
  {
    Scope s(log, "kernel.boot", cell, cs.id());
    m->boot();
  }
  const double c1 = thread_cpu_s();
  {
    Scope s(log, "kernel.run", cell, cs.id());
    m->run(kMaxSteps);
  }
  const double c2 = thread_cpu_s();
  pb::RunExpect got;
  {
    Scope s(log, "cell.readout", cell, cs.id());
    got = {m->halted() ? m->halt_code() : ~uint64_t{0}, m->cpu().cycles(),
           m->total_retired()};
    if (counters) {
      const cpu::Cpu& c = m->cpu();
      const cpu::SuperblockStats& sb = c.superblock_stats();
      *counters = {got.retired,
                   got.sim_cycles,
                   c.fast_path_stats(),
                   sb.blocks,
                   sb.hits + sb.chain_hits,
                   sb.traces_formed,
                   sb.trace_hits,
                   sb.trace_guard_exits,
                   c.pauth().pac_cache_stats(),
                   m->mmu().tlb_stats()};
    }
  }
  const bool ok = pb::run_matches(w.expect, got);
  tally.record(ok);
  if (!ok)
    std::fprintf(stderr,
                 "perfbench: cell %" PRIu64 " mismatch: halt 0x%" PRIx64
                 " cycles %" PRIu64 " retired %" PRIu64 " (want 0x%" PRIx64
                 " %" PRIu64 " %" PRIu64 ")\n",
                 cell, got.halt_code, got.sim_cycles, got.retired,
                 w.expect.halt_code, w.expect.sim_cycles, w.expect.retired);
  {
    Scope s(log, "kernel.teardown", cell, cs.id());
    m.reset();
  }
  const double c3 = thread_cpu_s();
  t.setup_s = c1 - c0;
  t.run_s = c2 - c1;
  t.cell_s = c3 - c0;
  t.retired = got.retired;
  return t;
}

struct RunPhase {
  std::vector<double> setup_s, cell_s, cell_ms, mips;
  Counters last;
};

RunPhase measure_cells(const RunWorkload& w, uint64_t seed, double seconds,
                       pb::Tally& tally, pb::SpanLog* log,
                       uint64_t& next_cell) {
  RunPhase p;
  const double deadline = wall_s() + seconds;
  while (wall_s() < deadline || p.cell_s.size() < kMinCells) {
    const CellTimes t =
        run_cell(w, seed, false, tally, log, next_cell++, &p.last);
    p.setup_s.push_back(t.setup_s);
    p.cell_s.push_back(t.cell_s);
    p.cell_ms.push_back(t.cell_s * 1e3);
    p.mips.push_back(static_cast<double>(t.retired) / (t.run_s * 1e6));
  }
  return p;
}

// ---- attack sweep ----------------------------------------------------------

constexpr size_t kScenarioCount = std::size(pb::kScenarios);

struct Sample {
  size_t scenario;
  double ms;
  attacks::Outcome outcome;
};

/// One round: every scenario once, sharded on the pool, in `order`.
/// Returns the round's wall time; appends one sample per scenario.
double run_round(par::Pool& pool, const std::vector<size_t>& order,
                 pb::Tally& tally, pb::SpanLog* log, uint64_t cell,
                 std::vector<Sample>* samples) {
  std::vector<Sample> out(order.size());
  const double w0 = wall_s();
  {
    Scope round(log, "cell", cell, -1);
    const int parent = round.id();
    pool.for_each_index(order.size(), [&](size_t i) {
      const pb::ScenarioExpect& e = pb::kScenarios[order[i]];
      const int64_t t0 = now_ns();
      std::optional<attacks::AttackReport> r;
      {
        Scope s(log, "attacks.run_named_attack", cell, parent);
        r = attacks::run_named_attack(e.attack, e.config);
      }
      const double ms = static_cast<double>(now_ns() - t0) * 1e-6;
      const bool ok = pb::scenario_matches(e, r, false);
      tally.record(ok);
      if (!ok)
        std::fprintf(stderr, "perfbench: %s/%s verdict %s, want %s\n",
                     e.attack, e.config,
                     r ? attacks::outcome_name(r->outcome) : "none",
                     attacks::outcome_name(e.outcome));
      out[i] = {order[i], ms, r ? r->outcome : attacks::Outcome::Blocked};
    });
  }
  const double wall = wall_s() - w0;
  if (samples) samples->insert(samples->end(), out.begin(), out.end());
  return wall;
}

/// Drops the attack machines' shared image and snapshot caches and hands
/// the freed pages back to the kernel, so the next round starts cold and
/// peak RSS does not depend on how earlier rounds fragmented the heap.
void reset_caches() {
  attacks::reset_snapshot_stats();
  malloc_trim(0);
}

/// Checks every scenario's retired-instruction count through the coverage
/// map's retire counters (the only public view of an attack machine's
/// instruction count). Runs serially, untimed, before any round.
void calibrate_attacks(pb::Tally& tally) {
  attacks::collect_coverage() = true;
  for (const pb::ScenarioExpect& e : pb::kScenarios) {
    const auto r = attacks::run_named_attack(e.attack, e.config);
    const uint64_t got = r && r->coverage ? r->coverage->retired_total() : 0;
    const bool ok = pb::scenario_matches(e, r, true);
    tally.record(ok);
    if (!ok)
      std::fprintf(stderr,
                   "perfbench: %s/%s calibration: retired %" PRIu64
                   " (want %" PRIu64 "), verdict %s\n",
                   e.attack, e.config, got, e.retired,
                   r ? attacks::outcome_name(r->outcome) : "none");
  }
  attacks::collect_coverage() = false;
  reset_caches();
}

struct SweepPhase {
  std::vector<double> round_s;
  std::vector<Sample> samples;
  double wall_total_s = 0;
};

SweepPhase measure_rounds(par::Pool& pool, std::mt19937_64& rng,
                          double seconds, pb::Tally& tally, pb::SpanLog* log,
                          uint64_t& next_cell) {
  SweepPhase p;
  std::vector<size_t> order(kScenarioCount);
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  const double deadline = wall_s() + seconds;
  while (wall_s() < deadline || p.round_s.size() < kMinCells) {
    std::shuffle(order.begin(), order.end(), rng);
    const double w = run_round(pool, order, tally, log, next_cell++, &p.samples);
    p.round_s.push_back(w);
    p.wall_total_s += w;
  }
  return p;
}

uint64_t round_retired() {
  uint64_t n = 0;
  for (const pb::ScenarioExpect& e : pb::kScenarios) n += e.retired;
  return n;
}

// ---- layer probes (traced runs only) --------------------------------------

/// Boot-pipeline layers timed one by one through their public entry points,
/// on the kernel configuration the workload boots.
void image_probe(const kernel::MachineConfig& cfg, size_t tasks,
                 pb::Tally& tally, pb::SpanLog* log, uint64_t cell) {
  for (int rep = 0; rep < kImageReps; ++rep) {
    Scope p(log, "probe.image", cell, -1);
    kernel::KernelBuilder kb(cfg.kernel);
    for (size_t i = 0; i < tasks; ++i) {
      kernel::TaskSpec t;
      t.user_pc = kernel::kUserBase;
      t.user_sp = kernel::kUserStackTop;
      t.space_id = i + 1;
      kb.add_task(t);
    }
    obj::Program prog;
    {
      Scope s(log, "kernel.image_build", cell, p.id());
      prog = kb.build();
    }
    obj::Program copy = prog;
    {
      Scope s(log, "compiler.instrument", cell, p.id());
      compiler::instrument(copy, cfg.kernel.protection);
    }
    core::BootConfig bc;
    bc.seed = cfg.seed;
    bc.protection = cfg.kernel.protection;
    bc.entry_symbol = "early_boot";
    bc.key_write_symbols = kernel::KernelBuilder::key_write_symbols();
    core::PreparedKernel pk;
    {
      Scope s(log, "core.prepare", cell, p.id());
      pk = core::Bootloader::prepare(std::move(prog), bc, kernel::kKernelBase);
    }
    analysis::Verifier v;
    for (const auto& r : pk.key_write_ranges) v.allow_key_writes(r.va, r.len);
    for (const auto& r : pk.sctlr_write_ranges)
      v.allow_sctlr_writes(r.va, r.len);
    analysis::VerifyResult vr;
    {
      Scope s(log, "analysis.verify", cell, p.id());
      vr = v.verify_image(pk.image);
    }
    tally.record(vr.ok() && pk.verify.ok() &&
                 vr.words_scanned == pk.verify.words_scanned);
  }
}

struct ForkCounts {
  uint64_t template_boots = 0, forks = 0, cow_pages = 0;
};

/// Template boot plus kForks forked children through a private snapshot
/// cache. With `lifecycle` the children's construct/teardown are recorded
/// as kernel.construct/kernel.teardown (attack-sweep, whose own machines
/// live inside run_named_attack) and the template boot as kernel.boot.
ForkCounts fork_probe(kernel::MachineConfig cfg,
                      std::vector<obj::Program> (*programs)(), bool lifecycle,
                      pb::Tally& tally, pb::SpanLog* log, uint64_t cell) {
  cfg.image_cache = std::make_shared<kernel::ImageCache>();
  cfg.snapshot_cache = std::make_shared<kernel::SnapshotCache>();
  ForkCounts fc;
  Scope p(log, "probe.fork", cell, -1);
  for (int k = 0; k <= kForks; ++k) {
    std::vector<obj::Program> progs = programs();
    std::unique_ptr<kernel::Machine> m;
    {
      Scope s(lifecycle ? log : nullptr, "kernel.construct", cell, p.id());
      m = std::make_unique<kernel::Machine>(cfg);
    }
    for (auto& prog : progs) m->add_user_program(std::move(prog));
    {
      const char* name = k == 0 ? "kernel.boot" : "kernel.fork";
      Scope s(k == 0 && !lifecycle ? nullptr : log, name, cell, p.id());
      m->boot();
    }
    if (k > 0) {
      tally.record(m->forked());
      ++fc.forks;
      fc.cow_pages += m->mmu().phys().cow_pages();
    }
    {
      Scope s(lifecycle ? log : nullptr, "kernel.teardown", cell, p.id());
      m.reset();
    }
  }
  fc.template_boots = cfg.snapshot_cache->stats().misses;
  return fc;
}

struct UnitCosts {
  double qarma_ns = 0, translate_ns = 0, decode_ns = 0;
};

/// Median ns per call over `reps` spans of `n` calls each.
template <class Fn>
double time_per_call(pb::SpanLog* log, const char* name, uint64_t cell,
                     int parent, int reps, uint64_t n, Fn&& fn) {
  std::vector<double> ns;
  for (int r = 0; r < reps; ++r) {
    const int64_t t0 = now_ns();
    {
      Scope s(log, name, cell, parent);
      for (uint64_t i = 0; i < n; ++i) fn(i);
    }
    ns.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(n));
  }
  return pb::median(ns);
}

/// Outside-in unit costs: QARMA-64 encryption, a micro-TLB-hit translation
/// on a booted machine, and one instruction decode over the kernel text.
UnitCosts unit_probe(uint64_t seed, pb::Tally& tally, pb::SpanLog* log,
                     uint64_t cell) {
  UnitCosts u;
  Scope p(log, "probe.unit", cell, -1);
  const qarma::Qarma64 q;
  const qarma::Key128 key{0x84be85ce9804e94bull ^ seed, 0xec2802d4e0a488e9ull};
  uint64_t x = seed;
  u.qarma_ns = time_per_call(log, "qarma.encrypt", cell, p.id(), 5, 20000,
                             [&](uint64_t i) { x = q.encrypt(x ^ i, i, key); });
  g_sink = g_sink + x;

  kernel::Machine m(run_config(seed, false));
  for (auto& prog : probe_programs()) m.add_user_program(std::move(prog));
  m.boot();
  const uint64_t va = m.kernel_symbol(kernel::kSymPacFailCount);
  const uint64_t page = va & ~uint64_t{0xFFF};
  const mem::Mmu& mmu = m.mmu();
  bool ok = mmu.translate(va, mem::Access::Read, mem::El::El1).fault ==
            mem::FaultKind::None;
  uint64_t acc = 0;
  u.translate_ns = time_per_call(
      log, "mem.translate", cell, p.id(), 5, 200000, [&](uint64_t i) {
        acc += mmu.translate(page | ((i * 8) & 0xFF8), mem::Access::Read,
                             mem::El::El1)
                   .pa;
      });
  g_sink = g_sink + acc;

  std::vector<uint32_t> words;
  for (const auto& seg : m.boot_result().kernel_image.segments)
    if (seg.kind == obj::SectionKind::Text)
      for (size_t off = 0; off + 4 <= seg.bytes.size(); off += 4) {
        uint32_t w = 0;
        std::memcpy(&w, seg.bytes.data() + off, 4);
        words.push_back(w);
      }
  ok = ok && !words.empty();
  uint64_t ops = 0;
  if (!words.empty())
    u.decode_ns = time_per_call(
        log, "isa.decode", cell, p.id(), 5, 100000, [&](uint64_t i) {
          ops += static_cast<uint64_t>(isa::decode(words[i % words.size()]).op);
        });
  g_sink = g_sink + ops;
  tally.record(ok);
  return u;
}

/// Run-phase thread-CPU time of the user-mix cell with the obs Collector
/// attached versus detached, alternating, as a fraction of detached.
double obs_overhead(uint64_t seed, pb::Tally& tally) {
  const RunWorkload w{user_mix_programs, pb::kUserMixExpect};
  std::vector<double> on, off;
  for (int r = 0; r < 3; ++r)
    for (bool obs : {r % 2 == 0, r % 2 != 0})
      (obs ? on : off)
          .push_back(run_cell(w, seed, obs, tally, nullptr, 0, nullptr).run_s);
  return pb::median(on) / pb::median(off) - 1;
}

// ---- reporting -------------------------------------------------------------

struct Host {
  std::string load_before;
  std::map<std::string, std::string> clock;   // metric -> clock
  std::map<std::string, double> spread;       // metric -> in-run spread
  std::map<std::string, double> samples;      // sample counts etc.
};

/// {"k":fmt(v),...} in key order.
template <class Map, class Fmt>
std::string json_object(const Map& m, Fmt fmt) {
  std::string out = "{";
  for (const auto& [k, v] : m)
    out += (out.size() > 1 ? ",\"" : "\"") + k + "\":" + fmt(v);
  return out + "}";
}

void print_result(const Report& rep, const Host& host, const pb::Tally& tally,
                  const std::string& workload) {
  for (const Metric& m : rep.metrics()) {
    const auto c = host.clock.find(m.name);
    const auto s = host.spread.find(m.name);
    std::printf("%-44s %16.6g %-8s", m.name.c_str(), m.value, m.unit.c_str());
    if (c != host.clock.end()) std::printf(" clock=%s", c->second.c_str());
    if (s != host.spread.end()) std::printf(" in-run-spread=%.3f", s->second);
    std::printf("\n");
  }
  const auto str = [](const std::string& v) { return "\"" + v + "\""; };
  std::printf(
      "host: {\"workload\":\"%s\",\"nproc\":%ld,\"loadavg_before\":%s,"
      "\"loadavg_after\":%s,\"clock\":%s,\"spread\":%s,\"samples\":%s}\n",
      workload.c_str(), sysconf(_SC_NPROCESSORS_ONLN), host.load_before.c_str(),
      loadavg().c_str(), json_object(host.clock, str).c_str(),
      json_object(host.spread, json_num).c_str(),
      json_object(host.samples, json_num).c_str());

  std::string out = std::string("{\"correct\":") +
                    (tally.failed() == 0 ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(tally.attempted()) +
                    ",\"failed\":" + std::to_string(tally.failed()) +
                    ",\"metrics\":{";
  bool first = true;
  for (const Metric& m : rep.metrics()) {
    out += (first ? "\"" : ",\"") + m.name + "\":{\"value\":" +
           json_num(m.value) + ",\"unit\":\"" + m.unit + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

/// Per-layer values by metric name; layers a workload does not reach
/// through public calls read 0.
using Layers = std::map<std::string, double>;

/// Every per-layer metric and its unit, in print order (the
/// attacks.scenario_ms.<attack>.p50 family goes before attacks.verdict.*).
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"kernel.construct_s", "s"},       {"kernel.boot_s", "s"},
    {"kernel.image_build_s", "s"},     {"core.prepare_s", "s"},
    {"compiler.instrument_s", "s"},    {"analysis.verify_s", "s"},
    {"kernel.imgcache.hits", "count"}, {"kernel.imgcache.misses", "count"},
    {"kernel.fork_s", "s"},            {"kernel.snap.template_boots", "count"},
    {"kernel.snap.forks", "count"},    {"kernel.snap.cow_pages", "count"},
    {"kernel.teardown_s", "s"},        {"kernel.run_s", "s"},
    {"cpu.retired", "count"},          {"cpu.sim_cycles", "count"},
    {"cpu.sb.blocks", "count"},        {"cpu.sb.hit_ratio", "ratio"},
    {"cpu.trace.formed", "count"},     {"cpu.trace.hits", "count"},
    {"cpu.trace.guard_exit_ratio", "ratio"},
    {"cpu.icache.misses", "count"},    {"isa.decodes", "count"},
    {"cpu.pac.memo_hit_ratio", "ratio"},
    {"qarma.evals", "count"},          {"qarma.encrypt_ns", "ns"},
    {"qarma.est_s", "s"},              {"mem.tlb.hits", "count"},
    {"mem.tlb.misses", "count"},       {"mem.tlb.flushes", "count"},
    {"mem.tlb.hit_ratio", "ratio"},    {"mem.translate_ns", "ns"},
    {"mem.translate.est_s", "s"},      {"isa.decode_ns", "ns"},
    {"isa.decode.est_s", "s"},         {"scenario_ms.p50", "ms"},
    {"attacks.verdict.hijacked", "count"},
    {"attacks.verdict.detected", "count"},
    {"attacks.verdict.blocked", "count"},
    {"par.steals", "count"},           {"par.imbalance", "ratio"},
    {"par.busy_frac", "ratio"},        {"obs.overhead_frac", "ratio"},
    {"fail_rate", "ratio"},            {"cell.self_s", "s"},
    {"trace.overhead_frac", "ratio"},  {"trace.spans", "count"},
};

void add_layers(Report& rep, Layers& l) {
  for (const auto& [name, unit] : kLayerMetrics) {
    if (std::string_view(name) == "attacks.verdict.hijacked")
      for (const std::string& a : attacks::attack_names()) {
        const std::string n = "attacks.scenario_ms." + a + ".p50";
        rep.add(n, l[n], "ms");
      }
    rep.add(name, l[name], unit);
  }
}

double ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0 : static_cast<double>(num) / static_cast<double>(den);
}

void fill_counters(Layers& l, const Counters& c) {
  l["cpu.retired"] = static_cast<double>(c.retired);
  l["cpu.sim_cycles"] = static_cast<double>(c.sim_cycles);
  l["cpu.sb.blocks"] = static_cast<double>(c.sb_blocks);
  l["cpu.sb.hit_ratio"] = ratio(c.sb_served, c.sb_served + c.sb_blocks);
  l["cpu.trace.formed"] = static_cast<double>(c.traces_formed);
  l["cpu.trace.hits"] = static_cast<double>(c.trace_hits);
  l["cpu.trace.guard_exit_ratio"] = ratio(c.trace_guard_exits, c.trace_hits);
  l["cpu.icache.misses"] = static_cast<double>(c.fp.icache_misses);
  // Each predecode fill decodes a whole 4 KiB page. Superblock builds decode
  // too but expose no count, so the decode estimate is a lower bound.
  l["isa.decodes"] = static_cast<double>(c.fp.icache_misses +
                                         c.fp.icache_redecodes) * 1024;
  l["cpu.pac.memo_hit_ratio"] = ratio(c.pac.hits, c.pac.hits + c.pac.misses);
  l["qarma.evals"] = static_cast<double>(c.pac.misses);
  l["mem.tlb.hits"] = static_cast<double>(c.tlb.hits);
  l["mem.tlb.misses"] = static_cast<double>(c.tlb.misses);
  l["mem.tlb.flushes"] = static_cast<double>(c.tlb.flushes);
  l["mem.tlb.hit_ratio"] = ratio(c.tlb.hits, c.tlb.hits + c.tlb.misses);
}

void fill_units(Layers& l, const UnitCosts& u) {
  l["qarma.encrypt_ns"] = u.qarma_ns;
  l["mem.translate_ns"] = u.translate_ns;
  l["isa.decode_ns"] = u.decode_ns;
  l["qarma.est_s"] = l["qarma.evals"] * u.qarma_ns * 1e-9;
  l["mem.translate.est_s"] =
      (l["mem.tlb.hits"] + l["mem.tlb.misses"]) * u.translate_ns * 1e-9;
  l["isa.decode.est_s"] = l["isa.decodes"] * u.decode_ns * 1e-9;
}

void fill_spans(Layers& l, const std::vector<pb::Span>& spans,
                const std::vector<int64_t>& self) {
  for (const char* n :
       {"kernel.construct", "kernel.boot", "kernel.image_build",
        "core.prepare", "compiler.instrument", "analysis.verify",
        "kernel.fork", "kernel.teardown", "kernel.run"})
    l[std::string(n) + "_s"] = median_span_s(spans, self, n);
  l["cell.self_s"] = median_span_s(spans, self, "cell");
  l["trace.spans"] = static_cast<double>(spans.size());
}

void print_estimates(Layers& l) {
  std::printf(
      "estimates per cell (unit cost x exact count; omit cache and miss-path "
      "effects): qarma %.6f s, translate %.6f s, decode %.6f s; traced "
      "kernel.run self time %.6f s\n",
      l["qarma.est_s"], l["mem.translate.est_s"], l["isa.decode.est_s"],
      l["kernel.run_s"]);
}

// ---- workloads ------------------------------------------------------------
//
// Co-tenant load on a shared host slows stretches of cells (or rounds) for
// seconds to minutes by up to 2x, and the share of slowed cells varies from
// run to run. Any quantile that this share can cross jumps between the
// fast and the slowed level, while the slowed level itself is steady. On
// the run workloads, times come from the 95th percentile of the cell times
// and rates from the 5th percentile of the per-cell rates. These stay on
// the slowed level while at least 5% of a run's cells are slowed. Attack
// rounds come from their upper decile. The median scenario latency is a
// per-layer metric, and the other quantiles stay in the host record.

int run_workload(const RunWorkload& w, const char* name, uint64_t seed,
                 double seconds, bool trace, const std::string& spans_path) {
  pb::Tally tally;
  Host host;
  host.load_before = loadavg();
  Report rep;
  uint64_t cell = 1;
  if (!trace) {
    const RunPhase p = measure_cells(w, seed, seconds, tally, nullptr, cell);
    const double cell_tail = pb::percentile(p.cell_s, kTimePct);
    rep.add("setup_s", pb::median(p.setup_s), "s");
    rep.add("guest_mips", pb::percentile(p.mips, kRatePct), "insn/us");
    rep.add("cell_s", cell_tail, "s");
    rep.add("scenarios_per_s", 1 / cell_tail, "1/s");
    rep.add("scenario_ms.p99", pb::percentile(p.cell_ms, 99), "ms");
    rep.add("peak_rss_mb", peak_rss_mb(), "MB");
    for (const char* m : {"setup_s", "guest_mips", "cell_s", "scenarios_per_s",
                          "scenario_ms.p99"})
      host.clock[m] = "thread_cpu";
    host.clock["peak_rss_mb"] = "ru_maxrss";
    host.spread["setup_s"] = pb::spread(p.setup_s);
    host.spread["guest_mips"] = pb::spread(p.mips);
    host.spread["cell_s"] = pb::spread(p.cell_s);
    host.samples["cells"] = static_cast<double>(p.cell_s.size());
    for (int q : {2, 5, 10, 50, 90, 95, 98}) {
      host.samples["cell_s.p" + std::to_string(q)] = pb::percentile(p.cell_s, q);
      host.samples["guest_mips.p" + std::to_string(q)] = pb::percentile(p.mips, q);
    }
    host.samples["cell_s.tail_beyond"] =
        static_cast<double>(pb::beyond(p.cell_s.size(), kTimePct));
    host.samples["scenario_ms.p99_beyond"] =
        static_cast<double>(pb::beyond(p.cell_ms.size(), 99));
    host.samples["scenario_ms.p99_supported"] =
        pb::percentile_supported(p.cell_ms.size(), 99);
    print_result(rep, host, tally, name);
    return 0;
  }
  const RunPhase plain = measure_cells(w, seed, seconds / 2, tally, nullptr, cell);
  pb::SpanLog log;
  const RunPhase traced = measure_cells(w, seed, seconds / 2, tally, &log, cell);
  image_probe(run_config(seed, false), w.programs().size(), tally, &log, cell++);
  const ForkCounts fc = fork_probe(run_config(seed, false), w.programs, false,
                                   tally, &log, cell++);
  const UnitCosts u = unit_probe(seed, tally, &log, cell++);
  const double obs = obs_overhead(seed, tally);
  const std::vector<pb::Span> spans = log.snapshot();
  const std::vector<int64_t> self = pb::self_times(spans);
  write_spans(spans_path, spans, self);

  Layers l;
  fill_spans(l, spans, self);
  fill_counters(l, traced.last);
  fill_units(l, u);
  l["kernel.snap.template_boots"] = static_cast<double>(fc.template_boots);
  l["kernel.snap.forks"] = static_cast<double>(fc.forks);
  l["kernel.snap.cow_pages"] = static_cast<double>(fc.cow_pages);
  l["scenario_ms.p50"] = pb::percentile(plain.cell_ms, 50);
  l["obs.overhead_frac"] = obs;
  l["trace.overhead_frac"] = pb::percentile(traced.cell_s, kTimePct) /
                                 pb::percentile(plain.cell_s, kTimePct) -
                             1;
  l["fail_rate"] = tally.fail_rate();
  add_layers(rep, l);
  host.clock["spans"] = "steady_clock";
  host.samples["cells_untraced"] = static_cast<double>(plain.cell_s.size());
  host.samples["cells_traced"] = static_cast<double>(traced.cell_s.size());
  print_estimates(l);
  print_result(rep, host, tally, name);
  return 0;
}

int run_sweep(uint64_t seed, double seconds, bool trace,
              const std::string& spans_path) {
  pb::Tally tally;
  Host host;
  host.load_before = loadavg();
  attacks::snapshot_mode() = true;
  calibrate_attacks(tally);
  par::Pool pool(kSweepJobs);
  std::mt19937_64 rng(seed);
  std::vector<size_t> order(kScenarioCount);
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  // Set-up: a cold round boots one template per boot signature and builds
  // each kernel image once; repeated from empty caches for a median.
  std::vector<double> warm;
  for (int k = 0; k < kWarmups; ++k) {
    reset_caches();
    std::shuffle(order.begin(), order.end(), rng);
    warm.push_back(run_round(pool, order, tally, nullptr, 0, nullptr));
  }
  const attacks::SnapStats warm_snap = attacks::snapshot_stats();
  const par::Pool::Stats pool0 = pool.stats();
  uint64_t cell = 1;
  const double retired = static_cast<double>(round_retired());
  Report rep;

  if (!trace) {
    const SweepPhase p = measure_rounds(pool, rng, seconds, tally, nullptr, cell);
    std::vector<double> ms;
    for (const Sample& s : p.samples) ms.push_back(s.ms);
    const double rounds = static_cast<double>(p.round_s.size());
    const double round_p90 = pb::percentile(p.round_s, 90);
    rep.add("setup_s", pb::median(warm), "s");
    rep.add("guest_mips", retired / (round_p90 * 1e6), "insn/us");
    rep.add("cell_s", round_p90, "s");
    rep.add("scenarios_per_s", kScenarioCount / round_p90, "1/s");
    rep.add("scenario_ms.p99", pb::percentile(ms, 99), "ms");
    rep.add("peak_rss_mb", peak_rss_mb(), "MB");
    for (const char* m : {"setup_s", "guest_mips", "cell_s", "scenarios_per_s",
                          "scenario_ms.p99"})
      host.clock[m] = "wall";
    host.clock["peak_rss_mb"] = "ru_maxrss";
    host.spread["setup_s"] = pb::spread(warm);
    host.spread["cell_s"] = pb::spread(p.round_s);
    host.spread["scenario_ms"] = pb::spread(ms);
    host.samples["rounds"] = rounds;
    for (int q : {10, 50, 90})
      host.samples["cell_s.p" + std::to_string(q)] = pb::percentile(p.round_s, q);
    host.samples["mean.scenarios_per_s"] =
        static_cast<double>(ms.size()) / p.wall_total_s;
    host.samples["cell_s.p90_beyond"] =
        static_cast<double>(pb::beyond(p.round_s.size(), 90));
    host.samples["scenarios"] = static_cast<double>(ms.size());
    host.samples["scenario_ms.p99_beyond"] =
        static_cast<double>(pb::beyond(ms.size(), 99));
    host.samples["scenario_ms.p99_supported"] =
        pb::percentile_supported(ms.size(), 99);
    host.samples["jobs"] = kSweepJobs;
    print_result(rep, host, tally, "attack-sweep");
    return 0;
  }

  const SweepPhase plain = measure_rounds(pool, rng, seconds / 2, tally, nullptr, cell);
  pb::SpanLog log;
  const SweepPhase traced = measure_rounds(pool, rng, seconds / 2, tally, &log, cell);
  const attacks::SnapStats snap = attacks::snapshot_stats();
  const par::Pool::Stats pool1 = pool.stats();
  image_probe(attack_config(seed), 1, tally, &log, cell++);
  fork_probe(attack_config(seed), probe_programs, true, tally, &log, cell++);
  const UnitCosts u = unit_probe(seed, tally, &log, cell++);
  const double obs = obs_overhead(seed, tally);
  const std::vector<pb::Span> spans = log.snapshot();
  const std::vector<int64_t> self = pb::self_times(spans);
  write_spans(spans_path, spans, self);

  Layers l;
  fill_spans(l, spans, self);
  fill_units(l, u);
  const double rounds = static_cast<double>(plain.round_s.size() +
                                            traced.round_s.size());
  l["cpu.retired"] = retired;
  l["kernel.imgcache.hits"] = static_cast<double>(warm_snap.imgcache_hits);
  l["kernel.imgcache.misses"] = static_cast<double>(warm_snap.imgcache_misses);
  l["kernel.snap.template_boots"] = static_cast<double>(snap.template_boots);
  l["kernel.snap.forks"] =
      static_cast<double>(snap.forks - warm_snap.forks) / rounds;
  l["kernel.snap.cow_pages"] =
      static_cast<double>(snap.cow_pages - warm_snap.cow_pages) / rounds;
  std::map<std::string, std::vector<double>> per_attack;
  uint64_t verdicts[3] = {0, 0, 0};
  double busy_ms = 0;
  for (const SweepPhase* ph : {&plain, &traced})
    for (const Sample& s : ph->samples) {
      per_attack[pb::kScenarios[s.scenario].attack].push_back(s.ms);
      ++verdicts[static_cast<size_t>(s.outcome)];
      busy_ms += s.ms;
    }
  for (const auto& [a, v] : per_attack)
    l["attacks.scenario_ms." + a + ".p50"] = pb::percentile(v, 50);
  std::vector<double> plain_ms;
  for (const Sample& s : plain.samples) plain_ms.push_back(s.ms);
  l["scenario_ms.p50"] = pb::percentile(plain_ms, 50);
  l["attacks.verdict.hijacked"] =
      static_cast<double>(verdicts[size_t(attacks::Outcome::Hijacked)]) / rounds;
  l["attacks.verdict.detected"] =
      static_cast<double>(verdicts[size_t(attacks::Outcome::Detected)]) / rounds;
  l["attacks.verdict.blocked"] =
      static_cast<double>(verdicts[size_t(attacks::Outcome::Blocked)]) / rounds;
  l["par.steals"] = static_cast<double>(pool1.steals - pool0.steals);
  std::vector<double> exec;
  for (size_t i = 0; i < pool1.executed.size(); ++i)
    exec.push_back(static_cast<double>(pool1.executed[i] -
                                       (i < pool0.executed.size()
                                            ? pool0.executed[i]
                                            : 0)));
  double sum = 0, mx = 0;
  for (double e : exec) {
    sum += e;
    mx = std::max(mx, e);
  }
  l["par.imbalance"] = sum > 0 ? mx / (sum / static_cast<double>(exec.size())) : 0;
  l["par.busy_frac"] = busy_ms * 1e-3 /
                       (kSweepJobs * (plain.wall_total_s + traced.wall_total_s));
  l["obs.overhead_frac"] = obs;
  l["trace.overhead_frac"] = pb::percentile(traced.round_s, 90) /
                                 pb::percentile(plain.round_s, 90) -
                             1;
  l["fail_rate"] = tally.fail_rate();
  add_layers(rep, l);
  host.clock["spans"] = "steady_clock";
  host.samples["rounds_untraced"] = static_cast<double>(plain.round_s.size());
  host.samples["rounds_traced"] = static_cast<double>(traced.round_s.size());
  host.samples["jobs"] = kSweepJobs;
  print_estimates(l);
  print_result(rep, host, tally, "attack-sweep");
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload syscall-mix|user-mix|attack-sweep "
               "--seed <n> --seconds <s> --trace 0|1 [--spans <path>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> a;
  for (int i = 1; i + 1 < argc; i += 2) a[argv[i]] = argv[i + 1];
  if (argc % 2 != 1 || !a.count("--workload") || !a.count("--seed") ||
      !a.count("--seconds") || !a.count("--trace"))
    return usage();
  char* end = nullptr;
  const uint64_t seed = std::strtoull(a["--seed"].c_str(), &end, 10);
  if (*end != '\0') return usage();
  const double seconds = std::strtod(a["--seconds"].c_str(), &end);
  if (*end != '\0' || !(seconds > 0) || seconds > 600) return usage();
  const std::string& t = a["--trace"];
  if (t != "0" && t != "1") return usage();
  const bool trace = t == "1";
  const std::string spans = a.count("--spans") ? a["--spans"] : "";
  const std::string& w = a["--workload"];
  if (w == "syscall-mix")
    return run_workload({syscall_mix_programs, pb::kSyscallMixExpect}, "syscall-mix",
                        seed, seconds, trace, spans);
  if (w == "user-mix")
    return run_workload({user_mix_programs, pb::kUserMixExpect}, "user-mix", seed,
                        seconds, trace, spans);
  if (w == "attack-sweep") return run_sweep(seed, seconds, trace, spans);
  return usage();
}
