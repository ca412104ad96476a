// camo::obs tests: trace ring semantics, metrics monotonicity, JSON
// round-trips, and the two accounting invariants the observability layer
// promises — per-EL cycle counters and the per-symbol profile each sum to
// exactly Cpu::cycles(), and attaching the collector never changes guest
// cycle counts (events are free).
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>
#include <utility>
#include <vector>

#include "attacks/attacks.h"
#include "cpu/cpu.h"
#include "kernel/machine.h"
#include "kernel/workloads.h"
#include "obs/chrome_trace.h"
#include "obs/collector.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/ring.h"

namespace camo::obs {
namespace {

TraceEvent make_event(EventKind kind, uint64_t cycles) {
  TraceEvent e;
  e.kind = kind;
  e.cycles = cycles;
  return e;
}

TEST(TraceRing, KeepsEventsInOrderBeforeWraparound) {
  TraceRing ring(8);
  for (uint64_t i = 0; i < 5; ++i)
    ring.emit(make_event(EventKind::PacSign, i));
  EXPECT_EQ(ring.size(), 5u);
  EXPECT_EQ(ring.total(), 5u);
  EXPECT_EQ(ring.dropped(), 0u);
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(ring.at(i).cycles, i);
}

TEST(TraceRing, WraparoundKeepsNewestAndCountsDropped) {
  TraceRing ring(8);
  for (uint64_t i = 0; i < 20; ++i)
    ring.emit(make_event(EventKind::PacSign, i));
  EXPECT_EQ(ring.size(), 8u);
  EXPECT_EQ(ring.total(), 20u);
  EXPECT_EQ(ring.dropped(), 12u);
  // Oldest retained event is #12, newest #19, still chronological.
  for (size_t i = 0; i < 8; ++i) EXPECT_EQ(ring.at(i).cycles, 12 + i);
  const auto snap = ring.snapshot();
  ASSERT_EQ(snap.size(), 8u);
  EXPECT_EQ(snap.front().cycles, 12u);
  EXPECT_EQ(snap.back().cycles, 19u);
}

TEST(TraceRing, CountKind) {
  TraceRing ring(16);
  for (int i = 0; i < 3; ++i) ring.emit(make_event(EventKind::AuthFail, i));
  for (int i = 0; i < 5; ++i) ring.emit(make_event(EventKind::AuthOk, i));
  EXPECT_EQ(ring.count_kind(EventKind::AuthFail), 3u);
  EXPECT_EQ(ring.count_kind(EventKind::AuthOk), 5u);
  EXPECT_EQ(ring.count_kind(EventKind::KeyWrite), 0u);
}

TEST(Metrics, CountersAreMonotonicAndStable) {
  Registry reg;
  Counter& c = reg.counter("a.b");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(reg.value("a.b"), 42u);
  // Get-or-create returns the same object; references stay valid.
  reg.counter("zzz").inc();  // force rebalancing of the map
  EXPECT_EQ(&reg.counter("a.b"), &c);
  uint64_t prev = 0;
  for (int i = 0; i < 100; ++i) {
    c.inc(static_cast<uint64_t>(i));
    EXPECT_GE(c.value(), prev);
    prev = c.value();
  }
  EXPECT_EQ(reg.value("unknown"), 0u);
  EXPECT_FALSE(reg.has_counter("unknown"));
}

TEST(Metrics, HistogramStats) {
  Registry reg;
  Histogram& h = reg.histogram("lat");
  for (const uint64_t v : {1u, 2u, 3u, 100u}) h.record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 106u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 106.0 / 4.0);
  EXPECT_EQ(Histogram::bucket_index(0), 0u);
  EXPECT_EQ(Histogram::bucket_index(1), 0u);
  EXPECT_EQ(Histogram::bucket_index(2), 1u);
  EXPECT_EQ(Histogram::bucket_index(3), 1u);
  EXPECT_EQ(Histogram::bucket_index(100), 6u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 2u);
  EXPECT_EQ(h.bucket(6), 1u);
}

TEST(Metrics, GaugesSetAndExport) {
  Registry reg;
  EXPECT_EQ(reg.find_gauge("host.throughput"), nullptr);
  // A registry without gauges must serialize exactly as before they existed.
  EXPECT_EQ(reg.to_json().find("gauges"), std::string::npos);

  Gauge& g = reg.gauge("host.throughput");
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.set(1.25e6);
  EXPECT_DOUBLE_EQ(g.value(), 1.25e6);
  g.set(8e5);  // gauges are settable both directions, unlike counters
  EXPECT_DOUBLE_EQ(g.value(), 8e5);
  ASSERT_NE(reg.find_gauge("host.throughput"), nullptr);
  EXPECT_EQ(&reg.gauge("host.throughput"), &g);

  const auto parsed = json::Value::parse(reg.to_json());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_DOUBLE_EQ(
      parsed->get("gauges")->get("host.throughput")->as_number(), 8e5);
  EXPECT_NE(reg.render_text().find("host.throughput"), std::string::npos);
}

TEST(Json, RoundTrip) {
  json::Value root = json::Value::object();
  root.set("name", json::Value("camo"));
  root.set("count", json::Value(uint64_t{123456789012345ull}));
  root.set("pi", json::Value(3.25));
  root.set("on", json::Value(true));
  json::Value arr = json::Value::array();
  arr.push(json::Value("a\"b\\c\n"));
  arr.push(json::Value(uint64_t{0}));
  root.set("items", std::move(arr));

  const std::string text = root.dump(2);
  const auto parsed = json::Value::parse(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->get("name")->as_string(), "camo");
  EXPECT_DOUBLE_EQ(parsed->get("count")->as_number(), 123456789012345.0);
  EXPECT_DOUBLE_EQ(parsed->get("pi")->as_number(), 3.25);
  EXPECT_TRUE(parsed->get("on")->as_bool());
  ASSERT_EQ(parsed->get("items")->size(), 2u);
  EXPECT_EQ(parsed->get("items")->at(0)->as_string(), "a\"b\\c\n");
}

TEST(Json, RejectsMalformedDocuments) {
  EXPECT_FALSE(json::Value::parse("{").has_value());
  EXPECT_FALSE(json::Value::parse("{\"a\": }").has_value());
  EXPECT_FALSE(json::Value::parse("[1, 2,]").has_value());
  EXPECT_FALSE(json::Value::parse("{} trailing").has_value());
  EXPECT_FALSE(json::Value::parse("nul").has_value());
  EXPECT_TRUE(json::Value::parse("  {\"a\": [1, 2]}  ").has_value());
}

TEST(Json, MetricsExportParses) {
  Registry reg;
  reg.counter("cycles.el1").inc(100);
  reg.histogram("syscall.cycles").record(64);
  const auto parsed = json::Value::parse(reg.to_json());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_DOUBLE_EQ(parsed->get("counters")->get("cycles.el1")->as_number(),
                   100.0);
  EXPECT_DOUBLE_EQ(parsed->get("histograms")
                       ->get("syscall.cycles")
                       ->get("count")
                       ->as_number(),
                   1.0);
}

// ---------------------------------------------------------------------------
// Label tables in obs mirror the producer-side enums by declaration order.
// obs cannot include cpu/attacks headers (it sits below them), so these
// tests are the contract that keeps the integer payloads decodable.

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

TEST(ObsLabels, ExcClassMatchesCpuEnum) {
  for (uint8_t i = 0; i <= static_cast<uint8_t>(cpu::ExcClass::Irq); ++i)
    EXPECT_STREQ(exc_class_label(i),
                 cpu::exc_class_name(static_cast<cpu::ExcClass>(i)))
        << "ExcClass " << int(i);
}

TEST(ObsLabels, PacKeyMatchesCpuEnum) {
  for (uint8_t i = 0; i <= static_cast<uint8_t>(cpu::PacKey::GA); ++i)
    EXPECT_EQ(pac_key_label(i),
              lower(cpu::pac_key_name(static_cast<cpu::PacKey>(i))))
        << "PacKey " << int(i);
}

TEST(ObsLabels, OutcomeMatchesAttacksEnum) {
  for (uint8_t i = 0; i <= static_cast<uint8_t>(attacks::Outcome::Blocked);
       ++i)
    EXPECT_EQ(outcome_label(i),
              lower(attacks::outcome_name(static_cast<attacks::Outcome>(i))))
        << "Outcome " << int(i);
}

// ---------------------------------------------------------------------------
// Collector derivations over a scripted event stream.

/// Every EventKind, every exception-class, key and outcome label (plus one
/// out-of-range value each, which lands on the "<bad-...>" label), a syscall
/// window closed by an ERET to EL0, a key-switch burst and a lone key write.
std::vector<TraceEvent> scripted_stream() {
  std::vector<TraceEvent> s;
  uint64_t t = 100;
  const auto add = [&](EventKind kind, uint8_t k1 = 0, uint8_t k2 = 0) {
    TraceEvent e = make_event(kind, t);
    e.k1 = k1;
    e.k2 = k2;
    e.pc = 0x400000 + t;
    e.a = 0x800000 + t;
    e.b = 60 + k1;  // ExcEnter: syscall nr
    s.push_back(e);
    t += 7;
  };
  for (uint8_t k = 1; k < static_cast<uint8_t>(EventKind::kCount); ++k)
    add(static_cast<EventKind>(k));
  for (uint8_t cls = 0; cls <= 8; ++cls) {
    add(EventKind::ExcEnter, cls);
    add(EventKind::ExcExit, 0, cls % 2);  // odd classes return to EL1
  }
  for (uint8_t key = 0; key <= 5; ++key) add(EventKind::KeyWrite, key);
  t += 100;  // closes the burst above
  add(EventKind::KeyWrite, 2);
  t += 100;
  add(EventKind::KeyWrite, 3);  // a lone write closing a one-write burst
  for (uint8_t key = 0; key <= 5; ++key) {
    add(EventKind::PacSign, key);
    add(EventKind::AuthOk, key);
    add(EventKind::AuthFail, key);
  }
  for (uint8_t o = 0; o <= 3; ++o) add(EventKind::AttackOutcome, o);
  return s;
}

void feed(Collector& c, const std::vector<TraceEvent>& stream, bool replay) {
  for (const TraceEvent& e : stream) {
    if (replay)
      c.replay(e);
    else
      c.emit(e);
  }
  for (uint8_t el = 0; el < 3; ++el)
    c.retire(0x1000 + el, el, el, 3 + el);
  AuditEvent sign;
  sign.kind = AuditKind::Sign;
  sign.cycles = 10;
  sign.ptr2 = 0xABCD;
  c.audit(sign);
  AuditEvent auth;
  auth.kind = AuditKind::AuthOk;
  auth.cycles = 42;
  auth.ptr = 0xABCD;
  c.audit(auth);
}

Options unprofiled() {
  Options o;
  o.enabled = true;
  o.profile = false;
  o.callgraph = false;
  return o;
}

TEST(CollectorStream, MetricsMatchRecordedDerivation) {
  Collector c(unprofiled());
  feed(c, scripted_stream(), false);
  EXPECT_EQ(c.metrics_json(), R"({
  "counters": {
    "attack.<bad-outcome>": 1,
    "attack.blocked": 1,
    "attack.detected": 1,
    "attack.hijacked": 2,
    "attack.outcome": 5,
    "cycles.el0": 3,
    "cycles.el1": 4,
    "cycles.el2": 5,
    "exc.<bad-class>": 1,
    "exc.brk": 1,
    "exc.data-abort": 1,
    "exc.enter": 10,
    "exc.exit": 10,
    "exc.insn-abort": 1,
    "exc.irq": 1,
    "exc.pac-fail": 1,
    "exc.svc": 1,
    "exc.undefined": 1,
    "exc.unknown": 2,
    "hvc.call": 1,
    "insn.el0": 1,
    "insn.el1": 1,
    "insn.el2": 1,
    "key.write": 9,
    "key.write.<bad-key>": 1,
    "key.write.da": 2,
    "key.write.db": 2,
    "key.write.ga": 1,
    "key.write.ia": 2,
    "key.write.ib": 1,
    "module.load": 1,
    "msr.denied": 1,
    "ops.branch": 1,
    "ops.call": 1,
    "ops.load": 0,
    "ops.other": 1,
    "ops.pauth": 0,
    "ops.pauth-branch": 0,
    "ops.ret": 0,
    "ops.store": 0,
    "ops.sys": 0,
    "pauth.auth.fail": 7,
    "pauth.auth.fail.<bad-key>": 1,
    "pauth.auth.fail.da": 1,
    "pauth.auth.fail.db": 1,
    "pauth.auth.fail.ga": 1,
    "pauth.auth.fail.ia": 2,
    "pauth.auth.fail.ib": 1,
    "pauth.auth.ok": 7,
    "pauth.sign": 7,
    "pauth.sign.<bad-key>": 1,
    "pauth.sign.da": 1,
    "pauth.sign.db": 1,
    "pauth.sign.ga": 1,
    "pauth.sign.ia": 2,
    "pauth.sign.ib": 1,
    "sched.switch": 1,
    "stage2.fault": 1,
    "syscall.count": 1
  },
  "histograms": {
    "key.switch.cycles": {
      "count": 1,
      "sum": 35,
      "min": 35,
      "max": 35,
      "mean": 35,
      "p50": 35,
      "p95": 35,
      "p99": 35,
      "log2_buckets": [
        0,
        0,
        0,
        0,
        0,
        1
      ]
    },
    "pauth.sign_to_auth.cycles": {
      "count": 1,
      "sum": 32,
      "min": 32,
      "max": 32,
      "mean": 32,
      "p50": 32,
      "p95": 32,
      "p99": 32,
      "log2_buckets": [
        0,
        0,
        0,
        0,
        0,
        1
      ]
    },
    "syscall.cycles": {
      "count": 1,
      "sum": 21,
      "min": 21,
      "max": 21,
      "mean": 21,
      "p50": 21,
      "p95": 21,
      "p99": 21,
      "log2_buckets": [
        0,
        0,
        0,
        0,
        1
      ]
    }
  }
})");
}

TEST(CollectorStream, NeverEmittedKindCreatesNoCounter) {
  // Counters each kind derives; a stream without that kind must leave all
  // of them absent (the registry shape is a function of the stream).
  const std::vector<std::pair<EventKind, std::vector<std::string>>> derived = {
      {EventKind::ExcEnter, {"exc.enter", "exc.svc", "syscall.count"}},
      {EventKind::ExcExit, {"exc.exit"}},
      {EventKind::KeyWrite, {"key.write", "key.write.ia"}},
      {EventKind::PacSign, {"pauth.sign", "pauth.sign.ia"}},
      {EventKind::AuthOk, {"pauth.auth.ok"}},
      {EventKind::AuthFail, {"pauth.auth.fail", "pauth.auth.fail.ia"}},
      {EventKind::Stage2Fault, {"stage2.fault"}},
      {EventKind::ContextSwitch, {"sched.switch"}},
      {EventKind::HvcCall, {"hvc.call"}},
      {EventKind::ModuleLoad, {"module.load"}},
      {EventKind::MsrDenied, {"msr.denied"}},
      {EventKind::AttackOutcome, {"attack.outcome", "attack.hijacked"}},
  };
  const std::vector<TraceEvent> full = scripted_stream();
  const size_t fresh = Collector(unprofiled()).metrics().counters().size();
  for (const auto& [kind, names] : derived) {
    std::vector<TraceEvent> without;
    for (const TraceEvent& e : full)
      if (e.kind != kind) without.push_back(e);
    Collector c(unprofiled());
    for (const TraceEvent& e : without) c.emit(e);
    for (const std::string& n : names)
      EXPECT_FALSE(c.metrics().has_counter(n))
          << n << " without any " << event_kind_name(kind);
    // Emitting just that kind creates its counters.
    Collector only(unprofiled());
    for (const TraceEvent& e : full)
      if (e.kind == kind) only.emit(e);
    for (const std::string& n : names)
      EXPECT_GT(only.metrics().value(n), 0u) << n;
  }
  // The syscall-free kinds derive nothing at all.
  Collector quiet(unprofiled());
  quiet.emit(make_event(EventKind::SyscallEnter, 1));
  quiet.emit(make_event(EventKind::SyscallExit, 2));
  EXPECT_EQ(quiet.metrics().counters().size(), fresh);
}

TEST(CollectorStream, ReplayDerivesTheSameRegistryAsEmit) {
  const std::vector<TraceEvent> stream = scripted_stream();
  Collector emitted(unprofiled());
  Collector replayed(unprofiled());
  feed(emitted, stream, false);
  feed(replayed, stream, true);
  EXPECT_EQ(replayed.metrics_json(), emitted.metrics_json());
  // Only the ring differs: replay does not re-synthesize the syscall
  // window's SyscallEnter/SyscallExit markers.
  EXPECT_EQ(replayed.ring().size(), stream.size());
  EXPECT_EQ(emitted.ring().size(), stream.size() + 2);
}

// ---------------------------------------------------------------------------
// Machine-level invariants.

kernel::MachineConfig observed_config() {
  kernel::MachineConfig cfg;
  cfg.kernel.protection = compiler::ProtectionConfig::full();
  cfg.kernel.log_pac_failures = false;
  cfg.obs.enabled = true;
  return cfg;
}

TEST(Observability, ElCycleCountersSumToCpuCycles) {
  kernel::Machine m(observed_config());
  m.add_user_program(kernel::workloads::null_syscall(50));
  m.boot();
  ASSERT_TRUE(m.run());
  ASSERT_NE(m.stats(), nullptr);
  const Registry& reg = m.stats()->metrics();
  const uint64_t total = reg.value("cycles.el0") + reg.value("cycles.el1") +
                         reg.value("cycles.el2");
  EXPECT_EQ(total, m.cpu().cycles());
  const uint64_t insns = reg.value("insn.el0") + reg.value("insn.el1") +
                         reg.value("insn.el2");
  EXPECT_EQ(insns, m.cpu().retired());
}

TEST(Observability, FastPathCountersAndThroughputGaugePublished) {
  kernel::MachineConfig cfg = observed_config();
  // The one-icache-event-per-retire invariant below holds on the
  // single-step path only: superblocks fetch through the block cache.
  cfg.cpu.superblocks = false;
  kernel::Machine m(cfg);
  m.add_user_program(kernel::workloads::null_syscall(50));
  m.boot();
  ASSERT_TRUE(m.run());
  const Registry& reg = m.stats()->metrics();
  // Every retired instruction is exactly one predecode-cache event.
  const uint64_t events = reg.value("fastpath.icache.hit") +
                          reg.value("fastpath.icache.miss") +
                          reg.value("fastpath.icache.redecode");
  EXPECT_EQ(events, m.cpu().retired());
  EXPECT_GT(reg.value("fastpath.tlb.hit"), 0u);
  EXPECT_GT(reg.value("fastpath.tlb.miss"), 0u);
  // Full protection signs/authenticates on every call; repeats must memoize.
  EXPECT_GT(reg.value("fastpath.pac.hit"), 0u);
  const Gauge* g = reg.find_gauge("host.throughput");
  ASSERT_NE(g, nullptr);
  EXPECT_GT(g->value(), 0.0) << "guest insns per host second must be set";
  EXPECT_DOUBLE_EQ(g->value(), m.host_throughput());
}

TEST(Metrics, MergeFromAddsCountersMergesHistogramsOverwritesGauges) {
  Registry a, b;
  a.counter("c").inc(3);
  b.counter("c").inc(4);
  b.counter("only_b").inc(1);
  a.histogram("h").record(2);
  b.histogram("h").record(100);
  a.gauge("g").set(1.0);
  b.gauge("g").set(2.0);
  a.merge_from(b);
  EXPECT_EQ(a.value("c"), 7u);
  EXPECT_EQ(a.value("only_b"), 1u);
  const Histogram* h = a.find_histogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 2u);
  EXPECT_EQ(h->sum(), 102u);
  EXPECT_EQ(h->min(), 2u);
  EXPECT_EQ(h->max(), 100u);
  EXPECT_DOUBLE_EQ(a.find_gauge("g")->value(), 2.0);  // last writer wins
}

// Regression: when several machines share a process (a fleet), each
// machine's throughput must survive a registry merge under its namespaced
// gauge — a single shared "host.throughput" name would collapse to the
// last-merged machine's reading.
TEST(Observability, ThroughputGaugeIsNamespacedPerMachine) {
  Registry merged;
  double expected[2] = {0, 0};
  for (unsigned id = 0; id < 2; ++id) {
    kernel::MachineConfig cfg = observed_config();
    cfg.machine_id = id;
    kernel::Machine m(cfg);
    m.add_user_program(kernel::workloads::null_syscall(30 + 20 * id));
    m.boot();
    ASSERT_TRUE(m.run());
    expected[id] = m.host_throughput();
    merged.merge_from(m.stats()->metrics());
  }
  for (unsigned id = 0; id < 2; ++id) {
    const Gauge* g =
        merged.find_gauge("host.throughput.m" + std::to_string(id));
    ASSERT_NE(g, nullptr) << "machine " << id;
    EXPECT_DOUBLE_EQ(g->value(), expected[id]) << "machine " << id;
  }
  // The un-namespaced name still exists (single-machine consumers), but
  // after a merge it is only the last writer — fleets recompute it.
  ASSERT_NE(merged.find_gauge("host.throughput"), nullptr);
  EXPECT_DOUBLE_EQ(merged.find_gauge("host.throughput")->value(),
                   expected[1]);
}

TEST(Observability, FlatProfileAccountsForEveryCycle) {
  kernel::Machine m(observed_config());
  m.add_user_program(kernel::workloads::read_file(20, 64, kernel::FileKind::Null));
  m.boot();
  ASSERT_TRUE(m.run());
  const Profiler& prof = m.stats()->profiler();
  EXPECT_EQ(prof.total_cycles(), m.cpu().cycles());
  EXPECT_EQ(prof.total_retires(), m.cpu().retired());
  // The kernel's syscall path must be attributed to real symbols, not the
  // [other] catch-all.
  uint64_t named = 0;
  for (const auto& r : prof.entries())
    if (r.name != "[other]") named += r.cycles;
  EXPECT_GT(named, m.cpu().cycles() / 2);
}

TEST(Observability, AttachingCollectorDoesNotChangeGuestCycles) {
  const auto run_once = [](bool enabled) {
    kernel::MachineConfig cfg = observed_config();
    cfg.obs.enabled = enabled;
    kernel::Machine m(cfg);
    m.add_user_program(kernel::workloads::null_syscall(30));
    m.boot();
    EXPECT_TRUE(m.run());
    return std::pair<uint64_t, uint64_t>(m.cpu().cycles(), m.cpu().retired());
  };
  const auto off = run_once(false);
  const auto on = run_once(true);
  EXPECT_EQ(off.first, on.first);
  EXPECT_EQ(off.second, on.second);
}

TEST(Observability, SyscallWindowsAreSynthesized) {
  kernel::Machine m(observed_config());
  m.add_user_program(kernel::workloads::null_syscall(25));
  m.boot();
  ASSERT_TRUE(m.run());
  const Collector& st = *m.stats();
  const uint64_t enters = st.ring().count_kind(EventKind::SyscallEnter);
  const uint64_t exits = st.ring().count_kind(EventKind::SyscallExit);
  // 25 benchmark syscalls plus the final exit; every window that closed did
  // so exactly once.
  EXPECT_GE(enters, 25u);
  EXPECT_LE(exits, enters);
  EXPECT_GE(exits, 25u);
  const Histogram* lat = st.metrics().find_histogram("syscall.cycles");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count(), exits);
  EXPECT_GT(lat->min(), 0u);
  // The metrics view agrees with the trace view.
  EXPECT_EQ(st.metrics().value("syscall.count"), enters);
}

TEST(Observability, KeySwitchAndSignEventsAppear) {
  kernel::Machine m(observed_config());
  m.add_user_program(kernel::workloads::null_syscall(5));
  m.boot();
  ASSERT_TRUE(m.run());
  const Collector& st = *m.stats();
  // The full-protection entry path switches keys on every kernel entry and
  // the instrumented prologues sign return addresses.
  EXPECT_GT(st.ring().count_kind(EventKind::KeyWrite), 0u);
  EXPECT_GT(st.metrics().value("key.write"), 0u);
  EXPECT_GT(st.metrics().value("pauth.sign"), 0u);
  EXPECT_GT(st.metrics().value("pauth.auth.ok"), 0u);
  EXPECT_EQ(st.metrics().value("pauth.auth.fail"), 0u);
  EXPECT_GT(st.metrics().value("ops.pauth"), 0u);
}

TEST(Observability, ChromeTraceExportIsValidAndBalanced) {
  kernel::Machine m(observed_config());
  m.add_user_program(kernel::workloads::null_syscall(10));
  m.boot();
  ASSERT_TRUE(m.run());
  const std::string text = m.stats()->chrome_trace_json();
  const auto doc = json::Value::parse(text);
  ASSERT_TRUE(doc.has_value()) << "chrome trace is not valid JSON";
  const json::Value* events = doc->get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_GT(events->size(), 0u);
  uint64_t begins = 0, ends = 0;
  for (size_t i = 0; i < events->size(); ++i) {
    const json::Value& e = *events->at(i);
    ASSERT_NE(e.get("ph"), nullptr);
    const std::string ph = e.get("ph")->as_string();
    if (ph == "B") ++begins;
    if (ph == "E") ++ends;
    if (ph == "B" || ph == "E" || ph == "i") {
      ASSERT_NE(e.get("ts"), nullptr);
      ASSERT_NE(e.get("pid"), nullptr);
      ASSERT_NE(e.get("tid"), nullptr);
    }
  }
  EXPECT_EQ(begins, ends) << "unbalanced B/E spans break trace viewers";
}

TEST(Observability, ChromeTraceRoundTripsSyntheticRing) {
  // A hand-built ring snapshot: one syscall window containing a key write,
  // a sign and an auth failure, then an exception window left open (as a
  // wrapped ring would leave it) to exercise the truncation tolerance.
  std::vector<TraceEvent> ring;
  auto push = [&](EventKind k, uint64_t cycles) -> TraceEvent& {
    ring.push_back(make_event(k, cycles));
    return ring.back();
  };
  push(EventKind::SyscallEnter, 100).imm = 1;
  push(EventKind::KeyWrite, 110).imm = 2;
  // Sign events are deliberately not exported (too dense to render); the
  // exporter must skip them without disturbing the span bookkeeping.
  push(EventKind::PacSign, 120).a = 0xFFFF000000081000ull;
  push(EventKind::Stage2Fault, 125).a = 0xFFFF000000090000ull;
  push(EventKind::AuthFail, 130).pc = 0xFFFF000000082000ull;
  push(EventKind::SyscallExit, 140).imm = 1;
  push(EventKind::ExcEnter, 150).k1 = 1;  // still open at the end
  const std::string text = chrome_trace_json(ring);
  const auto doc = json::Value::parse(text);
  ASSERT_TRUE(doc.has_value()) << "synthetic export is not valid JSON";
  const json::Value* events = doc->get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_GT(events->size(), 0u);
  uint64_t begins = 0, ends = 0, instants = 0;
  double last_ts = -1;
  for (size_t i = 0; i < events->size(); ++i) {
    const json::Value& e = *events->at(i);
    ASSERT_NE(e.get("ph"), nullptr);
    const std::string ph = e.get("ph")->as_string();
    if (ph == "B") ++begins;
    if (ph == "E") ++ends;
    if (ph == "i") ++instants;
    if (ph == "M") continue;  // metadata rows carry no timestamp ordering
    ASSERT_NE(e.get("ts"), nullptr);
    EXPECT_GE(e.get("ts")->as_number(), last_ts)
        << "events must stay in chronological order";
    last_ts = e.get("ts")->as_number();
  }
  // The open exception window is closed at the last timestamp, so spans
  // balance even for a truncated stream.
  EXPECT_EQ(begins, 2u) << "syscall window + exception window";
  EXPECT_EQ(begins, ends);
  EXPECT_EQ(instants, 3u) << "key write, stage-2 fault, auth failure";
}

TEST(Observability, DisabledMachineHasNoCollector) {
  kernel::MachineConfig cfg;
  cfg.kernel.protection = compiler::ProtectionConfig::full();
  cfg.kernel.log_pac_failures = false;
  kernel::Machine m(cfg);
  m.add_user_program(kernel::workloads::null_syscall(3));
  m.boot();
  ASSERT_TRUE(m.run());
  EXPECT_EQ(m.stats(), nullptr);
}

}  // namespace
}  // namespace camo::obs
