#include "obs/collector.h"

#include <string>

#include "obs/chrome_trace.h"

namespace camo::obs {

namespace {
constexpr uint8_t kExcClassSvc = 1;   // mirrors cpu::ExcClass::Svc
constexpr uint8_t kOutcomeDetected = 1;  // mirrors attacks::Outcome::Detected
constexpr uint64_t kBurstGapCycles = 32;
}  // namespace

Collector::Collector(const Options& opts)
    : opts_(opts),
      ring_(opts.trace_capacity),
      audit_log_(opts.audit_capacity),
      flight_(opts.flight_capacity) {
  for (int el = 0; el < 3; ++el) {
    cycles_el_[el] = &reg_.counter("cycles.el" + std::to_string(el));
    insn_el_[el] = &reg_.counter("insn.el" + std::to_string(el));
  }
  for (size_t c = 0; c < static_cast<size_t>(OpClass::kCount); ++c)
    ops_[c] = &reg_.counter(std::string("ops.") +
                            op_class_name(static_cast<OpClass>(c)));
  syscall_cycles_ = &reg_.histogram("syscall.cycles");
  // Created eagerly so the registry shape is identical whether or not the
  // run produced samples (fleet merges and cross-config diffs rely on it).
  sign_to_auth_ = &reg_.histogram("pauth.sign_to_auth.cycles");
  key_switch_ = &reg_.histogram("key.switch.cycles");
}

void Collector::count(Counter*& slot, const char* name, const char* label) {
  if (slot == nullptr) slot = &reg_.counter(std::string(name) + label);
  slot->inc();
}

void Collector::emit(const TraceEvent& e) {
  ring_.emit(e);
  Counter*& total = by_kind_[static_cast<uint8_t>(e.kind)];
  switch (e.kind) {
    case EventKind::ExcEnter:
      count(total, "exc.enter");
      count(exc_class_[e.k1], "exc.", exc_class_label(e.k1));
      if (e.k1 == kExcClassSvc) {
        count(syscall_count_, "syscall.count");
        syscall_open_ = true;
        syscall_enter_cycles_ = e.cycles;
        syscall_nr_ = static_cast<uint16_t>(e.b);
        TraceEvent sc{};
        sc.kind = EventKind::SyscallEnter;
        sc.cycles = e.cycles;
        sc.pc = e.pc;
        sc.el = e.el;
        sc.imm = syscall_nr_;
        if (!replaying_) ring_.emit(sc);
      }
      break;
    case EventKind::ExcExit:
      count(total, "exc.exit");
      if (syscall_open_ && e.k2 == 0) {  // ERET back to EL0 closes the window
        syscall_open_ = false;
        const uint64_t window = e.cycles - syscall_enter_cycles_;
        syscall_cycles_->record(window);
        TraceEvent sc{};
        sc.kind = EventKind::SyscallExit;
        sc.cycles = e.cycles;
        sc.pc = e.a;
        sc.el = e.el;
        sc.imm = syscall_nr_;
        sc.a = window;
        if (!replaying_) ring_.emit(sc);
      }
      break;
    case EventKind::KeyWrite:
      count(total, "key.write");
      count(key_write_[e.k1], "key.write.", pac_key_label(e.k1));
      if (burst_open_ && e.cycles - burst_last_ <= kBurstGapCycles) {
        burst_last_ = e.cycles;
        ++burst_writes_;
      } else {
        if (burst_open_ && burst_writes_ >= 2)
          key_switch_->record(burst_last_ - burst_first_);
        burst_open_ = true;
        burst_first_ = burst_last_ = e.cycles;
        burst_writes_ = 1;
      }
      break;
    case EventKind::PacSign:
      count(total, "pauth.sign");
      count(sign_[e.k1], "pauth.sign.", pac_key_label(e.k1));
      break;
    case EventKind::AuthOk:
      count(total, "pauth.auth.ok");
      break;
    case EventKind::AuthFail:
      count(total, "pauth.auth.fail");
      count(auth_fail_[e.k1], "pauth.auth.fail.", pac_key_label(e.k1));
      break;
    case EventKind::Stage2Fault:
      count(total, "stage2.fault");
      break;
    case EventKind::ContextSwitch:
      count(total, "sched.switch");
      break;
    case EventKind::HvcCall:
      count(total, "hvc.call");
      break;
    case EventKind::ModuleLoad:
      count(total, "module.load");
      break;
    case EventKind::MsrDenied:
      count(total, "msr.denied");
      break;
    case EventKind::AttackOutcome:
      count(total, "attack.outcome");
      count(outcome_[e.k1], "attack.", outcome_label(e.k1));
      break;
    default:
      break;
  }
  // Flight-recorder capture: any protection violation or attack detection
  // freezes the instruction ring and snapshots machine state (first trigger
  // wins — it is the causal root).
  const bool violation =
      e.kind == EventKind::AuthFail || e.kind == EventKind::Stage2Fault ||
      e.kind == EventKind::MsrDenied ||
      (e.kind == EventKind::AttackOutcome && e.k1 == kOutcomeDetected);
  if (violation) flight_.trigger(e);
}

void Collector::replay(const TraceEvent& e) {
  replaying_ = true;
  emit(e);
  replaying_ = false;
}

void Collector::audit(const AuditEvent& e) {
  audit_log_.audit(e);
  switch (e.kind) {
    case AuditKind::Sign:
      if (pending_signs_.size() < kMaxPendingSigns ||
          pending_signs_.count(e.ptr2)) {
        pending_signs_[e.ptr2] = e.cycles;
      } else {
        reg_.counter("pauth.sign_to_auth.dropped").inc();
      }
      break;
    case AuditKind::AuthOk:
    case AuditKind::AuthFail: {
      const auto it = pending_signs_.find(e.ptr);
      if (it != pending_signs_.end()) {
        sign_to_auth_->record(e.cycles - it->second);
        pending_signs_.erase(it);
      }
      break;
    }
    default:
      break;
  }
}

void Collector::enable_percpu(unsigned cores) {
  insn_cpu_.clear();
  cycles_cpu_.clear();
  for (unsigned c = 0; c < cores; ++c) {
    insn_cpu_.push_back(&reg_.counter("insn.c" + std::to_string(c)));
    cycles_cpu_.push_back(&reg_.counter("cycles.c" + std::to_string(c)));
  }
}

void Collector::retire(uint64_t pc, uint8_t el, uint8_t op_class,
                       uint64_t cycles) {
  // retired_cycles_ is the cycle counter *before* this step (summing the
  // retire feed reproduces Cpu::cycles()), matching the pre-step pc/el.
  flight_.retire(retired_cycles_, pc, op_class, el);
  retired_cycles_ += cycles;
  if (el < 3) {
    cycles_el_[el]->inc(cycles);
    insn_el_[el]->inc();
  }
  if (op_class < static_cast<uint8_t>(OpClass::kCount))
    ops_[op_class]->inc();
  if (active_cpu_ < insn_cpu_.size()) {
    insn_cpu_[active_cpu_]->inc();
    cycles_cpu_[active_cpu_]->inc(cycles);
  }
  if (opts_.profile) prof_.retire(pc, el, op_class, cycles);
  if (opts_.callgraph) cg_.retire(pc, el, op_class, cycles);
}

void Collector::control_flow(CfKind kind, uint64_t from_pc, uint64_t to_pc,
                             uint8_t info) {
  if (opts_.callgraph) cg_.control_flow(kind, from_pc, to_pc, info);
}

std::string Collector::chrome_trace_json() const {
  return obs::chrome_trace_json(ring_.snapshot());
}

}  // namespace camo::obs
