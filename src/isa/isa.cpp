#include "isa/isa.h"

#include <array>

#include "support/bits.h"
#include "support/error.h"
#include "support/format.h"

namespace camo::isa {

namespace {

struct OpInfo {
  const char* name;
  Format format;
};

constexpr size_t kOpCount = static_cast<size_t>(Op::kCount);

constexpr std::array<OpInfo, kOpCount> make_op_table() {
  std::array<OpInfo, kOpCount> t{};
  auto set = [&](Op op, const char* name, Format f) {
    t[static_cast<size_t>(op)] = OpInfo{name, f};
  };
  set(Op::Invalid, "<invalid>", Format::None);
  set(Op::MOVZ, "movz", Format::MovW);
  set(Op::MOVK, "movk", Format::MovW);
  set(Op::MOVN, "movn", Format::MovW);
  set(Op::ADD, "add", Format::R3);
  set(Op::SUB, "sub", Format::R3);
  set(Op::ADDS, "adds", Format::R3);
  set(Op::SUBS, "subs", Format::R3);
  set(Op::AND, "and", Format::R3);
  set(Op::ORR, "orr", Format::R3);
  set(Op::EOR, "eor", Format::R3);
  set(Op::MUL, "mul", Format::R3);
  set(Op::UDIV, "udiv", Format::R3);
  set(Op::LSLV, "lslv", Format::R3);
  set(Op::LSRV, "lsrv", Format::R3);
  set(Op::ADDI, "add", Format::RI);
  set(Op::SUBI, "sub", Format::RI);
  set(Op::ADDSI, "adds", Format::RI);
  set(Op::SUBSI, "subs", Format::RI);
  set(Op::ANDI, "and", Format::RI);
  set(Op::ORRI, "orr", Format::RI);
  set(Op::EORI, "eor", Format::RI);
  set(Op::LSLI, "lsl", Format::Shift);
  set(Op::LSRI, "lsr", Format::Shift);
  set(Op::ASRI, "asr", Format::Shift);
  set(Op::BFI, "bfi", Format::BitF);
  set(Op::UBFX, "ubfx", Format::BitF);
  set(Op::ADR, "adr", Format::Adr);
  set(Op::LDR, "ldr", Format::Mem);
  set(Op::STR, "str", Format::Mem);
  set(Op::LDRB, "ldrb", Format::Mem);
  set(Op::STRB, "strb", Format::Mem);
  set(Op::LDP, "ldp", Format::MemP);
  set(Op::STP, "stp", Format::MemP);
  set(Op::LDP_POST, "ldp", Format::MemP);
  set(Op::STP_PRE, "stp", Format::MemP);
  set(Op::B, "b", Format::Branch);
  set(Op::BL, "bl", Format::Branch);
  set(Op::BCOND, "b.", Format::BCond);
  set(Op::CBZ, "cbz", Format::CmpBr);
  set(Op::CBNZ, "cbnz", Format::CmpBr);
  set(Op::BR, "br", Format::BReg);
  set(Op::BLR, "blr", Format::BReg);
  set(Op::RET, "ret", Format::BReg);
  set(Op::BRAA, "braa", Format::BReg);
  set(Op::BRAB, "brab", Format::BReg);
  set(Op::BLRAA, "blraa", Format::BReg);
  set(Op::BLRAB, "blrab", Format::BReg);
  set(Op::RETAA, "retaa", Format::None);
  set(Op::RETAB, "retab", Format::None);
  set(Op::MRS, "mrs", Format::Sys);
  set(Op::MSR, "msr", Format::Sys);
  set(Op::SVC, "svc", Format::Imm16);
  set(Op::HVC, "hvc", Format::Imm16);
  set(Op::BRK, "brk", Format::Imm16);
  set(Op::HLT, "hlt", Format::Imm16);
  set(Op::ERET, "eret", Format::None);
  set(Op::DAIFSET, "msr daifset, #2 //", Format::None);
  set(Op::DAIFCLR, "msr daifclr, #2 //", Format::None);
  set(Op::ISB, "isb", Format::None);
  set(Op::NOP, "nop", Format::None);
  set(Op::PACIA, "pacia", Format::Pac);
  set(Op::PACIB, "pacib", Format::Pac);
  set(Op::PACDA, "pacda", Format::Pac);
  set(Op::PACDB, "pacdb", Format::Pac);
  set(Op::AUTIA, "autia", Format::Pac);
  set(Op::AUTIB, "autib", Format::Pac);
  set(Op::AUTDA, "autda", Format::Pac);
  set(Op::AUTDB, "autdb", Format::Pac);
  set(Op::PACGA, "pacga", Format::R3);
  set(Op::XPACI, "xpaci", Format::Pac);
  set(Op::XPACD, "xpacd", Format::Pac);
  set(Op::PACIASP, "paciasp", Format::None);
  set(Op::AUTIASP, "autiasp", Format::None);
  set(Op::PACIBSP, "pacibsp", Format::None);
  set(Op::AUTIBSP, "autibsp", Format::None);
  set(Op::PACIA1716, "pacia1716", Format::None);
  set(Op::PACIB1716, "pacib1716", Format::None);
  set(Op::AUTIA1716, "autia1716", Format::None);
  set(Op::AUTIB1716, "autib1716", Format::None);
  set(Op::XPACLRI, "xpaclri", Format::None);
  set(Op::SWP, "swp", Format::R3);
  return t;
}

constexpr std::array<OpInfo, kOpCount> kOpTable = make_op_table();

const OpInfo& info(Op op) {
  const auto i = static_cast<size_t>(op);
  if (i >= kOpCount) fail("isa: bad opcode " + std::to_string(i));
  return kOpTable[i];
}

void check_range(int64_t v, int64_t lo, int64_t hi, const char* what) {
  if (v < lo || v > hi)
    fail(std::string("isa: ") + what + " out of range: " + std::to_string(v));
}

void check_reg(uint8_t r, const char* what) {
  if (r > kRegZrSp) fail(std::string("isa: bad register in ") + what);
}

}  // namespace

Format format_of(Op op) { return info(op).format; }
const char* op_name(Op op) { return info(op).name; }

bool is_hint_space(Op op) {
  switch (op) {
    case Op::NOP:
    case Op::PACIASP:
    case Op::AUTIASP:
    case Op::PACIBSP:
    case Op::AUTIBSP:
    case Op::PACIA1716:
    case Op::PACIB1716:
    case Op::AUTIA1716:
    case Op::AUTIB1716:
    case Op::XPACLRI:
    case Op::ISB:
      return true;
    default:
      return false;
  }
}

bool is_pauth(Op op) {
  switch (op) {
    case Op::PACIA:
    case Op::PACIB:
    case Op::PACDA:
    case Op::PACDB:
    case Op::AUTIA:
    case Op::AUTIB:
    case Op::AUTDA:
    case Op::AUTDB:
    case Op::PACGA:
    case Op::XPACI:
    case Op::XPACD:
    case Op::BRAA:
    case Op::BRAB:
    case Op::BLRAA:
    case Op::BLRAB:
    case Op::RETAA:
    case Op::RETAB:
    case Op::PACIASP:
    case Op::AUTIASP:
    case Op::PACIBSP:
    case Op::AUTIBSP:
    case Op::PACIA1716:
    case Op::PACIB1716:
    case Op::AUTIA1716:
    case Op::AUTIB1716:
    case Op::XPACLRI:
      return true;
    default:
      return false;
  }
}

const char* sysreg_name(SysReg r) {
  switch (r) {
    case SysReg::APIAKeyLo: return "apiakeylo_el1";
    case SysReg::APIAKeyHi: return "apiakeyhi_el1";
    case SysReg::APIBKeyLo: return "apibkeylo_el1";
    case SysReg::APIBKeyHi: return "apibkeyhi_el1";
    case SysReg::APDAKeyLo: return "apdakeylo_el1";
    case SysReg::APDAKeyHi: return "apdakeyhi_el1";
    case SysReg::APDBKeyLo: return "apdbkeylo_el1";
    case SysReg::APDBKeyHi: return "apdbkeyhi_el1";
    case SysReg::APGAKeyLo: return "apgakeylo_el1";
    case SysReg::APGAKeyHi: return "apgakeyhi_el1";
    case SysReg::SCTLR_EL1: return "sctlr_el1";
    case SysReg::TTBR0_EL1: return "ttbr0_el1";
    case SysReg::TTBR1_EL1: return "ttbr1_el1";
    case SysReg::VBAR_EL1: return "vbar_el1";
    case SysReg::ESR_EL1: return "esr_el1";
    case SysReg::ELR_EL1: return "elr_el1";
    case SysReg::SPSR_EL1: return "spsr_el1";
    case SysReg::FAR_EL1: return "far_el1";
    case SysReg::CONTEXTIDR_EL1: return "contextidr_el1";
    case SysReg::TPIDR_EL1: return "tpidr_el1";
    case SysReg::SP_EL0: return "sp_el0";
    case SysReg::CNTVCT_EL0: return "cntvct_el0";
    case SysReg::CurrentEL: return "currentel";
    case SysReg::DAIF: return "daif";
    case SysReg::MPIDR_EL1: return "mpidr_el1";
    case SysReg::ISR_EL1: return "isr_el1";
    case SysReg::kCount: break;
  }
  return "<bad-sysreg>";
}

const char* cond_name(Cond c) {
  switch (c) {
    case Cond::EQ: return "eq";
    case Cond::NE: return "ne";
    case Cond::HS: return "hs";
    case Cond::LO: return "lo";
    case Cond::MI: return "mi";
    case Cond::PL: return "pl";
    case Cond::HI: return "hi";
    case Cond::LS: return "ls";
    case Cond::GE: return "ge";
    case Cond::LT: return "lt";
    case Cond::GT: return "gt";
    case Cond::LE: return "le";
    case Cond::AL: return "al";
  }
  return "<bad-cond>";
}

std::string reg_name(uint8_t r, bool sp_context) {
  if (r == kRegZrSp) return sp_context ? "sp" : "xzr";
  if (r == kRegFp) return "fp";
  if (r == kRegLr) return "lr";
  std::string name = "x";
  name += std::to_string(r);
  return name;
}

// ---------------------------------------------------------------------------
// Encode
// ---------------------------------------------------------------------------

uint32_t encode(const Inst& inst) {
  const Format f = format_of(inst.op);
  uint64_t w = static_cast<uint64_t>(inst.op) << 24;
  switch (f) {
    case Format::None:
      break;
    case Format::MovW:
      check_reg(inst.rd, "movw");
      check_range(inst.imm, 0, 0xFFFF, "movw imm16");
      check_range(inst.hw, 0, 3, "movw hw");
      w |= inst.rd;
      w |= static_cast<uint64_t>(inst.imm & 0xFFFF) << 5;
      w |= static_cast<uint64_t>(inst.hw) << 21;
      break;
    case Format::R3:
      check_reg(inst.rd, "r3");
      check_reg(inst.rn, "r3");
      check_reg(inst.rm, "r3");
      w |= inst.rd;
      w |= static_cast<uint64_t>(inst.rn) << 5;
      w |= static_cast<uint64_t>(inst.rm) << 10;
      break;
    case Format::RI:
      check_reg(inst.rd, "ri");
      check_reg(inst.rn, "ri");
      check_range(inst.imm, 0, 0xFFF, "imm12");
      w |= inst.rd;
      w |= static_cast<uint64_t>(inst.rn) << 5;
      w |= static_cast<uint64_t>(inst.imm & 0xFFF) << 10;
      break;
    case Format::Shift:
      check_reg(inst.rd, "shift");
      check_reg(inst.rn, "shift");
      check_range(inst.imm, 0, 63, "shift amount");
      w |= inst.rd;
      w |= static_cast<uint64_t>(inst.rn) << 5;
      w |= static_cast<uint64_t>(inst.imm & 0x3F) << 10;
      break;
    case Format::BitF:
      check_reg(inst.rd, "bitfield");
      check_reg(inst.rn, "bitfield");
      check_range(inst.lsb, 0, 63, "bitfield lsb");
      check_range(inst.width, 1, 64 - inst.lsb, "bitfield width");
      w |= inst.rd;
      w |= static_cast<uint64_t>(inst.rn) << 5;
      w |= static_cast<uint64_t>(inst.lsb) << 10;
      w |= static_cast<uint64_t>(inst.width & 0x3F) << 16;  // 64 encodes as 0
      break;
    case Format::Adr:
      check_reg(inst.rd, "adr");
      check_range(inst.imm, -(1 << 18), (1 << 18) - 1, "adr offset");
      w |= inst.rd;
      w |= (static_cast<uint64_t>(inst.imm) & mask(19)) << 5;
      break;
    case Format::Mem: {
      const int scale = (inst.op == Op::LDRB || inst.op == Op::STRB) ? 1 : 8;
      check_reg(inst.rd, "mem");
      check_reg(inst.rn, "mem");
      if (inst.imm % scale != 0) fail("isa: unscaled mem offset");
      check_range(inst.imm / scale, 0, 0xFFF, "mem offset");
      w |= inst.rd;
      w |= static_cast<uint64_t>(inst.rn) << 5;
      w |= static_cast<uint64_t>((inst.imm / scale) & 0xFFF) << 10;
      break;
    }
    case Format::MemP:
      check_reg(inst.rd, "memp");
      check_reg(inst.rn, "memp");
      check_reg(inst.rm, "memp");
      if (inst.imm % 8 != 0) fail("isa: unscaled pair offset");
      check_range(inst.imm / 8, -64, 63, "pair offset");
      w |= inst.rd;
      w |= static_cast<uint64_t>(inst.rn) << 5;
      w |= static_cast<uint64_t>(inst.rm) << 10;
      w |= (static_cast<uint64_t>(inst.imm / 8) & mask(7)) << 15;
      break;
    case Format::Branch:
      if (inst.imm % 4 != 0) fail("isa: unaligned branch offset");
      check_range(inst.imm / 4, -(1 << 23), (1 << 23) - 1, "branch offset");
      w |= (static_cast<uint64_t>(inst.imm / 4) & mask(24));
      break;
    case Format::BCond:
      if (inst.imm % 4 != 0) fail("isa: unaligned branch offset");
      check_range(inst.imm / 4, -(1 << 17), (1 << 17) - 1, "bcond offset");
      w |= static_cast<uint64_t>(inst.cond) & 0xF;
      w |= (static_cast<uint64_t>(inst.imm / 4) & mask(18)) << 4;
      break;
    case Format::CmpBr:
      check_reg(inst.rd, "cbz");
      if (inst.imm % 4 != 0) fail("isa: unaligned branch offset");
      check_range(inst.imm / 4, -(1 << 18), (1 << 18) - 1, "cbz offset");
      w |= inst.rd;
      w |= (static_cast<uint64_t>(inst.imm / 4) & mask(19)) << 5;
      break;
    case Format::BReg:
      check_reg(inst.rn, "breg");
      check_reg(inst.rm, "breg");
      w |= static_cast<uint64_t>(inst.rn) << 5;
      w |= static_cast<uint64_t>(inst.rm) << 10;
      break;
    case Format::Sys:
      check_reg(inst.rd, "sys");
      if (inst.sysreg >= SysReg::kCount) fail("isa: bad sysreg");
      w |= inst.rd;
      w |= static_cast<uint64_t>(inst.sysreg) << 8;
      break;
    case Format::Pac:
      check_reg(inst.rd, "pac");
      check_reg(inst.rn, "pac");
      w |= inst.rd;
      w |= static_cast<uint64_t>(inst.rn) << 5;
      break;
    case Format::Imm16:
      check_range(inst.imm, 0, 0xFFFF, "imm16");
      w |= (static_cast<uint64_t>(inst.imm) & 0xFFFF) << 5;
      break;
  }
  return static_cast<uint32_t>(w);
}

// ---------------------------------------------------------------------------
// Decode
// ---------------------------------------------------------------------------

Inst decode(uint32_t word) {
  Inst inst;
  const auto opnum = bits(word, 24, 8);
  if (opnum >= kOpCount || opnum == 0) return inst;  // Op::Invalid
  inst.op = static_cast<Op>(opnum);
  switch (format_of(inst.op)) {
    case Format::None:
      break;
    case Format::MovW:
      inst.rd = static_cast<uint8_t>(bits(word, 0, 5));
      inst.imm = static_cast<int64_t>(bits(word, 5, 16));
      inst.hw = static_cast<uint8_t>(bits(word, 21, 2));
      break;
    case Format::R3:
      inst.rd = static_cast<uint8_t>(bits(word, 0, 5));
      inst.rn = static_cast<uint8_t>(bits(word, 5, 5));
      inst.rm = static_cast<uint8_t>(bits(word, 10, 5));
      break;
    case Format::RI:
      inst.rd = static_cast<uint8_t>(bits(word, 0, 5));
      inst.rn = static_cast<uint8_t>(bits(word, 5, 5));
      inst.imm = static_cast<int64_t>(bits(word, 10, 12));
      break;
    case Format::Shift:
      inst.rd = static_cast<uint8_t>(bits(word, 0, 5));
      inst.rn = static_cast<uint8_t>(bits(word, 5, 5));
      inst.imm = static_cast<int64_t>(bits(word, 10, 6));
      break;
    case Format::BitF:
      inst.rd = static_cast<uint8_t>(bits(word, 0, 5));
      inst.rn = static_cast<uint8_t>(bits(word, 5, 5));
      inst.lsb = static_cast<uint8_t>(bits(word, 10, 6));
      inst.width = static_cast<uint8_t>(bits(word, 16, 6));
      if (inst.width == 0) inst.width = 64;  // 64 encodes as 0
      if (inst.width > 64 - inst.lsb) {      // malformed word
        inst = Inst{};
        return inst;
      }
      break;
    case Format::Adr:
      inst.rd = static_cast<uint8_t>(bits(word, 0, 5));
      inst.imm = sign_extend(bits(word, 5, 19), 19);
      break;
    case Format::Mem: {
      const int scale = (inst.op == Op::LDRB || inst.op == Op::STRB) ? 1 : 8;
      inst.rd = static_cast<uint8_t>(bits(word, 0, 5));
      inst.rn = static_cast<uint8_t>(bits(word, 5, 5));
      inst.imm = static_cast<int64_t>(bits(word, 10, 12)) * scale;
      break;
    }
    case Format::MemP:
      inst.rd = static_cast<uint8_t>(bits(word, 0, 5));
      inst.rn = static_cast<uint8_t>(bits(word, 5, 5));
      inst.rm = static_cast<uint8_t>(bits(word, 10, 5));
      inst.imm = sign_extend(bits(word, 15, 7), 7) * 8;
      break;
    case Format::Branch:
      inst.imm = sign_extend(bits(word, 0, 24), 24) * 4;
      break;
    case Format::BCond:
      inst.cond = static_cast<Cond>(bits(word, 0, 4));
      inst.imm = sign_extend(bits(word, 4, 18), 18) * 4;
      break;
    case Format::CmpBr:
      inst.rd = static_cast<uint8_t>(bits(word, 0, 5));
      inst.imm = sign_extend(bits(word, 5, 19), 19) * 4;
      break;
    case Format::BReg:
      inst.rn = static_cast<uint8_t>(bits(word, 5, 5));
      inst.rm = static_cast<uint8_t>(bits(word, 10, 5));
      break;
    case Format::Sys: {
      inst.rd = static_cast<uint8_t>(bits(word, 0, 5));
      const auto sr = bits(word, 8, 8);
      if (sr >= static_cast<uint64_t>(SysReg::kCount)) {
        inst.op = Op::Invalid;
        return inst;
      }
      inst.sysreg = static_cast<SysReg>(sr);
      break;
    }
    case Format::Pac:
      inst.rd = static_cast<uint8_t>(bits(word, 0, 5));
      inst.rn = static_cast<uint8_t>(bits(word, 5, 5));
      break;
    case Format::Imm16:
      inst.imm = static_cast<int64_t>(bits(word, 5, 16));
      break;
  }
  return inst;
}

// ---------------------------------------------------------------------------
// Disassembly
// ---------------------------------------------------------------------------

std::string disasm(const Inst& inst, uint64_t addr) {
  const char* name = op_name(inst.op);
  switch (format_of(inst.op)) {
    case Format::None:
      return name;
    case Format::MovW:
      return strformat("%s %s, #0x%llx, lsl #%d", name,
                       reg_name(inst.rd).c_str(),
                       static_cast<unsigned long long>(inst.imm),
                       inst.hw * 16);
    case Format::R3:
      return strformat("%s %s, %s, %s", name, reg_name(inst.rd).c_str(),
                       reg_name(inst.rn).c_str(), reg_name(inst.rm).c_str());
    case Format::RI: {
      const bool sp = inst.op == Op::ADDI || inst.op == Op::SUBI;
      return strformat("%s %s, %s, #%lld", name,
                       reg_name(inst.rd, sp).c_str(),
                       reg_name(inst.rn, sp).c_str(),
                       static_cast<long long>(inst.imm));
    }
    case Format::Shift:
      return strformat("%s %s, %s, #%lld", name, reg_name(inst.rd).c_str(),
                       reg_name(inst.rn).c_str(),
                       static_cast<long long>(inst.imm));
    case Format::BitF:
      return strformat("%s %s, %s, #%d, #%d", name, reg_name(inst.rd).c_str(),
                       reg_name(inst.rn).c_str(), inst.lsb, inst.width);
    case Format::Adr:
      return strformat("%s %s, 0x%llx", name, reg_name(inst.rd).c_str(),
                       static_cast<unsigned long long>(addr + static_cast<uint64_t>(inst.imm)));
    case Format::Mem:
      return strformat("%s %s, [%s, #%lld]", name, reg_name(inst.rd).c_str(),
                       reg_name(inst.rn, true).c_str(),
                       static_cast<long long>(inst.imm));
    case Format::MemP: {
      const char* suffix = inst.op == Op::STP_PRE  ? "!"
                           : inst.op == Op::LDP_POST ? " /*post*/"
                                                     : "";
      if (inst.op == Op::LDP_POST)
        return strformat("%s %s, %s, [%s], #%lld", name,
                         reg_name(inst.rd).c_str(), reg_name(inst.rm).c_str(),
                         reg_name(inst.rn, true).c_str(),
                         static_cast<long long>(inst.imm));
      return strformat("%s %s, %s, [%s, #%lld]%s", name,
                       reg_name(inst.rd).c_str(), reg_name(inst.rm).c_str(),
                       reg_name(inst.rn, true).c_str(),
                       static_cast<long long>(inst.imm), suffix);
    }
    case Format::Branch:
      return strformat("%s 0x%llx", name,
                       static_cast<unsigned long long>(addr + static_cast<uint64_t>(inst.imm)));
    case Format::BCond:
      return strformat("b.%s 0x%llx", cond_name(inst.cond),
                       static_cast<unsigned long long>(addr + static_cast<uint64_t>(inst.imm)));
    case Format::CmpBr:
      return strformat("%s %s, 0x%llx", name, reg_name(inst.rd).c_str(),
                       static_cast<unsigned long long>(addr + static_cast<uint64_t>(inst.imm)));
    case Format::BReg:
      if (inst.op == Op::RET) return inst.rn == kRegLr ? "ret" : strformat("ret %s", reg_name(inst.rn).c_str());
      if (inst.op == Op::BRAA || inst.op == Op::BRAB || inst.op == Op::BLRAA ||
          inst.op == Op::BLRAB)
        return strformat("%s %s, %s", name, reg_name(inst.rn).c_str(),
                         reg_name(inst.rm, true).c_str());
      return strformat("%s %s", name, reg_name(inst.rn).c_str());
    case Format::Sys:
      if (inst.op == Op::MRS)
        return strformat("mrs %s, %s", reg_name(inst.rd).c_str(),
                         sysreg_name(inst.sysreg));
      return strformat("msr %s, %s", sysreg_name(inst.sysreg),
                       reg_name(inst.rd).c_str());
    case Format::Pac:
      return strformat("%s %s, %s", name, reg_name(inst.rd).c_str(),
                       reg_name(inst.rn, true).c_str());
    case Format::Imm16:
      return strformat("%s #0x%llx", name,
                       static_cast<unsigned long long>(inst.imm));
  }
  return "<bad-format>";
}

std::string disasm_word(uint32_t word, uint64_t addr) {
  return disasm(decode(word), addr);
}

}  // namespace camo::isa
