#include "common.h"

#include <sched.h>
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace perfbench {

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  unsigned int max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    size_t b = s.find_first_not_of(' ');
    size_t e = s.find_last_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b, e - b + 1);
  }
#endif
  return "unknown";
}

}  // namespace

void Result::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

bool Result::Check(bool ok, const std::string& what) {
  if (!ok) {
    correct_ = false;
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  }
  return ok;
}

std::string Result::MetricsJson() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    if (!first) out += ", ";
    first = false;
    out += JsonString(name) + ": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return out + "}}";
}

std::string Result::CountersJson() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, v] : counters_) {
    if (!first) out += ", ";
    first = false;
    out += JsonString(name) + ": " + std::to_string(v);
  }
  return out + "}";
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(static_cast<double>(s.end_ns - s.start_ns));
  }
  return out;
}

std::vector<double> Tracer::SelfTimes() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
  }
  // Spans of one tracer come from one thread, so a span's children do not
  // overlap each other: the time they cover is the sum of their durations.
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<size_t>(s.parent)] -=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  return self;
}

double Tracer::TotalNs(const std::string& name) const {
  double total = 0;
  for (double d : Durations(name)) total += d;
  return total;
}

void Tracer::Merge(const Tracer& other) {
  const int base = static_cast<int>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(s);
  }
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::vector<double> self = SelfTimes();
  out << "name\tgroup\tparent\tstart_ns\tend_ns\tself_ns\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << s.name << '\t' << s.group << '\t' << s.parent << '\t'
        << s.start_ns << '\t' << s.end_ns << '\t'
        << static_cast<int64_t>(self[i]) << '\n';
  }
  return static_cast<bool>(out);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double rank = std::ceil(q * static_cast<double>(values.size()));
  size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double HeapMb() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

namespace {

/// The CPUs this process may run on, as nproc counts them, read once
/// (before PinToOneCpu narrows the set).
const std::vector<int>& AllowedCpuList() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) return out;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) out.push_back(cpu);
    }
    return out;
  }();
  return cpus;
}

}  // namespace

void PinToOneCpu() {
  const std::vector<int>& cpus = AllowedCpuList();
  if (cpus.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus.back(), &one);
  if (sched_setaffinity(0, sizeof(one), &one) != 0) {
    std::fprintf(stderr, "perfbench: could not pin to CPU %d\n", cpus.back());
  }
}

std::string HostFingerprint() {
  std::string out = "{\"nproc\": " + std::to_string(AllowedCpuList().size());
  out += ", \"cpu\": " + JsonString(CpuModel());
#if defined(__clang__)
  out += ", \"compiler\": " + JsonString("clang " __VERSION__);
#else
  out += ", \"compiler\": " + JsonString("gcc " __VERSION__);
#endif
  out += ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE);
  return out + "}";
}

uint64_t Fnv1a(const std::string& bytes, uint64_t h) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

void Require(const prodb::Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: %s: %s\n", what, st.ToString().c_str());
    std::exit(2);
  }
}

}  // namespace perfbench
