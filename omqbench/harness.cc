#include "harness.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdlib>
#include <fstream>

namespace omqbench {

std::string SeedTag(uint64_t seed) {
  Rng rng(seed ^ 0x6f6d7162656e6368ULL);
  std::string tag;
  for (int i = 0; i < 4; ++i) {
    tag.push_back(static_cast<char>('a' + rng.Below(26)));
  }
  return tag;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  if (rank == 0) rank = 1;
  return v[std::min(rank, v.size()) - 1];
}

bool ParseAnswersReply(const std::string& reply, AnswerSet* out) {
  out->clear();
  if (reply.rfind("ok answers ", 0) != 0) return false;
  size_t n_pos = reply.find(" n=");
  if (n_pos == std::string::npos) return false;
  size_t declared = std::strtoul(reply.c_str() + n_pos + 3, nullptr, 10);
  size_t pos = reply.find('(', n_pos);
  while (pos != std::string::npos) {
    size_t close = reply.find(')', pos);
    if (close == std::string::npos) return false;
    Tuple tuple;
    size_t start = pos + 1;
    while (start <= close) {
      size_t end = reply.find(',', start);
      if (end == std::string::npos || end > close) end = close;
      std::string name = reply.substr(start, end - start);
      size_t us = name.rfind('_');
      if (us == std::string::npos || us + 1 >= name.size()) return false;
      tuple.push_back(std::atoi(name.c_str() + us + 1));
      start = end + 1;
    }
    out->insert(std::move(tuple));
    pos = reply.find('(', close);
  }
  return out->size() == declared;
}

int64_t Tracer::Begin(const std::string& name, uint64_t request,
                      int64_t parent) {
  SpanRecord s;
  s.name = name;
  s.request = request;
  s.parent = parent;
  s.start_us = MicrosBetween(origin_, Clock::now());
  spans_.push_back(std::move(s));
  return static_cast<int64_t>(spans_.size()) - 1;
}

double Tracer::End(int64_t id) {
  SpanRecord& s = spans_[static_cast<size_t>(id)];
  s.end_us = MicrosBetween(origin_, Clock::now());
  return s.Micros();
}

bool Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (i) out << ",\n";
    char buf[96];
    std::snprintf(buf, sizeof buf, "\"ts\":%.3f,\"dur\":%.3f", s.start_us,
                  s.Micros());
    out << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
        << buf << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}}";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

Span::Span(Tracer* tracer, const std::string& name, uint64_t request,
           int64_t parent)
    : tracer_(tracer) {
  if (tracer_ != nullptr) id_ = tracer_->Begin(name, request, parent);
  t0_ = Clock::now();
}

double Span::Stop() {
  if (micros_ < 0) {
    micros_ = tracer_ != nullptr ? tracer_->End(id_)
                                 : MicrosBetween(t0_, Clock::now());
  }
  return micros_;
}

void RunResult::Check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failed <= 5) std::fprintf(stderr, "omqbench: FAILED %s\n", what.c_str());
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace omqbench
