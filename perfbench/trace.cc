#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace perfbench {

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Tracer::ThreadIndexLocked(std::thread::id id) {
  auto it = std::find(threads_.begin(), threads_.end(), id);
  if (it != threads_.end()) return static_cast<int>(it - threads_.begin());
  threads_.push_back(id);
  return static_cast<int>(threads_.size()) - 1;
}

int Tracer::Record(std::string name, double start_us, double end_us,
                   int parent) {
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.name = std::move(name);
  span.start_us = start_us;
  span.end_us = end_us;
  span.parent = parent;
  span.thread = ThreadIndexLocked(std::this_thread::get_id());
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

int Tracer::Begin(std::string name, int parent) {
  return Record(std::move(name), NowUs(), 0.0, parent);
}

void Tracer::End(int id) {
  const double now = NowUs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_us = now;
}

Span Tracer::Get(int id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_[static_cast<std::size_t>(id)];
}

std::vector<double> Tracer::DurationsUs(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(span.DurationUs());
  }
  return out;
}

double Tracer::TotalUs(std::string_view name) const {
  double total = 0.0;
  for (double d : DurationsUs(name)) total += d;
  return total;
}

std::vector<Span> Tracer::ChildrenOf(int parent, std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  for (const Span& span : spans_) {
    if (span.parent == parent && span.name == name) out.push_back(span);
  }
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double origin = spans_.empty() ? 0.0 : spans_.front().start_us;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d}}\n",
                 i == 0 ? "" : ",", s.name.c_str(), s.thread,
                 s.start_us - origin, s.DurationUs(), i, s.parent);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

dimqr::lm::ChoiceAnswer TimedModel::AnswerChoice(
    const dimqr::lm::ChoiceQuestion& question) {
  const double start = NowUs();
  dimqr::lm::ChoiceAnswer answer = inner_.AnswerChoice(question);
  tracer_.Record("solver.answer", start, NowUs(), parent_);
  return answer;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double percentile) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank =
      std::ceil(percentile / 100.0 * static_cast<double>(values.size()));
  const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double UnionUs(std::vector<Span> spans, double lo, double hi) {
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.start_us < b.start_us;
  });
  double covered = 0.0;
  double cursor = lo;
  for (const Span& s : spans) {
    const double begin = std::max(s.start_us, cursor);
    const double end = std::min(s.end_us, hi);
    if (end > begin) {
      covered += end - begin;
      cursor = end;
    }
  }
  return covered;
}

std::uint64_t Fnv1a(std::string_view bytes, std::uint64_t hash) {
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

}  // namespace perfbench
