#ifndef DIMQR_PERFBENCH_TRACE_H_
#define DIMQR_PERFBENCH_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "lm/model_api.h"

/// \file trace.h
/// The benchmark's own span recorder. Spans wrap calls into the public
/// functions of dimqr's modules from the benchmark's side; nothing inside the
/// library is instrumented. Spans stay in memory and are written out as
/// Chrome Trace Event JSON when the run ends.

namespace perfbench {

/// Microseconds on the steady clock.
double NowUs();

/// \brief One closed span. `parent` is the id of the enclosing span, or -1.
struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;
  int thread = 0;  ///< Small per-run index of the recording thread.

  double DurationUs() const { return end_us - start_us; }
};

/// \brief Thread-safe in-memory span log.
class Tracer {
 public:
  /// Records a finished span and returns its id.
  int Record(std::string name, double start_us, double end_us,
             int parent = -1);
  /// Opens a span now and returns its id; close it with End.
  int Begin(std::string name, int parent = -1);
  void End(int id);

  /// Durations (us) of every span with this name, in record order.
  std::vector<double> DurationsUs(std::string_view name) const;
  /// Sum of DurationsUs(name).
  double TotalUs(std::string_view name) const;
  /// Spans with this name whose parent is `parent`.
  std::vector<Span> ChildrenOf(int parent, std::string_view name) const;
  Span Get(int id) const;

  /// Writes every span as Chrome Trace Event JSON ("X" events).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  int ThreadIndexLocked(std::thread::id id);

  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<std::thread::id> threads_;
};

/// \brief RAII span: open from construction to destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, int parent = -1)
      : tracer_(tracer), id_(tracer.Begin(std::move(name), parent)) {}
  ~ScopedSpan() { tracer_.End(id_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

/// \brief lm::Model decorator that records a "solver.answer" span around
/// every AnswerChoice call of the wrapped model, as a child of the span id
/// set with set_parent(). Everything else forwards unchanged, so scores are
/// identical to the undecorated model's.
class TimedModel : public dimqr::lm::Model {
 public:
  TimedModel(dimqr::lm::Model& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  void set_parent(int parent) { parent_ = parent; }

  const std::string& name() const override { return inner_.name(); }
  dimqr::lm::ChoiceAnswer AnswerChoice(
      const dimqr::lm::ChoiceQuestion& question) override;
  std::string AnswerText(const dimqr::lm::TextQuestion& question) override {
    return inner_.AnswerText(question);
  }
  std::vector<dimqr::lm::ExtractedQuantity> ExtractQuantities(
      const dimqr::lm::ExtractionQuestion& question) override {
    return inner_.ExtractQuantities(question);
  }
  bool SupportsParallelEval() const override {
    return inner_.SupportsParallelEval();
  }

 private:
  dimqr::lm::Model& inner_;
  Tracer& tracer_;
  int parent_ = -1;
};

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);
/// Nearest-rank percentile (0..100) of `values` (0 when empty).
double Percentile(std::vector<double> values, double percentile);
/// Length of the union of the spans' intervals, clipped to [lo, hi].
double UnionUs(std::vector<Span> spans, double lo, double hi);

/// 64-bit FNV-1a, for output digests.
std::uint64_t Fnv1a(std::string_view bytes,
                    std::uint64_t hash = 14695981039346656037ull);

}  // namespace perfbench

#endif  // DIMQR_PERFBENCH_TRACE_H_
