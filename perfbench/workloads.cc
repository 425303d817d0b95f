#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>

#include "core/aligned.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "dimeval/benchmark.h"
#include "eval/harness.h"
#include "kb/kb.h"
#include "linking/annotator.h"
#include "linking/linker.h"
#include "lm/kernels.h"
#include "lm/mock_llm.h"
#include "lm/prefix_cache.h"
#include "lm/resilient_model.h"
#include "lm/transformer.h"
#include "serve/loadgen.h"
#include "serve/report.h"
#include "serve/server.h"
#include "solver/dimperc.h"
#include "solver/pipelines.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace dimqr;

double SecondsSince(double start_us) { return (NowUs() - start_us) / 1e6; }

template <typename T>
double AsDouble(T value) {
  return static_cast<double>(value);
}

/// num / den, or 0 when den is 0.
template <typename N, typename D>
double Ratio(N num, D den) {
  return den == 0 ? 0.0 : AsDouble(num) / AsDouble(den);
}

std::string Hex(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

/// Per-layer metrics every traced run prints, with units. A layer that a
/// workload does not exercise reports 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerUnits() {
  static const auto* const kUnits =
      new std::vector<std::pair<std::string, std::string>>{
          {"kb.build_ms", "ms"},
          {"linking.build_ms", "ms"},
          {"linking.annotate_us.p50", "us"},
          {"linking.annotate_us.p99", "us"},
          {"dimeval.build_ms", "ms"},
          {"dimeval.instances", "count"},
          {"kg.bootstrap_triples", "count"},
          {"solver.create_ms", "ms"},
          {"solver.train_step_ms.p50", "ms"},
          {"solver.train_step_ms.p99", "ms"},
          {"solver.train_step_share", "share"},
          {"solver.answer_us.p50", "us"},
          {"solver.answer_us.p99", "us"},
          {"eval.extraction_ms", "ms"},
          {"eval.choice_ms", "ms"},
          {"eval.self_ms", "ms"},
          {"eval.declined", "count"},
          {"eval.failed", "count"},
          {"lm.prefix_cache.hit_rate", "share"},
          {"serve.batch_occupancy", "token/round"},
          {"serve.rounds", "count"},
          {"serve.round_ms", "ms"},
          {"serve.cached_token_share", "share"},
          {"serve.prefill_tokens", "count"},
          {"serve.decode_tokens", "count"},
          {"serve.peak_queue_depth", "count"},
          {"serve.rejected", "count"},
          {"serve.shed", "count"},
          {"serve.p50_ticks", "tick"},
          {"serve.p99_ticks", "tick"},
          {"serve.latency_samples", "count"},
          {"lm.prefill_us_per_token", "us"},
          {"lm.step_us.p50", "us"},
          {"lm.step_us.p99", "us"},
          {"lm.head_gemv_us", "us"},
          {"lm.head_share", "share"},
          {"lm.decode_flops_per_token", "flop"},
          {"lm.decode_bytes_per_token", "B"},
          {"trace.overhead.setup_s", "share"},
          {"trace.overhead.model_items_per_s", "share"},
          {"trace.overhead.answers_per_s", "share"},
      };
  return *kUnits;
}

/// The end-to-end figures of an untraced pass. Each workload defines them
/// for itself (see NOTES.md); `peak_rss_mb` is added by main.
struct EndToEnd {
  double setup_s = 0.0;
  double model_items_per_s = 0.0;
  double answers_per_s = 0.0;
  double quality = 0.0;
};

void AddEndToEnd(const EndToEnd& e, RunResult& result) {
  result.metrics.push_back({"setup_s", e.setup_s, "s"});
  result.metrics.push_back({"model_items_per_s", e.model_items_per_s, "1/s"});
  result.metrics.push_back({"answers_per_s", e.answers_per_s, "1/s"});
  result.metrics.push_back({"quality", e.quality, "share"});
}

void AddPerLayer(const std::map<std::string, double>& values,
                 const EndToEnd& traced, const EndToEnd& untraced,
                 RunResult& result) {
  // Tracing overhead: (traced - untraced) / untraced.
  auto overhead = [](double traced, double untraced) {
    return Ratio(traced - untraced, untraced);
  };
  std::map<std::string, double> all = values;
  all["trace.overhead.setup_s"] = overhead(traced.setup_s, untraced.setup_s);
  all["trace.overhead.model_items_per_s"] =
      overhead(traced.model_items_per_s, untraced.model_items_per_s);
  all["trace.overhead.answers_per_s"] =
      overhead(traced.answers_per_s, untraced.answers_per_s);
  for (const auto& [name, unit] : PerLayerUnits()) {
    auto it = all.find(name);
    result.metrics.push_back({name, it == all.end() ? 0.0 : it->second, unit});
  }
}

// ---------------------------------------------------------------------------
// dimeval-e2e: KB + linker, BuildDimEval, DimPerc fine-tuning, evaluation.

struct DimEvalSizes {
  int setup_reps;
  int train_per_task;
  int test_per_task;
  int corpus_sentences;
  int train_steps;
  int chunk_steps;  ///< TrainSteps per timed chunk; also the 1-thread check.
  int min_build_reps;
  int min_eval_reps;
};

DimEvalSizes DimEvalSizesFor(bool smoke) {
  if (smoke) return {2, 6, 10, 150, 60, 20, 1, 1};
  return {3, 40, 150, 400, 2000, 50, 2, 7};
}

/// DimPerc's architecture at bench scale (the table07 configuration).
solver::Seq2SeqConfig DimPercConfig() {
  solver::Seq2SeqConfig config;
  config.arch.d_model = 64;
  config.arch.n_heads = 4;
  config.arch.n_layers = 3;
  config.arch.d_ff = 192;
  config.arch.max_seq = 160;
  config.batch_size = 8;
  config.learning_rate = 2e-3;
  config.max_generated_tokens = 64;
  return config;
}

/// DimPerc's training set: the DimEval train split plus the knowledge
/// pairs, exactly as solver::TrainDimPerc assembles it.
std::vector<solver::SeqExample> DimPercExamples(
    const dimeval::DimEvalBenchmark& bench, const kb::DimUnitKB& kb) {
  std::vector<solver::SeqExample> train =
      solver::MakeDimEvalExamples(bench.train);
  for (auto&& extra : {solver::MakeUnitKnowledgeExamples(kb),
                       solver::MakeKindKnowledgeExamples(kb),
                       solver::MakeConversionKnowledgeExamples(kb)}) {
    train.insert(train.end(), extra.begin(), extra.end());
  }
  return train;
}

std::uint64_t BenchDigest(const dimeval::DimEvalBenchmark& bench) {
  std::uint64_t h = Fnv1a("dimeval");
  for (const auto* split : {&bench.train, &bench.test}) {
    for (const dimeval::TaskInstance& inst : *split) {
      h = Fnv1a(inst.task, h);
      h = Fnv1a(inst.prompt, h);
      for (const std::string& choice : inst.choices) h = Fnv1a(choice, h);
      h = Fnv1a(std::to_string(inst.gold_index), h);
      h = Fnv1a(inst.source_text, h);
      for (const dimeval::GoldQuantity& q : inst.gold_quantities) {
        h = Fnv1a(q.value_text + "|" + q.unit_text, h);
      }
    }
  }
  return h;
}

/// Dimension + scale perception macro F1 (the table07 shape-check figure).
double MacroF1(const eval::DimEvalRow& row) {
  auto cats = eval::AggregateByCategory(row);
  return (cats[dimeval::TaskCategory::kDimensionPerception].f1 +
          cats[dimeval::TaskCategory::kScalePerception].f1) /
         2.0;
}

/// Digest of a DimEval row: every task's counts, the extraction F1s and
/// the macro F1, printed with all their digits.
std::uint64_t RowDigest(const eval::DimEvalRow& row) {
  std::string text;
  char buf[160];
  for (const auto& [task, m] : row.choice) {
    std::snprintf(buf, sizeof(buf), "%s:%zu/%zu/%zu/%zu/%zu/%d;", task.c_str(),
                  m.total, m.answered, m.correct, m.declined_after_retry,
                  m.failed, m.incomplete ? 1 : 0);
    text += buf;
  }
  std::snprintf(buf, sizeof(buf), "qe=%.17g ve=%.17g ue=%.17g inc=%d f1=%.17g",
                row.qe_f1, row.ve_f1, row.ue_f1,
                row.extraction_incomplete ? 1 : 0, MacroF1(row));
  text += buf;
  return Fnv1a(text);
}

/// Fails the run on incomplete tasks and counts instances scored/failed.
void AccountRow(const eval::DimEvalRow& row, std::size_t extraction_instances,
                RunResult& result) {
  result.attempted += extraction_instances;
  for (const auto& [task, m] : row.choice) {
    result.attempted += m.total;
    result.failed += m.failed;
    result.Check(!m.incomplete, "dimeval task " + task + " is incomplete");
  }
  if (row.extraction_incomplete) result.failed += extraction_instances;
  result.Check(!row.extraction_incomplete, "dimeval extraction is incomplete");
}

struct Knowledge {
  std::shared_ptr<const kb::DimUnitKB> kb;
  std::shared_ptr<const linking::UnitLinker> linker;
};

/// Builds the KB and the linker `reps` times; returns the last pair and
/// appends each repetition's seconds. With a tracer, each build is a span.
Result<Knowledge> BuildKnowledge(int reps, std::vector<double>& seconds,
                                 Tracer* tracer) {
  Knowledge k;
  for (int r = 0; r < reps; ++r) {
    const double start = NowUs();
    {
      std::optional<ScopedSpan> span;
      if (tracer != nullptr) span.emplace(*tracer, "kb.build");
      DIMQR_ASSIGN_OR_RETURN(k.kb, kb::DimUnitKB::Build());
    }
    {
      std::optional<ScopedSpan> span;
      if (tracer != nullptr) span.emplace(*tracer, "linking.build");
      DIMQR_ASSIGN_OR_RETURN(k.linker, linking::UnitLinker::Build(k.kb));
    }
    seconds.push_back(SecondsSince(start));
  }
  return k;
}

class DimEvalWorkload {
 public:
  explicit DimEvalWorkload(const RunConfig& config)
      : config_(config), sizes_(DimEvalSizesFor(config.smoke)) {
    options_.train_per_task = sizes_.train_per_task;
    options_.test_per_task = sizes_.test_per_task;
    options_.extraction_corpus_sentences = sizes_.corpus_sentences;
    options_.seed = config.seed;
  }

  Status Run(RunResult& result) {
    EndToEnd untraced;
    {
      ScopedParallelism pool(config_.threads);
      DIMQR_RETURN_NOT_OK(Measure(untraced, result));
    }
    DIMQR_RETURN_NOT_OK(CheckSingleThread(result));
    if (!config_.trace) {
      AddEndToEnd(untraced, result);
      return Status::OK();
    }
    ScopedParallelism pool(config_.threads);
    return Trace(untraced, result);
  }

 private:
  Status Measure(EndToEnd& e2e, RunResult& result) {
    std::vector<double> setup_s;
    DIMQR_ASSIGN_OR_RETURN(knowledge_,
                           BuildKnowledge(sizes_.setup_reps, setup_s, nullptr));
    annotator_ = std::make_unique<linking::DimKsAnnotator>(knowledge_.linker);

    const double measure_start = NowUs();
    std::vector<double> build_s;
    auto build_once = [&]() -> Status {
      const double start = NowUs();
      DIMQR_ASSIGN_OR_RETURN(
          dimeval::DimEvalBenchmark bench,
          dimeval::BuildDimEval(knowledge_.kb, *annotator_, options_));
      build_s.push_back(SecondsSince(start));
      const std::uint64_t digest = BenchDigest(bench);
      if (!bench_) {
        bench_digest_ = digest;
        bench_.emplace(std::move(bench));
      } else {
        result.Check(digest == bench_digest_,
                     "BuildDimEval repetitions differ");
      }
      return Status::OK();
    };
    for (int r = 0; r < sizes_.min_build_reps; ++r) {
      DIMQR_RETURN_NOT_OK(build_once());
    }

    DIMQR_ASSIGN_OR_RETURN(
        std::unique_ptr<solver::Seq2SeqModel> model,
        solver::Seq2SeqModel::Create("DimPerc",
                                     DimPercExamples(*bench_, *knowledge_.kb),
                                     DimPercConfig()));
    model_ = std::move(model);
    std::vector<double> chunk_eps;
    const int batch = DimPercConfig().batch_size;
    for (int done = 0; done < sizes_.train_steps; done += sizes_.chunk_steps) {
      const double start = NowUs();
      DIMQR_ASSIGN_OR_RETURN(double loss,
                             model_->TrainSteps(sizes_.chunk_steps));
      chunk_eps.push_back(sizes_.chunk_steps * batch / SecondsSince(start));
      result.Check(std::isfinite(loss), "non-finite training loss");
      if (done == 0) first_chunk_loss_ = loss;
      last_loss_ = loss;
    }

    pipeline_ = std::make_unique<solver::DimPercPipeline>("DimPerc", model_);
    extractor_ = eval::AnnotatorExtractor(*annotator_);
    std::vector<double> eval_s;
    auto eval_once = [&] {
      const double start = NowUs();
      eval::DimEvalRow row =
          eval::EvaluateOnDimEval(*pipeline_, *bench_, &extractor_);
      eval_s.push_back(SecondsSince(start));
      AccountRow(row, ExtractionCount(), result);
      const std::uint64_t digest = RowDigest(row);
      if (eval_s.size() == 1) {
        row_digest_ = digest;
        macro_f1_ = MacroF1(row);
        if (config_.corrupt_digest) row_digest_ ^= 1;
      } else {
        result.Check(digest == row_digest_,
                     "EvaluateOnDimEval repetitions differ");
      }
    };
    for (int r = 0; r < sizes_.min_eval_reps; ++r) eval_once();
    // Fill the run's time budget with more repetitions of the two phases
    // that can repeat without changing the model.
    for (int extra = 0; SecondsSince(measure_start) < config_.seconds;
         ++extra) {
      if (extra % 3 == 2) {
        DIMQR_RETURN_NOT_OK(build_once());
      } else {
        eval_once();
      }
    }

    const double instances =
        AsDouble(bench_->train.size() + bench_->test.size());
    e2e.setup_s = Median(setup_s);
    e2e.model_items_per_s = Median(chunk_eps);
    e2e.answers_per_s = AsDouble(bench_->test.size()) / Median(eval_s);
    e2e.quality = macro_f1_;

    result.Detail("build_instances_per_s", instances / Median(build_s),
                  "1/s");
    result.Detail("train_examples_per_s", e2e.model_items_per_s, "1/s");
    result.Detail("eval_instances_per_s", e2e.answers_per_s, "1/s");
    result.Detail("dimperc_macro_f1", macro_f1_, "share");
    result.Detail("dimeval_instances", instances, "count");
    result.Detail("test_instances", AsDouble(bench_->test.size()), "count");
    result.Detail("train_steps", AsDouble(model_->steps_taken()), "count");
    result.Detail("final_train_loss", last_loss_, "nat");
    result.Detail("setup_reps", AsDouble(setup_s.size()), "count");
    result.Detail("build_reps", AsDouble(build_s.size()), "count");
    result.Detail("train_chunks", AsDouble(chunk_eps.size()), "count");
    result.Detail("eval_reps", AsDouble(eval_s.size()), "count");
    result.digests.push_back({"dimeval_instances", Hex(bench_digest_)});
    result.digests.push_back({"dimeval_row", Hex(row_digest_)});
    return Status::OK();
  }

  /// Recomputes each phase's output at DIMQR_THREADS=1: the DimEval build,
  /// the first training chunk on a fresh model, and the evaluation of the
  /// trained model. All must match the measured outputs bit for bit.
  Status CheckSingleThread(RunResult& result) {
    ScopedParallelism serial(1);
    DIMQR_ASSIGN_OR_RETURN(
        dimeval::DimEvalBenchmark bench,
        dimeval::BuildDimEval(knowledge_.kb, *annotator_, options_));
    result.Check(BenchDigest(bench) == bench_digest_,
                 "BuildDimEval differs at 1 thread");
    DIMQR_ASSIGN_OR_RETURN(
        std::unique_ptr<solver::Seq2SeqModel> fresh,
        solver::Seq2SeqModel::Create("DimPerc",
                                     DimPercExamples(*bench_, *knowledge_.kb),
                                     DimPercConfig()));
    DIMQR_ASSIGN_OR_RETURN(double loss, fresh->TrainSteps(sizes_.chunk_steps));
    result.Check(std::memcmp(&loss, &first_chunk_loss_, sizeof(loss)) == 0,
                 "training loss differs at 1 thread");
    eval::DimEvalRow row =
        eval::EvaluateOnDimEval(*pipeline_, *bench_, &extractor_);
    result.Check(RowDigest(row) == row_digest_,
                 "EvaluateOnDimEval differs at 1 thread");
    return Status::OK();
  }

  Status Trace(const EndToEnd& untraced, RunResult& result) {
    Tracer tracer;
    std::map<std::string, double> layer;
    EndToEnd traced;

    std::vector<double> setup_s;
    DIMQR_ASSIGN_OR_RETURN(Knowledge knowledge,
                           BuildKnowledge(sizes_.setup_reps, setup_s, &tracer));
    traced.setup_s = Median(setup_s);
    layer["kb.build_ms"] = Median(tracer.DurationsUs("kb.build")) / 1e3;
    layer["linking.build_ms"] =
        Median(tracer.DurationsUs("linking.build")) / 1e3;
    linking::DimKsAnnotator annotator(knowledge.linker);

    std::optional<dimeval::DimEvalBenchmark> bench;
    {
      ScopedSpan span(tracer, "dimeval.build");
      DIMQR_ASSIGN_OR_RETURN(
          bench, dimeval::BuildDimEval(knowledge.kb, annotator, options_));
    }
    result.Check(BenchDigest(*bench) == bench_digest_,
                 "traced BuildDimEval differs");
    const double instances =
        AsDouble(bench->train.size() + bench->test.size());
    layer["dimeval.build_ms"] = tracer.TotalUs("dimeval.build") / 1e3;
    layer["dimeval.instances"] = instances;
    layer["kg.bootstrap_triples"] = AsDouble(bench->bootstrap_triples);

    // The test split's extraction texts (what the evaluation annotates),
    // one at a time on this thread.
    for (const dimeval::TaskInstance* inst :
         bench->TestOf(lm::tasks::kQuantityExtraction)) {
      ScopedSpan span(tracer, "linking.annotate");
      (void)annotator.Annotate(inst->source_text);
    }
    layer["linking.annotate_us.p50"] =
        Percentile(tracer.DurationsUs("linking.annotate"), 50);
    layer["linking.annotate_us.p99"] =
        Percentile(tracer.DurationsUs("linking.annotate"), 99);

    std::shared_ptr<solver::Seq2SeqModel> model;
    {
      ScopedSpan span(tracer, "solver.create");
      DIMQR_ASSIGN_OR_RETURN(
          std::unique_ptr<solver::Seq2SeqModel> created,
          solver::Seq2SeqModel::Create("DimPerc",
                                       DimPercExamples(*bench, *knowledge.kb),
                                       DimPercConfig()));
      model = std::move(created);
    }
    layer["solver.create_ms"] = tracer.TotalUs("solver.create") / 1e3;
    {
      ScopedSpan phase(tracer, "solver.train");
      for (int step = 0; step < sizes_.train_steps; ++step) {
        ScopedSpan span(tracer, "solver.train_step", phase.id());
        DIMQR_ASSIGN_OR_RETURN(double loss, model->TrainSteps(1));
        result.Check(std::isfinite(loss), "non-finite training loss (traced)");
      }
    }
    const std::vector<double> steps_us =
        tracer.DurationsUs("solver.train_step");
    const double train_us = tracer.TotalUs("solver.train");
    layer["solver.train_step_ms.p50"] = Percentile(steps_us, 50) / 1e3;
    layer["solver.train_step_ms.p99"] = Percentile(steps_us, 99) / 1e3;
    layer["solver.train_step_share"] =
        tracer.TotalUs("solver.train_step") / train_us;
    traced.model_items_per_s = AsDouble(model->steps_taken()) *
                               DimPercConfig().batch_size / (train_us / 1e6);

    // Evaluation task by task, as EvaluateOnDimEval runs it, with every
    // AnswerChoice call of the pipeline timed by the decorator.
    solver::DimPercPipeline pipeline("DimPerc", model);
    TimedModel timed(pipeline, tracer);
    lm::ResilientModel shield(timed);
    eval::Extractor extractor = eval::AnnotatorExtractor(annotator);
    const lm::PrefixCache::Stats cache_before = model->prefix_cache_stats();
    eval::DimEvalRow row;
    row.model = pipeline.name();
    std::vector<int> choice_ids;
    {
      ScopedSpan phase(tracer, "eval.run");
      for (const char* task : eval::DimEvalChoiceTasks()) {
        ScopedSpan span(tracer, "eval.choice", phase.id());
        choice_ids.push_back(span.id());
        timed.set_parent(span.id());
        row.choice[task] =
            eval::EvaluateChoiceTask(shield, bench->TestOf(task));
      }
      ScopedSpan span(tracer, "eval.extraction", phase.id());
      eval::ApplyExtractionToRow(
          eval::EvaluateExtraction(
              extractor, bench->TestOf(lm::tasks::kQuantityExtraction),
              /*parallel_safe=*/true),
          row);
    }
    const lm::PrefixCache::Stats cache_after = model->prefix_cache_stats();
    // A choice task's self time: its span minus the union of the answer
    // spans inside it (answers overlap when the harness fans out).
    double choice_us = 0.0, self_us = 0.0;
    for (int id : choice_ids) {
      const Span choice = tracer.Get(id);
      choice_us += choice.DurationUs();
      self_us += choice.DurationUs() -
                 UnionUs(tracer.ChildrenOf(id, "solver.answer"),
                         choice.start_us, choice.end_us);
    }
    double declined = 0.0, failed = 0.0;
    for (const auto& [task, m] : row.choice) {
      declined += AsDouble(m.total - m.answered);
      failed += AsDouble(m.failed);
    }
    const std::vector<double> answers_us = tracer.DurationsUs("solver.answer");
    layer["solver.answer_us.p50"] = Percentile(answers_us, 50);
    layer["solver.answer_us.p99"] = Percentile(answers_us, 99);
    layer["eval.choice_ms"] = choice_us / 1e3;
    layer["eval.extraction_ms"] = tracer.TotalUs("eval.extraction") / 1e3;
    layer["eval.self_ms"] = self_us / 1e3;
    layer["eval.declined"] = declined;
    layer["eval.failed"] = failed;
    layer["lm.prefix_cache.hit_rate"] =
        Ratio(cache_after.hits - cache_before.hits,
              cache_after.lookups - cache_before.lookups);
    const double eval_us = choice_us + tracer.TotalUs("eval.extraction");
    traced.answers_per_s = AsDouble(bench->test.size()) / (eval_us / 1e6);
    result.Check(RowDigest(row) == row_digest_,
                 "traced evaluation differs from the untraced one");

    AddPerLayer(layer, traced, untraced, result);
    if (!config_.trace_path.empty() &&
        !tracer.WriteChromeTrace(config_.trace_path)) {
      return Status::Internal("cannot write " + config_.trace_path);
    }
    return Status::OK();
  }

  std::size_t ExtractionCount() const {
    return bench_->TestOf(lm::tasks::kQuantityExtraction).size();
  }

  const RunConfig& config_;
  DimEvalSizes sizes_;
  dimeval::BenchmarkOptions options_;
  Knowledge knowledge_;
  std::unique_ptr<linking::DimKsAnnotator> annotator_;
  std::optional<dimeval::DimEvalBenchmark> bench_;
  std::uint64_t bench_digest_ = 0;
  std::shared_ptr<solver::Seq2SeqModel> model_;
  std::unique_ptr<solver::DimPercPipeline> pipeline_;
  eval::Extractor extractor_;
  double first_chunk_loss_ = 0.0;
  double last_loss_ = 0.0;
  std::uint64_t row_digest_ = 0;
  double macro_f1_ = 0.0;
};

// ---------------------------------------------------------------------------
// serve-shared / serve-unshared: serve::Server on a 32k-vocab Transformer.

struct ServeShape {
  int setup_reps;
  int traces;             ///< Distinct traces per run, seeds split from --seed.
  int requests;           ///< Requests per trace.
  int num_stems;
  int stem_tokens;
  int max_tail_tokens;
  int max_new_tokens;
  int max_burst;
  int max_gap_ticks;
  int check_requests;     ///< Prefix of trace 0 replayed for the checks.
  int replay_requests;    ///< Single-stream replay size (traced runs).
};

ServeShape ServeShapeFor(bool shared, bool smoke) {
  ServeShape s =
      shared ? ServeShape{3, 8, 400, 3, 48, 8, 32, 2, 20, 100, 200}
             : ServeShape{3, 8, 600, 16384, 40, 16, 8, 2, 30, 100, 200};
  if (smoke) {
    s.setup_reps = 2;
    s.traces = 2;
    s.requests = 40;
    s.check_requests = 10;
    s.replay_requests = 10;
  }
  return s;
}

/// The model shape of perf_microbench's DecodeBenchConfig: a LLaMA-sized
/// 32k vocabulary on a d=64, 2-layer body, so the D x V head is real.
lm::TransformerConfig ServeModelConfig() {
  lm::TransformerConfig c;
  c.vocab_size = 32768;
  c.d_model = 64;
  c.n_heads = 2;
  c.n_layers = 2;
  c.d_ff = 256;
  c.max_seq = 96;
  c.seed = 29;
  return c;
}

serve::ServerConfig ServeServerConfig() {
  serve::ServerConfig c;
  c.slots = 8;
  c.eos_token = -1;  // argmax is never -1: every request decodes max_new.
  c.admission.queue_capacity = 256;
  // 16 entries per stripe: stems that hash to one stripe still all stay
  // cached, so the shared workload's hit rate does not depend on the seed.
  c.cache.entries_per_stripe = 16;
  return c;
}

std::uint64_t TraceDigest(const std::vector<serve::ServeRequest>& trace) {
  std::uint64_t h = Fnv1a("trace");
  for (const serve::ServeRequest& r : trace) {
    std::string line = std::to_string(r.id) + "@" +
                       std::to_string(r.arrival_tick) + "/" +
                       std::to_string(r.max_new_tokens) + "/" +
                       std::to_string(static_cast<int>(r.priority)) + ":";
    for (int t : r.prompt) line += std::to_string(t) + ",";
    h = Fnv1a(line, h);
  }
  return h;
}

/// Latencies of every offered request in ticks; a request that did not
/// complete counts as missing and sorts last (it is given the trace's
/// makespan, which no completed request exceeds).
void AppendLatencies(const std::vector<serve::ServeOutcome>& outcomes,
                     std::uint64_t makespan, std::vector<double>& out) {
  for (const serve::ServeOutcome& o : outcomes) {
    out.push_back(o.kind == serve::OutcomeKind::kCompleted
                      ? AsDouble(o.LatencyTicks())
                      : AsDouble(makespan) + 1.0);
  }
}

/// Counters, latencies and per-serve rates over one or more Server::Run
/// calls. Rates are over each call's wall time.
struct ServeTotals {
  std::uint64_t rounds = 0, decode = 0, prefill = 0, cached = 0;
  std::uint64_t rejected = 0, shed = 0, peak_queue = 0;
  std::uint64_t cache_hits = 0, cache_lookups = 0;
  std::uint64_t offered = 0, completed = 0;
  std::vector<double> latencies;
  std::vector<double> prompt_tokens_per_s, tokens_per_s, requests_per_s,
      round_ms;

  void Add(const serve::Server& server,
           const std::vector<serve::ServeOutcome>& outcomes, double wall_s) {
    const serve::ServerStats& s = server.stats();
    rounds += s.rounds;
    decode += s.decode_tokens;
    prefill += s.prefill_tokens;
    cached += s.cached_tokens;
    rejected += s.rejected;
    shed += s.shed;
    peak_queue = std::max(peak_queue, s.peak_queue_depth);
    cache_hits += server.cache_stats().hits;
    cache_lookups += server.cache_stats().lookups;
    const serve::ServeReport report = serve::BuildReport(outcomes);
    offered += report.total;
    completed += report.completed;
    AppendLatencies(outcomes, server.clock(), latencies);
    prompt_tokens_per_s.push_back(
        AsDouble(s.prefill_tokens + s.cached_tokens) / wall_s);
    tokens_per_s.push_back(AsDouble(report.generated_tokens) / wall_s);
    requests_per_s.push_back(AsDouble(report.completed) / wall_s);
    round_ms.push_back(Ratio(wall_s * 1e3, s.rounds));
  }

  /// Appends `other`'s per-serve rates (its counters stay separate).
  void AddRates(const ServeTotals& other) {
    for (auto [to, from] :
         {std::pair{&prompt_tokens_per_s, &other.prompt_tokens_per_s},
          std::pair{&tokens_per_s, &other.tokens_per_s},
          std::pair{&requests_per_s, &other.requests_per_s},
          std::pair{&round_ms, &other.round_ms}}) {
      to->insert(to->end(), from->begin(), from->end());
    }
  }

  EndToEnd Rates() const {
    EndToEnd e;
    e.model_items_per_s = Median(tokens_per_s);
    e.answers_per_s = Median(requests_per_s);
    e.quality = Ratio(completed, offered);
    return e;
  }
};

class ServeWorkload {
 public:
  ServeWorkload(const RunConfig& config, bool shared)
      : config_(config), shape_(ServeShapeFor(shared, config.smoke)) {}

  Status Run(RunResult& result) {
    EndToEnd untraced;
    {
      ScopedParallelism pool(config_.threads);
      DIMQR_RETURN_NOT_OK(Measure(untraced, result));
    }
    DIMQR_RETURN_NOT_OK(CheckPrefix(result));
    if (!config_.trace) {
      AddEndToEnd(untraced, result);
      return Status::OK();
    }
    ScopedParallelism pool(config_.threads);
    return Trace(untraced, result);
  }

 private:
  serve::LoadGenConfig LoadConfig(int trace) const {
    serve::LoadGenConfig g;
    g.num_requests = shape_.requests;
    g.seed = Rng::SplitSeed(config_.seed, static_cast<std::uint64_t>(trace));
    g.vocab_size = ServeModelConfig().vocab_size;
    g.num_stems = shape_.num_stems;
    g.stem_tokens = shape_.stem_tokens;
    g.max_tail_tokens = shape_.max_tail_tokens;
    g.max_new_tokens = shape_.max_new_tokens;
    g.max_burst = shape_.max_burst;
    g.max_gap_ticks = shape_.max_gap_ticks;
    return g;
  }

  /// Creates the model `setup_reps` times (median seconds out).
  Status CreateModel(double& median_s, Tracer* tracer) {
    std::vector<double> seconds;
    for (int r = 0; r < shape_.setup_reps; ++r) {
      const double start = NowUs();
      std::optional<ScopedSpan> span;
      if (tracer != nullptr) span.emplace(*tracer, "lm.create");
      DIMQR_ASSIGN_OR_RETURN(lm::Transformer model,
                             lm::Transformer::Create(ServeModelConfig()));
      model_.emplace(std::move(model));
      seconds.push_back(SecondsSince(start));
    }
    median_s = Median(seconds);
    return Status::OK();
  }

  /// Serves one trace on a fresh server; returns the journal digest.
  Result<std::uint64_t> ServeOnce(const std::vector<serve::ServeRequest>& trace,
                                  ServeTotals* totals) {
    serve::Server server(*model_, ServeServerConfig());
    const double start = NowUs();
    DIMQR_ASSIGN_OR_RETURN(std::vector<serve::ServeOutcome> outcomes,
                           server.Run(trace));
    const double wall_s = SecondsSince(start);
    if (totals != nullptr) totals->Add(server, outcomes, wall_s);
    return Fnv1a(serve::FormatJournal(outcomes));
  }

  Status Measure(EndToEnd& e2e, RunResult& result) {
    double setup_s = 0.0;
    DIMQR_RETURN_NOT_OK(CreateModel(setup_s, nullptr));

    // Each trace is generated twice; the generator must be deterministic.
    for (int k = 0; k < shape_.traces; ++k) {
      traces_.push_back(serve::GenerateLoad(LoadConfig(k)));
      result.Check(TraceDigest(serve::GenerateLoad(LoadConfig(k))) ==
                       TraceDigest(traces_.back()),
                   "GenerateLoad repetitions differ");
    }

    const double measure_start = NowUs();
    ServeTotals first;
    for (int k = 0; k < shape_.traces; ++k) {
      DIMQR_ASSIGN_OR_RETURN(std::uint64_t digest,
                             ServeOnce(traces_[k], &first));
      journal_digests_.push_back(digest);
    }
    if (config_.corrupt_digest) journal_digests_[0] ^= 1;
    // Fill the run's time budget by serving the traces again; every
    // journal must repeat byte for byte.
    ServeTotals repeats;
    for (int j = 0; SecondsSince(measure_start) < config_.seconds; ++j) {
      const int k = j % shape_.traces;
      DIMQR_ASSIGN_OR_RETURN(std::uint64_t digest,
                             ServeOnce(traces_[k], &repeats));
      result.Check(digest == journal_digests_[k],
                   "serve journal differs between repetitions");
    }

    result.attempted += first.offered + repeats.offered;
    result.failed += (first.offered - first.completed) +
                     (repeats.offered - repeats.completed);
    ServeTotals rates = first;
    rates.AddRates(repeats);
    e2e = rates.Rates();
    e2e.setup_s = setup_s;
    result.Detail("serve_prompt_tokens_per_s",
                  Median(rates.prompt_tokens_per_s), "1/s");
    result.Detail("serve_tokens_per_s", e2e.model_items_per_s, "1/s");
    result.Detail("serve_requests_per_s", e2e.answers_per_s, "1/s");
    result.Detail("serve_round_ms", Median(rates.round_ms), "ms");
    result.Detail("serve_p50_ticks", Percentile(first.latencies, 50), "tick");
    result.Detail("serve_p99_ticks", Percentile(first.latencies, 99), "tick");
    result.Detail("latency_samples", AsDouble(first.latencies.size()),
                  "count");
    result.Detail("completed_share", e2e.quality, "share");
    result.Detail("serves", AsDouble(rates.tokens_per_s.size()), "count");
    result.Detail("decode_tokens", AsDouble(first.decode), "count");
    result.Detail("prefill_tokens", AsDouble(first.prefill), "count");
    result.Detail("cached_tokens", AsDouble(first.cached), "count");
    std::uint64_t all = Fnv1a("journals");
    for (std::uint64_t d : journal_digests_) all = Fnv1a(Hex(d), all);
    result.digests.push_back({"serve_journals", Hex(all)});
    return Status::OK();
  }

  /// Serves the first `check_requests` requests of trace 0 twice at the
  /// run's thread count and once at DIMQR_THREADS=1: the three journals
  /// must be byte-identical.
  Status CheckPrefix(RunResult& result) {
    std::vector<serve::ServeRequest> prefix(
        traces_[0].begin(),
        traces_[0].begin() + std::min<std::size_t>(traces_[0].size(),
                                                   shape_.check_requests));
    std::uint64_t digests[3] = {0, 0, 0};
    for (int i = 0; i < 3; ++i) {
      ScopedParallelism pool(i < 2 ? config_.threads : 1);
      DIMQR_ASSIGN_OR_RETURN(digests[i], ServeOnce(prefix, nullptr));
    }
    if (config_.corrupt_digest) digests[0] ^= 1;
    result.Check(digests[0] == digests[1],
                 "serve journal differs between two runs at one thread count");
    result.Check(digests[0] == digests[2], "serve journal differs at 1 thread");
    return Status::OK();
  }

  Status Trace(const EndToEnd& untraced, RunResult& result) {
    Tracer tracer;
    std::map<std::string, double> layer;
    EndToEnd traced;
    double setup_s = 0.0;
    DIMQR_RETURN_NOT_OK(CreateModel(setup_s, &tracer));

    ServeTotals totals;
    for (int k = 0; k < shape_.traces; ++k) {
      ScopedSpan span(tracer, "serve.run");
      DIMQR_ASSIGN_OR_RETURN(std::uint64_t digest,
                             ServeOnce(traces_[k], &totals));
      result.Check(digest == journal_digests_[k],
                   "traced serve journal differs");
    }
    traced = totals.Rates();
    traced.setup_s = setup_s;
    const double run_s = tracer.TotalUs("serve.run") / 1e6;

    layer["serve.rounds"] = AsDouble(totals.rounds);
    layer["serve.round_ms"] = Ratio(run_s * 1e3, totals.rounds);
    layer["serve.batch_occupancy"] = Ratio(totals.decode, totals.rounds);
    layer["serve.decode_tokens"] = AsDouble(totals.decode);
    layer["serve.prefill_tokens"] = AsDouble(totals.prefill);
    layer["serve.cached_token_share"] =
        Ratio(totals.cached, totals.cached + totals.prefill);
    layer["serve.peak_queue_depth"] = AsDouble(totals.peak_queue);
    layer["serve.rejected"] = AsDouble(totals.rejected);
    layer["serve.shed"] = AsDouble(totals.shed);
    layer["serve.p50_ticks"] = Percentile(totals.latencies, 50);
    layer["serve.p99_ticks"] = Percentile(totals.latencies, 99);
    layer["serve.latency_samples"] = AsDouble(totals.latencies.size());
    layer["lm.prefix_cache.hit_rate"] =
        Ratio(totals.cache_hits, totals.cache_lookups);

    DIMQR_RETURN_NOT_OK(ReplaySingleStream(tracer, layer));

    AddPerLayer(layer, traced, untraced, result);
    if (!config_.trace_path.empty() &&
        !tracer.WriteChromeTrace(config_.trace_path)) {
      return Status::Internal("cannot write " + config_.trace_path);
    }
    return Status::OK();
  }

  /// Replays the first requests of trace 0 one at a time: PrefillWithCache
  /// for the prompt, then Step for each new token. After each step the
  /// output head alone (lm::kernels::MatMul at 1 x D x V, on a matrix of the
  /// head's shape) is timed too, so both see the same machine conditions.
  Status ReplaySingleStream(Tracer& tracer,
                            std::map<std::string, double>& layer) {
    const lm::TransformerConfig c = ServeModelConfig();
    AlignedVec<float> x(static_cast<std::size_t>(c.d_model));
    AlignedVec<float> head(static_cast<std::size_t>(c.d_model) * c.vocab_size);
    AlignedVec<float> logits(static_cast<std::size_t>(c.vocab_size));
    Rng rng(7);
    for (float& v : x) v = static_cast<float>(rng.UniformReal(-1.0, 1.0));
    for (float& v : head) v = static_cast<float>(rng.UniformReal(-1.0, 1.0));

    lm::PrefixCache cache(ServeServerConfig().cache);
    lm::DecodeState state;
    double uncached_tokens = 0.0;
    double context_sum = 0.0;
    const int n = std::min<int>(shape_.replay_requests,
                                static_cast<int>(traces_[0].size()));
    for (int i = 0; i < n; ++i) {
      const serve::ServeRequest& request =
          traces_[0][static_cast<std::size_t>(i)];
      int cached = 0;
      {
        ScopedSpan span(tracer, "lm.prefill");
        DIMQR_ASSIGN_OR_RETURN(
            cached, model_->PrefillWithCache(request.prompt, state, &cache));
      }
      uncached_tokens += AsDouble(request.prompt.size()) - cached;
      for (int t = 0; t < request.max_new_tokens; ++t) {
        const int token = lm::ArgmaxLowest(state.logits());
        context_sum += state.position() + 1;
        {
          ScopedSpan span(tracer, "lm.step");
          DIMQR_RETURN_NOT_OK(model_->Step(state, token));
        }
        ScopedSpan span(tracer, "lm.head_gemv");
        lm::kernels::MatMul(x.data(), head.data(), logits.data(), 1, c.d_model,
                            c.vocab_size);
      }
    }
    const std::vector<double> steps = tracer.DurationsUs("lm.step");
    const double step_p50 = Percentile(steps, 50);
    const double gemv = Median(tracer.DurationsUs("lm.head_gemv"));
    layer["lm.prefill_us_per_token"] =
        tracer.TotalUs("lm.prefill") / std::max(uncached_tokens, 1.0);
    layer["lm.step_us.p50"] = step_p50;
    layer["lm.step_us.p99"] = Percentile(steps, 99);
    layer["lm.head_gemv_us"] = gemv;
    layer["lm.head_share"] = step_p50 > 0.0 ? gemv / step_p50 : 0.0;

    // Multiply-adds of one decode step at the replay's mean context length:
    // QKV, attention output and the two FFN matrices per layer, QK^T and
    // attention-weighted V over the context, and the D x V head. Bytes are
    // the fp32 weights those matrices read plus the K/V rows attended over.
    // LayerNorm, softmax, GELU and biases (O(D) each) are left out.
    const double d = c.d_model, ff = c.d_ff, v = c.vocab_size;
    const double layers = c.n_layers;
    const double ctx = Ratio(context_sum, steps.size());
    const double weights = layers * (3 * d * d + d * d + 2 * d * ff) + d * v;
    layer["lm.decode_flops_per_token"] = 2 * weights + layers * 4 * ctx * d;
    layer["lm.decode_bytes_per_token"] = 4 * weights + layers * 4 * 2 * ctx * d;
    return Status::OK();
  }

  const RunConfig& config_;
  ServeShape shape_;
  std::optional<lm::Transformer> model_;
  std::vector<std::vector<serve::ServeRequest>> traces_;
  std::vector<std::uint64_t> journal_digests_;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const auto* const kNames =
      new std::vector<std::string>{"dimeval-e2e", "serve-shared",
                                   "serve-unshared"};
  return *kNames;
}

RunResult RunWorkload(const RunConfig& config) {
  RunResult result;
  Status status;
  if (config.workload == "dimeval-e2e") {
    status = DimEvalWorkload(config).Run(result);
  } else {
    const bool shared = config.workload == "serve-shared";
    status = ServeWorkload(config, shared).Run(result);
  }
  result.Check(status.ok(), status.ToString());
  return result;
}

}  // namespace perfbench
