#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <thread>
#include <utility>

namespace perfbench {

using diverse::CommunicationEngine;
using diverse::CoresetSpec;
using diverse::GenCoresetResult;
using diverse::GeneralizedCoreset;
using diverse::PointSet;
using diverse::StatusOr;
using diverse::TaskEnvelope;

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

double Tracer::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

int Tracer::TrackOfThisThread() {
  const size_t key = std::hash<std::thread::id>{}(std::this_thread::get_id());
  auto it = tracks_.find(key);
  if (it != tracks_.end()) return it->second;
  const int track = static_cast<int>(tracks_.size()) + 1;
  tracks_.emplace(key, track);
  return track;
}

void Tracer::Record(Span span) {
  span.request = request_.load();
  std::lock_guard<std::mutex> lock(mu_);
  span.track = TrackOfThisThread();
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::RequestSpans(uint64_t request) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  for (const Span& s : spans_) {
    if (s.request == request) out.push_back(s);
  }
  return out;
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

bool Tracer::WriteChromeTrace(const std::string& path,
                              const std::string& meta_json) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"otherData\": %s,\n"
                  "\"traceEvents\": [\n",
               meta_json.c_str());
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d, "
                 "\"args\": {\"id\": %llu, \"parent\": %llu, "
                 "\"request\": %llu",
                 JsonEscape(s.name).c_str(), s.layer.c_str(), s.start * 1e6,
                 (s.end - s.start) * 1e6, s.track,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
    if (!s.round.empty()) {
      std::fprintf(f,
                   ", \"round\": \"%s\", \"task\": %zu, \"attempt\": %zu, "
                   "\"ok\": %s",
                   JsonEscape(s.round).c_str(), s.task, s.attempt,
                   s.ok ? "true" : "false");
    }
    std::fprintf(f, "}}%s\n", i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(Tracer* tracer, std::string name, std::string layer,
                       uint64_t parent)
    : tracer_(tracer) {
  span_.id = tracer_->NewId();
  span_.parent = parent;
  span_.name = std::move(name);
  span_.layer = std::move(layer);
  span_.start = tracer_->Now();
}

double ScopedSpan::Finish() {
  if (!open_) return 0.0;
  open_ = false;
  span_.end = tracer_->Now();
  tracer_->Record(span_);
  return span_.end - span_.start;
}

std::map<std::string, double> LayerSelfTimes(const std::vector<Span>& spans) {
  std::map<std::string, double> out;
  const Span* root = nullptr;
  std::map<uint64_t, const Span*> by_id;
  for (const Span& s : spans) {
    by_id[s.id] = &s;
    if (s.parent == 0) root = &s;
  }
  if (root == nullptr) return out;
  auto depth = [&by_id](const Span& s) {
    int d = 0;
    for (auto it = by_id.find(s.parent); it != by_id.end();
         it = by_id.find(it->second->parent)) {
      ++d;
    }
    return d;
  };
  std::vector<double> cuts;
  for (const Span& s : spans) {
    cuts.push_back(std::clamp(s.start, root->start, root->end));
    cuts.push_back(std::clamp(s.end, root->start, root->end));
  }
  std::sort(cuts.begin(), cuts.end());
  for (size_t i = 0; i + 1 < cuts.size(); ++i) {
    const double lo = cuts[i];
    const double hi = cuts[i + 1];
    if (hi <= lo) continue;
    const Span* deepest = nullptr;
    int deepest_depth = -1;
    for (const Span& s : spans) {
      if (s.start > lo || s.end < hi) continue;
      const int d = depth(s);
      if (d > deepest_depth) {
        deepest = &s;
        deepest_depth = d;
      }
    }
    if (deepest != nullptr) out[deepest->layer] += hi - lo;
  }
  return out;
}

TracingEngine::TracingEngine(CommunicationEngine* inner, Tracer* tracer,
                             std::string layer)
    : inner_(inner), tracer_(tracer), layer_(std::move(layer)) {}

void TracingEngine::RecordCall(const char* name, const TaskEnvelope& env,
                               double start, bool ok) {
  Span span;
  span.id = tracer_->NewId();
  span.parent = tracer_->engine_parent();
  span.name = std::string("engine.") + name;
  span.layer = layer_;
  span.start = start;
  span.end = tracer_->Now();
  span.round = env.round;
  span.task = env.task;
  span.attempt = env.attempt;
  span.ok = ok;
  tracer_->Record(std::move(span));
}

StatusOr<PointSet> TracingEngine::Coreset(const TaskEnvelope& env,
                                          const PointSet& part,
                                          const CoresetSpec& spec) {
  const double start = tracer_->Now();
  StatusOr<PointSet> r = inner_->Coreset(env, part, spec);
  RecordCall("Coreset", env, start, r.ok());
  return r;
}

StatusOr<GenCoresetResult> TracingEngine::GenCoreset(const TaskEnvelope& env,
                                                     const PointSet& part,
                                                     size_t k,
                                                     size_t k_prime) {
  const double start = tracer_->Now();
  StatusOr<GenCoresetResult> r = inner_->GenCoreset(env, part, k, k_prime);
  RecordCall("GenCoreset", env, start, r.ok());
  return r;
}

StatusOr<PointSet> TracingEngine::MergeCoresets(const TaskEnvelope& env,
                                                const PointSet& a,
                                                const PointSet& b) {
  const double start = tracer_->Now();
  StatusOr<PointSet> r = inner_->MergeCoresets(env, a, b);
  RecordCall("MergeCoresets", env, start, r.ok());
  return r;
}

StatusOr<PointSet> TracingEngine::Solve(const TaskEnvelope& env,
                                        const PointSet& aggregate, size_t k) {
  const double start = tracer_->Now();
  StatusOr<PointSet> r = inner_->Solve(env, aggregate, k);
  RecordCall("Solve", env, start, r.ok());
  return r;
}

StatusOr<GeneralizedCoreset> TracingEngine::GenSolve(
    const TaskEnvelope& env, const GeneralizedCoreset& merged, size_t k) {
  const double start = tracer_->Now();
  StatusOr<GeneralizedCoreset> r = inner_->GenSolve(env, merged, k);
  RecordCall("GenSolve", env, start, r.ok());
  return r;
}

StatusOr<PointSet> TracingEngine::Instantiate(
    const TaskEnvelope& env, const GeneralizedCoreset& selected,
    const PointSet& part, double range) {
  const double start = tracer_->Now();
  StatusOr<PointSet> r = inner_->Instantiate(env, selected, part, range);
  RecordCall("Instantiate", env, start, r.ok());
  return r;
}

}  // namespace perfbench
