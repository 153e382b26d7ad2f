#include "core/assigner.h"

#include "core/divide_conquer.h"
#include "core/exact_assigner.h"
#include "core/greedy.h"
#include "core/random_assigner.h"
#include "obs/trace.h"

namespace mqa {

const char* AssignerKindToString(AssignerKind kind) {
  switch (kind) {
    case AssignerKind::kGreedy:
      return "GREEDY";
    case AssignerKind::kDivideConquer:
      return "D&C";
    case AssignerKind::kRandom:
      return "RANDOM";
    case AssignerKind::kExact:
      return "EXACT";
  }
  return "?";
}

namespace {

// Shared plumbing: options storage.
class OptionsAssigner : public Assigner {
 protected:
  explicit OptionsAssigner(const AssignerOptions& options)
      : options_(options) {}

  AssignerOptions options_;
};

class GreedyAssigner : public OptionsAssigner {
 public:
  explicit GreedyAssigner(const AssignerOptions& options)
      : OptionsAssigner(options) {}

  Result<AssignmentResult> Assign(const ProblemInstance& instance) override {
    MQA_TRACE_SPAN("assign/greedy");
    return RunGreedy(instance, options_.delta);
  }

  const char* name() const override { return "GREEDY"; }
};

class DivideConquerAssigner : public OptionsAssigner {
 public:
  explicit DivideConquerAssigner(const AssignerOptions& options)
      : OptionsAssigner(options) {}

  Result<AssignmentResult> Assign(const ProblemInstance& instance) override {
    MQA_TRACE_SPAN("assign/dc");
    return RunDivideConquer(instance, options_.delta, options_.dc_branching);
  }

  const char* name() const override { return "D&C"; }
};

class RandomAssigner : public OptionsAssigner {
 public:
  explicit RandomAssigner(const AssignerOptions& options)
      : OptionsAssigner(options), next_seed_(options.seed) {}

  Result<AssignmentResult> Assign(const ProblemInstance& instance) override {
    MQA_TRACE_SPAN("assign/random");
    return RunRandom(instance, options_.delta, next_seed_++);
  }

  const char* name() const override { return "RANDOM"; }

 private:
  uint64_t next_seed_;
};

class ExactAssigner : public OptionsAssigner {
 public:
  explicit ExactAssigner(const AssignerOptions& options)
      : OptionsAssigner(options) {}

  Result<AssignmentResult> Assign(const ProblemInstance& instance) override {
    MQA_TRACE_SPAN("assign/exact");
    return RunExact(instance, kExactMaxEntities);
  }

  const char* name() const override { return "EXACT"; }
};

}  // namespace

std::unique_ptr<Assigner> CreateAssigner(AssignerKind kind,
                                         const AssignerOptions& options) {
  switch (kind) {
    case AssignerKind::kGreedy:
      return std::make_unique<GreedyAssigner>(options);
    case AssignerKind::kDivideConquer:
      return std::make_unique<DivideConquerAssigner>(options);
    case AssignerKind::kRandom:
      return std::make_unique<RandomAssigner>(options);
    case AssignerKind::kExact:
      return std::make_unique<ExactAssigner>(options);
  }
  return nullptr;
}

}  // namespace mqa
