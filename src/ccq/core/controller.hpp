// Step-wise CCQ controller: Algorithm 1 exposed at `step()` granularity.
//
// `run_ccq` (ccq.hpp) remains the one-call entry point, but it is now a
// thin shim over this class.  The controller makes the loop observable
// (a `CcqObserver` hook fires on every probe, pick and recovery epoch —
// the telemetry trace sink and the CLI progress printer both implement
// it) and resumable (`save_state`/`load_state` persist the loop state —
// RNG streams, Hedge weights, optimizer momentum, LR-schedule state —
// and compose with core/snapshot for the model parameters + precision,
// so an interrupted run continues bit-identically).
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "ccq/core/ccq.hpp"
#include "ccq/core/trail.hpp"

namespace ccq::core {

/// One competition probe (Algorithm 1 lines 6–10).  `probabilities` is
/// the distribution the layer was sampled from; `pi` is the Hedge weight
/// vector *after* the exponential update for this probe.
struct ProbeEvent {
  int step = 0;
  int probe_index = 0;
  std::size_t layer = 0;
  const std::string& layer_name;
  float loss = 0.0f;  ///< probe validation loss ξ
  double lambda = 0.0;
  const std::vector<double>& probabilities;
  const std::vector<double>& pi;
};

/// The committed quantization decision (line 11): winner drawn from the
/// Eq. 7 λ-mixed distribution and stepped one ladder level down.
struct PickEvent {
  int step = 0;
  std::size_t layer = 0;
  const std::string& layer_name;
  int new_bits = 0;
  double lambda = 0.0;
  const std::vector<double>& probabilities;
  double compression = 1.0;  ///< ratio after the step-down
};

/// One collaboration fine-tuning epoch (lines 14–18).  `step` is −1 for
/// the initial-quantization recovery epochs that precede step 0.
struct RecoveryEpochEvent {
  int step = 0;
  int epoch_in_step = 0;  ///< 0-based within this quantization step
  int global_epoch = 0;   ///< index into the run-wide epoch curve
  float train_loss = 0.0f;
  float val_loss = 0.0f;
  float val_accuracy = 0.0f;
  double lr = 0.0;  ///< rate the epoch was trained with
};

/// Observer hooks fired synchronously from the controller loop.  All
/// default to no-ops; implementations must not mutate the model.
class CcqObserver {
 public:
  virtual ~CcqObserver() = default;
  virtual void on_probe(const ProbeEvent& event) { (void)event; }
  virtual void on_pick(const PickEvent& event) { (void)event; }
  virtual void on_recovery_epoch(const RecoveryEpochEvent& event) {
    (void)event;
  }
};

/// Algorithm 1 as an explicit state machine:
///
///   CcqController controller(model, train, val, config);
///   controller.init();                  // or load_state(path) to resume
///   while (!controller.done()) controller.step();
///   CcqResult result = controller.result();
///
/// When a telemetry trace sink is configured (`CCQ_TRACE` /
/// `telemetry::set_trace_path`), the controller attaches its own trace
/// observer; additional observers attach via `add_observer`.
class CcqController {
 public:
  /// Binds the run inputs; mutates nothing until `init`/`load_state`.
  /// `model`, `train_set` and `val_set` must outlive the controller.
  CcqController(models::QuantModel& model, const data::Dataset& train_set,
                const data::Dataset& val_set, CcqConfig config);
  ~CcqController();
  CcqController(const CcqController&) = delete;
  CcqController& operator=(const CcqController&) = delete;

  /// Register an observer (non-owning; must outlive the controller).
  void add_observer(CcqObserver* observer);

  /// Algorithm 1 lines 1–3: snap every layer to N(0), run the initial
  /// recovery epochs, measure the quantized baseline.
  void init();

  /// True once `init` or `load_state` has run.
  bool initialized() const { return initialized_; }

  /// True when every layer sleeps or `config.max_steps` is exhausted.
  bool done() const;

  /// One quantization step (lines 5–19): U probes, pick, recovery.
  /// Requires `initialized() && !done()`.  The returned record is owned
  /// by the controller (valid until the next `step`).
  const StepRecord& step();

  int steps_completed() const { return step_; }
  float baseline_accuracy() const { return result_.baseline_accuracy; }

  /// The ladder pick history so far: one entry per committed step, in
  /// commit order (see core/trail.hpp).  Persisted in the controller
  /// state (v2) so a resumed run keeps appending.
  const RungTrail& trail() const { return trail_; }

  /// Final evaluation + accumulated records.  A resumed controller's
  /// result covers only the steps/epochs executed since `load_state`.
  CcqResult result();

  /// Persist the loop state (step/epoch counters, RNG streams, Hedge
  /// weights, optimizer lr + momentum, LR-schedule state) at a step
  /// boundary.  Pair with `save_snapshot` for the model side.
  void save_state(const std::string& path) const;

  /// Resume a run persisted with `save_state`: restores the loop state
  /// and marks the controller initialized.  The model must already hold
  /// the paired snapshot (`load_snapshot`).  Returns false when `path`
  /// does not exist; throws on malformed/mismatched state.
  bool load_state(const std::string& path);

 private:
  void save_state_stream(std::ostream& os) const;
  void record_epoch(float train_loss, const EvalResult& val,
                    const std::string& event);
  void run_recovery_epoch(int step_index, int epoch_in_step,
                          const std::string& event_label, float* accuracy);
  std::vector<double> final_probabilities(const std::vector<bool>& awake,
                                          const std::vector<double>& shares,
                                          double lambda) const;

  models::QuantModel& model_;
  const data::Dataset& train_set_;
  const data::Dataset& val_set_;
  CcqConfig config_;

  Rng rng_;
  data::Batch probe_batch_;
  // One workspace for the whole run: probes, recovery epochs and every
  // validation pass recycle the same buffers, so steady-state steps
  // perform no float-storage allocations.
  Workspace ws_;
  data::DataLoader loader_;
  nn::Sgd optimizer_;
  nn::HybridPlateauCosineLr schedule_;
  HedgeCompetition hedge_;

  CcqResult result_;
  RungTrail trail_;
  float recovery_target_ = 0.0f;
  int planned_steps_ = 0;
  int step_ = 0;
  int epoch_counter_ = 0;
  bool initialized_ = false;

  std::vector<CcqObserver*> observers_;
  std::unique_ptr<CcqObserver> trace_observer_;  ///< auto-attached sink
};

}  // namespace ccq::core
