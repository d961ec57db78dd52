// Package nfvpredict is a from-scratch Go reproduction of "Predictive
// Analysis in Network Function Virtualization" (Li et al., IMC 2018): an
// LSTM-based anomaly-detection system over virtualized-provider-edge (vPE)
// router syslogs whose detected anomalies serve as early warnings for
// network trouble tickets.
//
// The package exposes the offline experiment the paper describes plus every
// substrate it needs (see DESIGN.md for the inventory):
//
//   - a deterministic NFV deployment simulator standing in for the
//     paper's proprietary 18-month, 38-vPE production dataset;
//   - signature-tree log-template extraction (Qiu et al., IMC 2010);
//   - a pure-Go neural-network library (stacked LSTMs with BPTT, dense
//     autoencoders, Adam) replacing the Keras/TensorFlow stack;
//   - K-means vPE clustering with modularity-based K selection (§4.3);
//   - the three detectors of Figure 6 (LSTM, Autoencoder, one-class SVM)
//     behind one interface, all supporting monthly incremental updates
//     and transfer-learning adaptation;
//   - the walk-forward evaluation protocol with anomaly→ticket mapping
//     (Figure 4), PRC sweeps (Figures 5-6), the monthly F-measure series
//     (Figure 7), and per-root-cause lead-time rates (Figure 8).
//
// The runtime deployment mode the paper envisions — a live syslog server
// (UDP + RFC 6587 TCP) feeding an online monitor — is cmd/nfvmonitor, built
// by internal/serve.
//
// # Quickstart
//
//	simCfg := nfvpredict.SmallSimConfig()
//	trace, _ := nfvpredict.Simulate(simCfg)
//	sys, _ := nfvpredict.AnalyzeTrace(trace, simCfg.Start, simCfg.Months, nfvpredict.DefaultConfig())
//	fmt.Println(sys.Report())
//
// See examples/ for runnable programs and bench_test.go for the harness
// that regenerates every figure of the paper's evaluation.
package nfvpredict

import (
	"time"

	"nfvpredict/internal/detect"
	"nfvpredict/internal/eval"
	"nfvpredict/internal/logfmt"
	"nfvpredict/internal/nfvsim"
	"nfvpredict/internal/pipeline"
	"nfvpredict/internal/sigtree"
	"nfvpredict/internal/ticket"
)

// ---------------------------------------------------------------------
// Simulation (the substrate standing in for the proprietary ISP data).
// ---------------------------------------------------------------------

// SimConfig parameterizes the simulated NFV deployment.
type SimConfig = nfvsim.Config

// Trace is a generated deployment history: syslog plus trouble tickets.
type Trace = nfvsim.Trace

// DefaultSimConfig mirrors the paper's scale: 38 vPEs over 18 months with
// a system update around month 14.
func DefaultSimConfig() SimConfig { return nfvsim.DefaultConfig() }

// SmallSimConfig is a laptop-fast fleet for examples and smoke tests.
func SmallSimConfig() SimConfig { return nfvsim.TestConfig() }

// Simulate generates a deployment trace. Equal configs (including Seed)
// produce identical traces.
func Simulate(cfg SimConfig) (*Trace, error) {
	d, err := nfvsim.New(cfg)
	if err != nil {
		return nil, err
	}
	return d.Generate()
}

// ---------------------------------------------------------------------
// Dataset (template extraction + month bookkeeping).
// ---------------------------------------------------------------------

// Dataset is a trace transformed for analysis: per-vPE template-event
// streams via the signature tree, month boundaries, and tickets.
type Dataset = pipeline.Dataset

// NewDataset builds a Dataset from a trace.
func NewDataset(tr *Trace, start time.Time, months int) *Dataset {
	return pipeline.BuildDataset(tr, start, months)
}

// NewDatasetFromMessages builds a Dataset from raw messages (e.g. loaded
// from a JSONL file written by `nfvscen dump`).
func NewDatasetFromMessages(msgs []Message, tickets []Ticket, vpes []string, start time.Time, months int) *Dataset {
	return pipeline.BuildDatasetFromMessages(msgs, tickets, vpes, start, months)
}

// ---------------------------------------------------------------------
// Analysis pipeline (the paper's system).
// ---------------------------------------------------------------------

// Config parameterizes an analysis run.
type Config = pipeline.Config

// Variant selects a Figure 7 system configuration.
type Variant = pipeline.Variant

// The three variants compared in Figure 7.
const (
	Baseline           = pipeline.Baseline
	Customized         = pipeline.Customized
	CustomizedAdaptive = pipeline.CustomizedAdaptive
)

// Method selects the detector family of Figure 6.
type Method = pipeline.Method

// The three methods compared in Figure 6.
const (
	MethodLSTM        = pipeline.MethodLSTM
	MethodAutoencoder = pipeline.MethodAutoencoder
	MethodOCSVM       = pipeline.MethodOCSVM
)

// Result is a full walk-forward run outcome.
type Result = pipeline.Result

// MonthMetrics is one month of the Figure 7 series.
type MonthMetrics = pipeline.MonthMetrics

// ExperimentRow is one configuration's outcome in a §5.2 micro-benchmark.
type ExperimentRow = pipeline.ExperimentRow

// DefaultConfig returns the paper-faithful LSTM system configuration with
// customization and adaptation enabled.
func DefaultConfig() Config { return pipeline.DefaultConfig() }

// Run executes the paper's walk-forward protocol (§5.1): train on month 0,
// then for each later month score it with the models trained so far and
// update (or adapt) afterwards.
func Run(ds *Dataset, cfg Config) (*Result, error) { return pipeline.Run(ds, cfg) }

// TrainingDataSweep reproduces the §5.2 clustering claim (initial training
// data reduced from 3 months to 1 month).
func TrainingDataSweep(ds *Dataset, cfg Config, evalMonth int) ([]ExperimentRow, error) {
	return pipeline.TrainingDataSweep(ds, cfg, evalMonth)
}

// AdaptRecoverySweep reproduces the §5.2 transfer-learning claim (update
// recovery reduced from 3 months to 1 week).
func AdaptRecoverySweep(ds *Dataset, cfg Config, updateMonth int) ([]ExperimentRow, error) {
	return pipeline.AdaptRecoverySweep(ds, cfg, updateMonth)
}

// PredictiveWindowSweep reproduces Figure 5 (PRCs for 1 h / 1 day / 2 day
// predictive periods) over an existing run's scored events.
func PredictiveWindowSweep(ds *Dataset, res *Result, cfg Config, windows []time.Duration) map[time.Duration][]PRPoint {
	return pipeline.PredictiveWindowSweep(ds, res, cfg, windows)
}

// ---------------------------------------------------------------------
// Evaluation types.
// ---------------------------------------------------------------------

// EvalConfig sets the anomaly→ticket mapping parameters (Figure 4).
type EvalConfig = eval.Config

// Metrics bundles precision / recall / F-measure / false alarms per day.
type Metrics = eval.Metrics

// PRPoint is one operating point of a precision-recall curve.
type PRPoint = eval.PRPoint

// Outcome is a full anomaly→ticket mapping result.
type Outcome = eval.Outcome

// TypeDetection is one Figure 8 row (per-cause lead-time rates).
type TypeDetection = eval.TypeDetection

// DetectionByType computes the Figure 8 data from a mapping outcome.
func DetectionByType(o *Outcome, tickets []Ticket, from, to time.Time) []TypeDetection {
	return eval.DetectionByType(o, tickets, from, to)
}

// BestF returns the best-F operating point of a PR curve (§5.2).
func BestF(curve []PRPoint) PRPoint { return eval.BestF(curve) }

// AUCPR returns the area under a precision-recall curve.
func AUCPR(curve []PRPoint) float64 { return eval.AUCPR(curve) }

// ---------------------------------------------------------------------
// Detectors.
// ---------------------------------------------------------------------

// Detector is the common interface of the three methods.
type Detector = detect.Detector

// LSTMConfig configures the paper's primary LSTM detector.
type LSTMConfig = detect.LSTMConfig

// LSTMDetector is the LSTM next-template likelihood detector (§4.2).
type LSTMDetector = detect.LSTMDetector

// Warning is a reported warning signature (≥2 anomalies within a minute).
type Warning = detect.Warning

// ScoredEvent is one detector observation.
type ScoredEvent = detect.ScoredEvent

// NewLSTMDetector returns an untrained LSTM detector.
func NewLSTMDetector(cfg LSTMConfig) *LSTMDetector { return detect.NewLSTMDetector(cfg) }

// DefaultLSTMConfig mirrors the paper's 2-LSTM + 1-dense architecture.
func DefaultLSTMConfig() LSTMConfig { return detect.DefaultLSTMConfig() }

// ---------------------------------------------------------------------
// Data model re-exports.
// ---------------------------------------------------------------------

// Message is one syslog message.
type Message = logfmt.Message

// Ticket is one trouble ticket.
type Ticket = ticket.Ticket

// TicketStore is an immutable ticket collection with the Figure 1-2
// analytics.
type TicketStore = ticket.Store

// RootCause is a ticket root-cause category.
type RootCause = ticket.RootCause

// SignatureTree extracts log templates from raw syslog text.
type SignatureTree = sigtree.Tree

// NewSignatureTree returns an empty signature tree.
func NewSignatureTree() *SignatureTree { return sigtree.New() }

// NewTicketStore wraps tickets in a store sorted by report time.
func NewTicketStore(ts []Ticket) *TicketStore { return ticket.NewStore(ts) }

// SignatureStat aggregates warning anomalies by log template (§5.3).
type SignatureStat = pipeline.SignatureStat

// pipelineSignatureSummary is an internal indirection used by System.
func pipelineSignatureSummary(ds *Dataset, res *Result, cfg Config) []SignatureStat {
	return pipeline.SignatureSummary(ds, res, cfg)
}
