package detect

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"nfvpredict/internal/features"
	"nfvpredict/internal/nn"
	"nfvpredict/internal/obs"
)

// LSTMConfig parameterizes the LSTM detector.
type LSTMConfig struct {
	// Hidden lists LSTM layer widths; the paper uses two LSTM layers.
	Hidden []int
	// UseGap feeds the inter-arrival gap alongside the template one-hot,
	// the (m_i, t_i − t_{i−1}) tuple of §4.2.
	UseGap bool
	// MaxVocab caps model classes (frequent templates + "other").
	MaxVocab int
	// WindowLen and Stride control BPTT window extraction.
	WindowLen, Stride int
	// Epochs is the number of initial-training passes.
	Epochs int
	// UpdateEpochs is the number of passes per monthly incremental update.
	UpdateEpochs int
	// OverSampleRounds bounds the §4.2 minority-pattern over-sampling
	// loop (the loop also exits early once the training false-positive
	// proxy stops improving).
	OverSampleRounds int
	// AdaptFreezeLayers is how many bottom LSTM layers stay frozen while
	// fine-tuning the student after a system update (§4.3).
	AdaptFreezeLayers int
	// AdaptEpochs is the number of fine-tuning passes during Adapt.
	AdaptEpochs int
	// LR and Clip configure the Adam optimizer.
	LR, Clip float64
	// MaxWindowsPerEpoch subsamples training windows for bounded cost;
	// 0 means no cap.
	MaxWindowsPerEpoch int
	// Parallelism is the number of goroutines used for the over-sampling
	// loop's training-loss evaluation. Results are bit-identical for any
	// value; ≤1 means sequential.
	Parallelism int
	// Seed drives initialization and shuffling.
	Seed int64
}

// DefaultLSTMConfig mirrors the paper's architecture (2 LSTM layers +
// 1 dense) at simulation scale.
func DefaultLSTMConfig() LSTMConfig {
	return LSTMConfig{
		Hidden:             []int{32, 32},
		UseGap:             true,
		MaxVocab:           80,
		WindowLen:          24,
		Stride:             12,
		Epochs:             2,
		UpdateEpochs:       1,
		OverSampleRounds:   2,
		AdaptFreezeLayers:  1,
		AdaptEpochs:        8,
		LR:                 3e-3,
		Clip:               5,
		MaxWindowsPerEpoch: 4000,
		Seed:               1,
	}
}

// LSTMDetector is the paper's primary method: an LSTM language model over
// template sequences; the anomaly score of a message is the negative log-
// likelihood the model assigned it given its context (§4.2).
type LSTMDetector struct {
	cfg     LSTMConfig
	vocab   *Vocabulary
	model   *nn.SequenceModel
	opt     *nn.Adam
	trainer *nn.BatchTrainer
	rng     *rand.Rand
	met     lstmMetrics
}

// lstmMetrics holds the detector's observability handles. All fields are
// nil until SetMetrics attaches a registry; every operation on a nil
// handle is a no-op, so the uninstrumented hot path pays one predictable
// branch and nothing else (benchmarked in bench_obs_test.go).
type lstmMetrics struct {
	// steps / stepSeconds cover online scoring (LSTMStream.Push →
	// StepLogProbs), the monitor's per-message hot path.
	steps       *obs.Counter
	stepSeconds *obs.Histogram
	// Training-progress metrics: one epoch = one trainEpoch pass.
	epochs       *obs.Counter
	epochLoss    *obs.Gauge
	epochSeconds *obs.Histogram
	tokensPerSec *obs.Gauge
	trainTokens  *obs.Counter
	// oversampleRounds counts §4.2 minority-pattern over-sampling rounds
	// actually run (the loop can exit early).
	oversampleRounds *obs.Counter
}

// SetMetrics attaches the detector to a registry; prefix (e.g.
// "cluster0_") namespaces multi-detector deployments, since the registry
// is a flat namespace. Call before serving or training; passing a nil
// registry detaches. Metric names: <prefix>lstm_steps_total,
// <prefix>lstm_step_seconds, <prefix>lstm_epochs_total,
// <prefix>lstm_epoch_loss, <prefix>lstm_epoch_seconds,
// <prefix>lstm_tokens_per_sec, <prefix>lstm_train_tokens_total,
// <prefix>lstm_oversample_rounds_total.
func (d *LSTMDetector) SetMetrics(reg *obs.Registry, prefix string) {
	if reg == nil {
		d.met = lstmMetrics{}
		return
	}
	d.met = lstmMetrics{
		steps:       reg.Counter(prefix+"lstm_steps_total", "Online scoring steps (StepLogProbs calls via LSTMStream.Push)."),
		stepSeconds: reg.Histogram(prefix+"lstm_step_seconds", "StepLogProbs latency on the online scoring path.", obs.DurationBuckets()),
		epochs:      reg.Counter(prefix+"lstm_epochs_total", "Training epochs completed (initial, update, adapt, over-sample)."),
		epochLoss:   reg.Gauge(prefix+"lstm_epoch_loss", "Mean per-token log-loss of the most recent training epoch."),
		epochSeconds: reg.Histogram(prefix+"lstm_epoch_seconds", "Wall time per training epoch.",
			obs.ExpBuckets(0.001, 4, 10)),
		tokensPerSec:     reg.Gauge(prefix+"lstm_tokens_per_sec", "Training throughput of the most recent epoch."),
		trainTokens:      reg.Counter(prefix+"lstm_train_tokens_total", "Tokens consumed by training epochs."),
		oversampleRounds: reg.Counter(prefix+"lstm_oversample_rounds_total", "§4.2 over-sampling rounds run."),
	}
}

// NewLSTMDetector returns an untrained detector.
func NewLSTMDetector(cfg LSTMConfig) *LSTMDetector {
	if len(cfg.Hidden) == 0 {
		cfg.Hidden = []int{32, 32}
	}
	if cfg.WindowLen < 2 {
		cfg.WindowLen = 2
	}
	if cfg.Stride < 1 {
		cfg.Stride = cfg.WindowLen
	}
	return &LSTMDetector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Name implements Detector.
func (d *LSTMDetector) Name() string { return "lstm" }

// parallelism returns the effective worker count (at least 1).
func (d *LSTMDetector) parallelism() int {
	if d.cfg.Parallelism < 1 {
		return 1
	}
	return d.cfg.Parallelism
}

// rebuildTrainer must run whenever d.model or d.opt is replaced: the
// trainer caches the model's parameter list.
func (d *LSTMDetector) rebuildTrainer() {
	d.trainer = nn.NewBatchTrainer(d.model, d.opt)
}

// Model exposes the underlying sequence model (nil before Train), used by
// serialization paths and tests.
func (d *LSTMDetector) Model() *nn.SequenceModel { return d.model }

// Clone returns a deep, independently trainable copy of a trained
// detector — the candidate-building primitive of the online lifecycle: the
// clone can Update/Adapt in a background goroutine while the original
// keeps serving, sharing no mutable state (weights, vocabulary, optimizer
// moments, RNG, and scratch are all copied or fresh). The clone starts
// with fresh optimizer moments and a Seed-reset RNG, like a detector
// loaded from disk, and carries no metrics registry — call SetMetrics on
// it (with a prefix naming the candidate) if its training should be
// observable. Cloning an untrained detector returns an untrained detector.
func (d *LSTMDetector) Clone() *LSTMDetector {
	out := NewLSTMDetector(d.cfg)
	if d.model == nil {
		return out
	}
	out.model = d.model.Clone()
	out.vocab = d.vocab.Clone()
	out.opt = nn.NewAdam(d.cfg.LR, d.cfg.Clip)
	out.rebuildTrainer()
	return out
}

// Fingerprint returns the underlying model's weight fingerprint (0 for an
// untrained detector), the generation identity reported by the lifecycle
// /models listing.
func (d *LSTMDetector) Fingerprint() uint64 {
	if d.model == nil {
		return 0
	}
	return d.model.Fingerprint()
}

// tokenize converts an event stream into model tokens.
func (d *LSTMDetector) tokenize(stream []features.Event) []nn.Token {
	toks := make([]nn.Token, len(stream))
	for i, e := range stream {
		toks[i] = nn.Token{ID: d.vocab.Class(e.Template), Gap: gapSeconds(stream, i)}
	}
	return toks
}

// windows cuts per-stream tokens into overlapping BPTT windows.
func (d *LSTMDetector) windows(streams [][]features.Event) [][]nn.Token {
	var out [][]nn.Token
	for _, s := range streams {
		toks := d.tokenize(s)
		for lo := 0; lo+2 <= len(toks); lo += d.cfg.Stride {
			hi := lo + d.cfg.WindowLen
			if hi > len(toks) {
				hi = len(toks)
			}
			out = append(out, toks[lo:hi])
			if hi == len(toks) {
				break
			}
		}
	}
	return out
}

// Train implements Detector: vocabulary fit, initial epochs, then the
// §4.2 over-sampling loop on poorly modeled normal windows.
func (d *LSTMDetector) Train(streams [][]features.Event) error {
	if countEvents(streams) < 2 {
		return fmt.Errorf("detect: lstm training needs at least 2 events")
	}
	d.vocab = BuildVocabulary(streams, d.cfg.MaxVocab)
	// The model's class space is the vocabulary capacity, not the number
	// of templates seen so far: spare slots are assigned to templates that
	// appear after system updates (see Vocabulary).
	d.model = nn.NewSequenceModel(nn.SeqModelConfig{
		Vocab:  d.vocab.Size(),
		Hidden: d.cfg.Hidden,
		UseGap: d.cfg.UseGap,
		Seed:   d.cfg.Seed,
	})
	d.opt = nn.NewAdam(d.cfg.LR, d.cfg.Clip)
	d.rebuildTrainer()
	wins := d.windows(streams)
	for e := 0; e < d.cfg.Epochs; e++ {
		d.trainEpoch(wins)
	}
	d.overSampleLoop(wins)
	return nil
}

// Update implements Detector: incremental training on fresh data (§4.3
// online learning). It is weight-only: the vocabulary is NOT extended, so
// templates introduced by a software update keep folding into "other" —
// which is why naive incremental updates cannot fully recover from an
// update (Figure 7's baseline/cust dip) and the paper reaches for either
// transfer-learning adaptation (Adapt, which does extend the vocabulary)
// or a full retrain once enough fresh data has accumulated.
func (d *LSTMDetector) Update(streams [][]features.Event) error {
	if d.model == nil {
		return d.Train(streams)
	}
	wins := d.windows(streams)
	for e := 0; e < d.cfg.UpdateEpochs; e++ {
		d.trainEpoch(wins)
	}
	return nil
}

// Adapt implements Detector: teacher→student transfer learning. The
// student copies the teacher, freezes the bottom layers, and fine-tunes
// the top of the network on the (short) fresh streams (§4.3).
func (d *LSTMDetector) Adapt(streams [][]features.Event) error {
	if d.model == nil {
		return d.Train(streams)
	}
	d.vocab.Assign(streams)
	student := d.model.Clone()
	// Never freeze the whole recurrent stack: fine-tuning needs at least
	// the top LSTM layer plus the dense output (§4.3 "fine tune top
	// layers of the model").
	freeze := d.cfg.AdaptFreezeLayers
	if max := len(d.cfg.Hidden) - 1; freeze > max {
		freeze = max
	}
	student.FreezeBottomLayers(freeze)
	d.model = student
	d.opt = nn.NewAdam(d.cfg.LR, d.cfg.Clip) // fresh moments for the student
	d.rebuildTrainer()
	wins := d.windows(streams)
	epochs := d.cfg.AdaptEpochs
	if epochs < 1 {
		epochs = 1
	}
	for e := 0; e < epochs; e++ {
		if e == (epochs+1)/2 {
			// Gradual unfreezing: the first half of fine-tuning updates
			// only the top layers (stabilizing on the teacher's
			// features); the second half unfreezes everything so the
			// bottom layer's input projections for newly assigned
			// template slots — random until now — can learn. Without
			// this, a disruptive update whose new templates dominate
			// traffic leaves the frozen layer unable to represent them.
			d.model.Unfreeze()
		}
		d.trainEpoch(wins)
	}
	d.model.Unfreeze()
	return nil
}

// trainEpoch shuffles and trains one pass over the windows, respecting the
// per-epoch cap. The shuffled order is fixed by the detector RNG.
func (d *LSTMDetector) trainEpoch(wins [][]nn.Token) {
	idx := d.rng.Perm(len(wins))
	cap := len(idx)
	if d.cfg.MaxWindowsPerEpoch > 0 && cap > d.cfg.MaxWindowsPerEpoch {
		cap = d.cfg.MaxWindowsPerEpoch
	}
	epoch := make([][]nn.Token, cap)
	tokens := 0
	for k, i := range idx[:cap] {
		epoch[k] = wins[i]
		tokens += len(wins[i])
	}
	start := d.met.epochSeconds.Start()
	loss := d.trainer.Train(epoch)
	if !start.IsZero() {
		elapsed := time.Since(start).Seconds()
		d.met.epochSeconds.Observe(elapsed)
		if elapsed > 0 {
			d.met.tokensPerSec.Set(float64(tokens) / elapsed)
		}
	}
	d.met.epochs.Inc()
	d.met.epochLoss.Set(loss)
	d.met.trainTokens.Add(uint64(tokens))
}

// overSampleLoop implements the §4.2 minority-pattern procedure: after
// each round, normal windows the model still scores badly (false-positive
// proxies) are over-sampled together with a random sample of the rest;
// the loop exits when the bad-window loss stops improving.
func (d *LSTMDetector) overSampleLoop(wins [][]nn.Token) {
	if len(wins) == 0 {
		return
	}
	prevBad := -1.0
	for round := 0; round < d.cfg.OverSampleRounds; round++ {
		d.met.oversampleRounds.Inc()
		type wl struct {
			i    int
			loss float64
		}
		losses := make([]wl, len(wins))
		d.forEachWindow(len(wins), func(i int) {
			losses[i] = wl{i, d.model.SequenceLogLoss(wins[i])}
		})
		sort.Slice(losses, func(a, b int) bool { return losses[a].loss > losses[b].loss })
		nBad := len(losses) / 5
		if nBad == 0 {
			nBad = 1
		}
		var badMean float64
		for _, x := range losses[:nBad] {
			badMean += x.loss
		}
		badMean /= float64(nBad)
		if prevBad >= 0 && badMean >= prevBad*0.995 {
			return // no further improvement in the false-positive proxy
		}
		prevBad = badMean

		// Over-sample the misclassified windows, random-sample others.
		var batch [][]nn.Token
		for _, x := range losses[:nBad] {
			for k := 0; k < 3; k++ {
				batch = append(batch, wins[x.i])
			}
		}
		rest := losses[nBad:]
		for k := 0; k < len(rest)/3; k++ {
			batch = append(batch, wins[rest[d.rng.Intn(len(rest))].i])
		}
		d.rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
		d.trainer.Train(batch)
	}
}

// forEachWindow runs fn(i) for i in [0, n) on the detector's configured
// worker count. fn must write results by index; with that discipline the
// outcome is independent of the parallelism level.
func (d *LSTMDetector) forEachWindow(n int, fn func(i int)) {
	workers := d.parallelism()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				fn(i)
			}
		}(w)
	}
	wg.Wait()
}

// Score implements Detector: each message's score is its negative log-
// likelihood under the model given the preceding stream — a replay of the
// stream through the online scorer, so offline and served scores cannot
// disagree. The first message has no context and scores 0.
func (d *LSTMDetector) Score(vpe string, stream []features.Event) []ScoredEvent {
	st := d.NewStream()
	if st == nil || len(stream) == 0 {
		return nil
	}
	out := make([]ScoredEvent, len(stream))
	for i, e := range stream {
		out[i] = ScoredEvent{Time: e.Time, VPE: vpe, Score: st.Push(e)}
	}
	return out
}

func countEvents(streams [][]features.Event) int {
	n := 0
	for _, s := range streams {
		n += len(s)
	}
	return n
}
