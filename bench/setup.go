package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"nfvpredict/internal/bundle"
	"nfvpredict/internal/cluster"
	"nfvpredict/internal/detect"
	"nfvpredict/internal/eval"
	"nfvpredict/internal/features"
	"nfvpredict/internal/logfmt"
	"nfvpredict/internal/nfvsim"
	"nfvpredict/internal/obs"
	"nfvpredict/internal/pipeline"
	"nfvpredict/internal/ticket"
)

// simStart is 1 January so RFC 3164's missing year never wraps inside a
// horizon of at most three months.
var simStart = time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC)

const day = 24 * time.Hour

// trainDays is the length of the training archive; what follows is served.
const trainDays = 10

// scale sizes a run. full is what BENCHMARK.json measures; quick is the
// smoke test's.
type scale struct {
	vpes      int
	hidden    []int // nil keeps detect.DefaultLSTMConfig().Hidden
	rttFrames int   // cap on verdict_rtt samples
	burst     int   // messages per flap_storm burst
}

var (
	fullScale  = scale{vpes: 38, rttFrames: 100000, burst: 50}
	quickScale = scale{vpes: 6, hidden: []int{8, 8}, rttFrames: 300, burst: 5}
)

// workload is one traffic mix. Only the simulator sees the seed.
type workload struct {
	name, why string
	months    int // simulated horizon
	serveDays int // served range is [trainDays, trainDays+serveDays)
	// updateMonth is nfvsim.Config.UpdateMonth; -1 disables the update.
	updateMonth int
	flap        bool // three vPEs burst every 15 minutes
	shed        bool // throughput phase runs in ModeShedScoring
	adapt       bool // lifecycle attached, forced cycles after the update
	// samplePasses is how many passes over the served frames are timed as
	// one throughput sample: shed passes are ~0.1 s, too short alone.
	samplePasses int
}

var workloads = []workload{
	{name: "fleet_steady", months: 3, serveDays: 80, updateMonth: -1, samplePasses: 1,
		why: "38 vPEs, no update: most core time is the LSTM step and waves are wide, so nn/mat/detect changes show here"},
	{name: "flap_storm", months: 1, serveDays: 7, updateMonth: -1, flap: true, samplePasses: 1,
		why: "3 vPEs send most frames in bursts: waves of 1-3 lanes, one hot shard, busy verdict and warning path; batching gains should vanish"},
	{name: "shed_ingest", months: 3, serveDays: 80, updateMonth: -1, shed: true, samplePasses: 8,
		why: "fleet_steady frames with scoring shed: socket, frame, parse, route, queue and tokenizer only, so an nn change must not move it"},
	{name: "update_adapt", months: 3, serveDays: 80, updateMonth: 1, adapt: true, samplePasses: 1,
		why: "system update at month 1 with the lifecycle attached: live template learning, spooling, three forced adapt cycles, checkpoint and restore"},
}

// windowMsgs is the length of one throughput window in messages, some 2 ms
// of serving: long enough that a 16-message batch landing on either side
// of its edge moves the rate little, short enough that a shared host
// leaves some windows of every run undisturbed.
func (w *workload) windowMsgs() int {
	if w.shed {
		return 2048
	}
	return 256
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// setupTimes is setup_s split by stage.
type setupTimes struct {
	sim, dataset, cluster, train, threshold, encode, total, cpu time.Duration
	trainTokens                                                 uint64
}

// fixture is everything a run needs: the encoded model bundle and the
// served range both as wire frames and as the tickets to judge it by.
type fixture struct {
	w      *workload
	bundle []byte // what cmd/nfvtrain would have written

	tickets              []ticket.Ticket
	serveStart, serveEnd time.Time
	update               time.Time // zero without an update

	// frames holds the served range as RFC 6587 octet-counted frames: frame
	// i is frames[off[i]:off[i+1]] and its syslog line, without the length
	// prefix, starts at lineOff[i].
	frames  []byte
	off     []int
	lineOff []int
	// cuts are frame indexes where update_adapt drains and forces a cycle.
	cuts []int

	times setupTimes
}

func (fx *fixture) n() int { return len(fx.lineOff) }

func (fx *fixture) line(i int) []byte { return fx.frames[fx.lineOff[i]:fx.off[i+1]] }

// simConfig is the paper's deployment cut to the workload's horizon.
func simConfig(w *workload, sc scale, seed int64) nfvsim.Config {
	cfg := nfvsim.DefaultConfig()
	cfg.Seed = seed
	cfg.NumVPEs = sc.vpes
	cfg.Start = simStart
	cfg.Months = w.months
	cfg.UpdateMonth = w.updateMonth
	if w.flap {
		cfg.Injections = []nfvsim.Injection{{
			At:       simStart.Add(trainDays*day + time.Hour),
			Kind:     nfvsim.InjectBurst,
			VPEs:     []string{"vpe01", "vpe02", "vpe03"},
			Messages: sc.burst,
			Repeat:   (w.serveDays*24 - 2) * 4,
			Every:    15 * time.Minute,
		}}
	}
	return cfg
}

// train follows cmd/nfvtrain's run step for step: dataset from the
// training messages only, SelectK on month-0 histograms, one
// DefaultLSTMConfig detector per cluster seeded Seed+101*ci, best-F
// threshold over the training range. The one departure is that clusters
// train side by side, which leaves every detector bit-identical (each owns
// its RNG) — TestTrainerParity holds that.
func train(msgs []logfmt.Message, tickets []ticket.Ticket, vpes []string, hidden []int, tm *setupTimes) (*bundle.Bundle, error) {
	t0 := time.Now()
	ds := pipeline.BuildDatasetFromMessages(msgs, tickets, vpes, simStart, 1)
	tm.dataset = time.Since(t0)

	t0 = time.Now()
	cfg := pipeline.DefaultConfig()
	if hidden != nil {
		cfg.LSTM.Hidden = hidden
	}
	hists := make(map[string]cluster.Histogram, len(ds.VPEs))
	for _, v := range ds.VPEs {
		hists[v] = ds.MonthHistogram(v, 0)
	}
	cl, err := cluster.SelectK(hists, cfg.KMin, cfg.KMax, cfg.ClusterDim, cfg.LSTM.Seed)
	if err != nil {
		return nil, err
	}
	tm.cluster = time.Since(t0)

	t0 = time.Now()
	from, to := ds.MonthStart(0), ds.MonthStart(1)
	b := &bundle.Bundle{Tree: ds.Tree, Assign: cl.Assign}
	b.Detectors = make([]*detect.LSTMDetector, cl.K)
	b.TrainHist = make([]map[int]float64, cl.K)
	scored := make([][]detect.ScoredEvent, cl.K)
	errs := make([]error, cl.K)
	reg := obs.NewRegistry()
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for ci := 0; ci < cl.K; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			var streams [][]features.Event
			for _, v := range cl.Members(ci) {
				if ev := ds.CleanEvents(v, from, to, cfg.TrainExclusion); len(ev) > 0 {
					streams = append(streams, ev)
				}
			}
			hist := make(map[int]float64)
			for _, s := range streams {
				for _, e := range s {
					hist[e.Template]++
				}
			}
			b.TrainHist[ci] = hist
			lcfg := cfg.LSTM
			lcfg.Seed += int64(ci) * 101
			det := detect.NewLSTMDetector(lcfg)
			det.SetMetrics(reg, "cluster"+strconv.Itoa(ci)+"_")
			b.Detectors[ci] = det
			if len(streams) == 0 {
				return
			}
			if err := det.Train(streams); err != nil {
				errs[ci] = fmt.Errorf("training cluster %d: %w", ci, err)
				return
			}
			for _, v := range cl.Members(ci) {
				scored[ci] = append(scored[ci], det.Score(v, ds.RangeEvents(v, from, to))...)
			}
		}(ci)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var all []detect.ScoredEvent
	for _, s := range scored {
		all = append(all, s...)
	}
	for name, v := range reg.Snapshot().Counters {
		if strings.HasSuffix(name, "_lstm_train_tokens_total") {
			tm.trainTokens += v
		}
	}
	tm.train = time.Since(t0)

	t0 = time.Now()
	if len(tickets) > 0 && len(all) > 0 {
		thrs := detect.ThresholdSweep(all, cfg.SweepPoints)
		b.Threshold = eval.BestF(eval.PRCurve(all, tickets, thrs, cfg.Eval, from, to)).Threshold
	} else if len(all) > 0 {
		b.Threshold = detect.ScoreQuantile(all, 0.999)
	}
	tm.threshold = time.Since(t0)
	return b, nil
}

// setup builds one fixture from nothing: simulate, train, encode. It is
// what setup_s times, and it shares no state between calls.
func setup(w *workload, sc scale, seed int64) (*fixture, error) {
	fx := &fixture{w: w}
	start, cpu0 := time.Now(), cpuTime()

	cfg := simConfig(w, sc, seed)
	dep, err := nfvsim.New(cfg)
	if err != nil {
		return nil, err
	}
	tr, err := dep.Generate()
	if err != nil {
		return nil, err
	}
	fx.times.sim = time.Since(start)

	fx.serveStart = simStart.Add(trainDays * day)
	fx.serveEnd = fx.serveStart.Add(time.Duration(w.serveDays) * day)
	if w.updateMonth >= 0 {
		fx.update = simStart.AddDate(0, w.updateMonth, 0)
	}
	at := func(t time.Time) int {
		return sort.Search(len(tr.Messages), func(i int) bool { return !tr.Messages[i].Time.Before(t) })
	}
	lo, hi := at(fx.serveStart), at(fx.serveEnd)
	// Tickets reported after the training archive closes are not known to
	// the trainer.
	var known []ticket.Ticket
	for _, tk := range tr.Tickets {
		if tk.Report.Before(fx.serveStart) {
			known = append(known, tk)
		}
	}
	fx.tickets = tr.Tickets

	model, err := train(tr.Messages[:lo], known, tr.VPENames, sc.hidden, &fx.times)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		return nil, err
	}
	fx.bundle = buf.Bytes()

	t0 := time.Now()
	served := tr.Messages[lo:hi]
	fx.off = make([]int, 0, len(served)+1)
	fx.lineOff = make([]int, 0, len(served))
	for i := range served {
		line := served[i].Format3164()
		fx.off = append(fx.off, len(fx.frames))
		fx.frames = strconv.AppendInt(fx.frames, int64(len(line)), 10)
		fx.frames = append(fx.frames, ' ')
		fx.lineOff = append(fx.lineOff, len(fx.frames))
		fx.frames = append(fx.frames, line...)
	}
	fx.off = append(fx.off, len(fx.frames))
	if w.adapt {
		for _, d := range []int{7, 14, 21} {
			fx.cuts = append(fx.cuts, at(fx.update.Add(time.Duration(d)*day))-lo)
		}
	}
	fx.times.encode = time.Since(t0)
	fx.times.total = time.Since(start)
	fx.times.cpu = cpuTime() - cpu0
	if fx.n() == 0 {
		return nil, fmt.Errorf("workload %s: empty served range", w.name)
	}
	return fx, nil
}
