package lifecycle

import (
	"encoding/json"
	"net/http"
	"slices"

	"nfvpredict/internal/cluster"
	"nfvpredict/internal/resilience"
)

// modelsView is the GET /models response.
type modelsView struct {
	Generation  int           `json:"generation"`
	Threshold   float64       `json:"threshold"`
	Clusters    []clusterView `json:"clusters"`
	Pending     []int         `json:"pending_clusters"`
	CanRollback bool          `json:"can_rollback"`
	Generations []Generation  `json:"generations"`
	Spool       []int         `json:"spool_windows"`
	// Breaker is the adaptation circuit breaker: while open, timer cycles
	// are skipped (POST /models/adapt still forces one — the operator probe).
	Breaker resilience.BreakerStatus `json:"breaker"`
	// ShedLearning reports the degradation controller's learning-shed state.
	ShedLearning bool `json:"shed_learning"`
}

type clusterView struct {
	Cluster     int    `json:"cluster"`
	Fingerprint uint64 `json:"fingerprint"`
	// DriftReference is the histogram drift is judged against (template
	// ID → count); absent until the cluster has one.
	DriftReference cluster.Histogram `json:"drift_reference,omitempty"`
}

// Handler returns the lifecycle admin surface, meant to be mounted at
// /models on the monitor's admin mux:
//
//	GET  /models          — serving generation, per-cluster fingerprints
//	                        and drift references, pending candidates,
//	                        audit log
//	POST /models/promote  — promote pending candidates, bypassing the gate
//	                        (409 when none are pending)
//	POST /models/rollback — one-step rollback to the previous generation
//	                        (409 when there is none)
//	POST /models/adapt    — force one adaptation cycle now (returns its
//	                        CycleResult)
func (m *Manager) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/models", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		m.mu.Lock()
		view := modelsView{
			Generation:  m.generation,
			Threshold:   m.serving.Threshold,
			CanRollback: m.prev != nil,
			Generations: append([]Generation(nil), m.gens...),
		}
		for ci, d := range m.serving.Detectors {
			cv := clusterView{Cluster: ci, Fingerprint: d.Fingerprint()}
			if ci < len(m.refs) {
				cv.DriftReference = m.refs[ci]
			}
			view.Clusters = append(view.Clusters, cv)
		}
		for ci := range m.pending {
			view.Pending = append(view.Pending, ci)
		}
		m.mu.Unlock()
		view.Breaker = m.breaker.Status()
		view.ShedLearning = m.shedLearning.Load()
		slices.Sort(view.Pending)
		ss := m.spools.Load()
		for _, cs := range ss.clusters {
			view.Spool = append(view.Spool, cs.depth())
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(view)
	})
	mux.HandleFunc("/models/promote", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		if err := m.ForcePromote(); err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"promoted": true, "generation": m.Generation()})
	})
	mux.HandleFunc("/models/rollback", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		if err := m.Rollback(); err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"rolled_back": true, "generation": m.Generation()})
	})
	mux.HandleFunc("/models/adapt", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		res := m.TriggerCycle(true)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"promoted": res.Promoted,
			"aborted":  res.Aborted,
			"clusters": len(res.Clusters),
		})
	})
	return mux
}
