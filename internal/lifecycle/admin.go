package lifecycle

import (
	"encoding/json"
	"net/http"

	"nfvpredict/internal/cluster"
)

// modelsView is the GET /models response: the lifecycle Status and the
// serving generation's models, read under one hold of m.mu.
type modelsView struct {
	Status
	Threshold   float64       `json:"threshold"`
	Clusters    []clusterView `json:"clusters"`
	Generations []Generation  `json:"generations"`
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
			Status:      m.statusLocked(),
			Threshold:   m.serving.Threshold,
			Generations: append([]Generation(nil), m.gens...),
		}
		for ci, d := range m.serving.Detectors {
			cv := clusterView{Cluster: ci, Fingerprint: d.Fingerprint()}
			if ci < len(m.refs) {
				cv.DriftReference = m.refs[ci]
			}
			view.Clusters = append(view.Clusters, cv)
		}
		m.mu.Unlock()
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
