package nn

import (
	"encoding/gob"
	"fmt"
	"io"
)

// modelSnapshot is the gob wire form of a SequenceModel.
type modelSnapshot struct {
	Cfg     SeqModelConfig
	Weights map[string][]float64
}

// Save serializes the model's configuration and weights to w using gob.
func (m *SequenceModel) Save(w io.Writer) error {
	snap := modelSnapshot{Cfg: m.cfg, Weights: make(map[string][]float64)}
	for _, p := range m.Params() {
		buf := make([]float64, len(p.W.Data))
		copy(buf, p.W.Data)
		snap.Weights[p.Name] = buf
	}
	if err := gob.NewEncoder(w).Encode(&snap); err != nil {
		return fmt.Errorf("nn: encoding model: %w", err)
	}
	return nil
}

// LoadSequenceModel reconstructs a SequenceModel saved with Save.
func LoadSequenceModel(r io.Reader) (*SequenceModel, error) {
	var snap modelSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("nn: decoding model: %w", err)
	}
	if err := snap.checkShape(); err != nil {
		return nil, err
	}
	m := NewSequenceModel(snap.Cfg)
	for _, p := range m.Params() {
		data, ok := snap.Weights[p.Name]
		if !ok {
			return nil, fmt.Errorf("nn: snapshot missing parameter %q", p.Name)
		}
		if len(data) != len(p.W.Data) {
			return nil, fmt.Errorf("nn: parameter %q has %d weights, want %d", p.Name, len(data), len(p.W.Data))
		}
		copy(p.W.Data, data)
	}
	return m, nil
}

// checkShape refuses a snapshot whose configuration no model can be built
// from, or whose weights do not add up to the parameters that
// configuration implies (NewSequenceModel's layers: per LSTM layer 4h×in,
// 4h×h and 4h; then vocab×h and vocab). It runs before NewSequenceModel
// allocates and initializes the model, so hostile bytes cannot ask for a
// model larger than the file that describes it.
func (snap *modelSnapshot) checkShape() error {
	cfg := snap.Cfg
	have := 0
	for _, w := range snap.Weights {
		have += len(w)
	}
	want := 0
	// add counts a rows×cols parameter, refusing one that would take the
	// count past have (so no product below can overflow).
	add := func(rows, cols int) bool {
		if rows <= 0 || cols <= 0 || rows > have || cols > have || rows*cols > have-want {
			return false
		}
		want += rows * cols
		return true
	}
	in := cfg.Vocab
	if cfg.UseGap {
		in++
	}
	ok := cfg.Vocab > 0 && len(cfg.Hidden) > 0
	for _, h := range cfg.Hidden {
		ok = ok && h > 0 && h <= have && add(4*h, in) && add(4*h, h) && add(1, 4*h)
		in = h
	}
	if !ok || !add(cfg.Vocab, in) || !add(1, cfg.Vocab) || want != have {
		return fmt.Errorf("nn: snapshot of %d weights does not fit vocab %d, hidden %v", have, cfg.Vocab, cfg.Hidden)
	}
	return nil
}
