package detect

import (
	"sort"

	"nfvpredict/internal/features"
)

// Vocabulary maps signature-tree template IDs to dense model class indices
// inside a fixed-capacity class space. The model's input/output width is
// the capacity, so templates first seen after a system update can be given
// fresh, never-trained slots during the next Update/Adapt call without
// resizing the network — the mechanism that keeps post-update "new normal"
// templates distinguishable from fault omens (which are excluded from
// clean training data and therefore keep mapping to the reserved "other"
// class).
//
// Slot assignment happens only on the single-threaded training paths
// (Train/Update/Adapt); Class is read-only and safe for the concurrent
// scoring fan-out.
type Vocabulary struct {
	index    map[int]int
	capacity int
}

// NewVocabulary returns an empty vocabulary with the given class capacity
// (minimum 2: one assignable slot plus "other").
func NewVocabulary(capacity int) *Vocabulary {
	if capacity < 2 {
		capacity = 2
	}
	return &Vocabulary{index: make(map[int]int), capacity: capacity}
}

// BuildVocabulary creates a vocabulary of the given capacity and assigns
// slots for the training streams' templates in frequency order.
func BuildVocabulary(streams [][]features.Event, capacity int) *Vocabulary {
	v := NewVocabulary(capacity)
	v.Assign(streams)
	return v
}

// Assign gives unassigned templates appearing in streams their own class
// slots, most frequent first, until capacity−1 slots are used (the last
// slot stays reserved for "other"). Assignment order is deterministic:
// frequency descending, template ID ascending.
func (v *Vocabulary) Assign(streams [][]features.Event) {
	counts := map[int]int{}
	for _, s := range streams {
		for _, e := range s {
			if _, ok := v.index[e.Template]; !ok {
				counts[e.Template]++
			}
		}
	}
	type tc struct{ id, n int }
	fresh := make([]tc, 0, len(counts))
	for id, n := range counts {
		fresh = append(fresh, tc{id, n})
	}
	sort.Slice(fresh, func(i, j int) bool {
		if fresh[i].n != fresh[j].n {
			return fresh[i].n > fresh[j].n
		}
		return fresh[i].id < fresh[j].id
	})
	for _, t := range fresh {
		if len(v.index) >= v.capacity-1 {
			break
		}
		v.index[t.id] = len(v.index)
	}
}

// Clone returns an independent copy of the vocabulary. Assign on the
// clone (a candidate detector absorbing post-update templates) must never
// leak slots into the original, which may be serving concurrently.
func (v *Vocabulary) Clone() *Vocabulary {
	out := &Vocabulary{index: make(map[int]int, len(v.index)), capacity: v.capacity}
	for k, c := range v.index {
		out.index[k] = c
	}
	return out
}

// Size returns the fixed class capacity (model width).
func (v *Vocabulary) Size() int { return v.capacity }

// Other returns the index of the catch-all class.
func (v *Vocabulary) Other() int { return v.capacity - 1 }

// Class maps a template ID to its class index; unassigned templates map
// to the "other" class. Read-only.
func (v *Vocabulary) Class(template int) int {
	if c, ok := v.index[template]; ok {
		return c
	}
	return v.Other()
}
