package sigtree

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// findBestSymsRef is the matcher findBestSyms replaced, kept as its
// oracle: a float similarity for every candidate in the token-count
// bucket, the strictly greatest kept, the threshold on the winner.
func (t *Tree) findBestSymsRef(syms []uint32) (int, bool) {
	bestIdx, bestSim := -1, 0.0
	for _, idx := range t.buckets[len(syms)] {
		sim := symSimilarity(t.templates[idx].syms, syms)
		if sim > bestSim {
			bestSim, bestIdx = sim, idx
		}
	}
	if bestIdx >= 0 && bestSim >= t.simThreshold {
		return bestIdx, bestSim < 1
	}
	return -1, false
}

// symSimilarity is similarity over symbol IDs.
func symSimilarity(a, b []uint32) float64 {
	if len(a) != len(b) {
		return 0
	}
	if len(a) == 0 {
		return 1
	}
	eq := 0
	for i := range a {
		if a[i] == b[i] {
			eq++
		}
	}
	return float64(eq) / float64(len(a))
}

// checkMatch asserts findBestSyms agrees with its oracle on syms.
func checkMatch(t *testing.T, tr *Tree, syms []uint32) {
	t.Helper()
	gotIdx, gotMerge := tr.findBestSyms(syms)
	wantIdx, wantMerge := tr.findBestSymsRef(syms)
	if gotIdx != wantIdx || gotMerge != wantMerge {
		t.Fatalf("findBestSyms(%v) = (%d, %v), oracle (%d, %v)", syms, gotIdx, gotMerge, wantIdx, wantMerge)
	}
}

// duplicateTemplates counts templates whose symbols equal an earlier
// template's: merges can turn two templates into the same sequence.
func duplicateTemplates(tr *Tree) int {
	seen := make(map[string]bool)
	dups := 0
	for _, tpl := range tr.templates {
		k := fmt.Sprint(tpl.syms)
		if seen[k] {
			dups++
		}
		seen[k] = true
	}
	return dups
}

// mergeSequence makes template 0 a duplicate of template 2 through merges:
// "a b c s t" and "d e f s t" are too far apart to merge; "1 2 3 s t"
// (three variable fields) is too far from both and founds "* * * s t";
// "a b 7 s t" merges template 0 to "a b * s t" and "a q 9 s t" to
// "a * * s t"; "z x 9 s t" then scores 3 of 5 against templates 0 and 2
// alike, the lower ID takes it, and template 0 becomes "* * * s t".
var mergeSequence = []string{"a b c s t", "d e f s t", "1 2 3 s t", "a b 7 s t", "a q 9 s t", "z x 9 s t"}

// TestFindBestSymsDuplicateLowestIDWins grows two identical templates by
// merges and checks an exact match goes to the lower ID, through both the
// oracle and the early-exit matcher.
func TestFindBestSymsDuplicateLowestIDWins(t *testing.T) {
	tr := New()
	var tb TokenBuf
	for _, msg := range mergeSequence {
		syms, _ := tr.PrepareSyms(msg, &tb)
		checkMatch(t, tr, syms)
		tr.LearnSyms(syms)
	}
	if tr.Len() != 3 || tr.templates[0].String() != "* * * s t" || tr.templates[2].String() != "* * * s t" {
		t.Fatalf("merges did not build the duplicate: %q %q %q", tr.templates[0], tr.templates[1], tr.templates[2])
	}
	syms, _ := tr.PrepareSyms("8 9 10 s t", &tb)
	checkMatch(t, tr, syms)
	if idx, merge := tr.findBestSyms(syms); idx != 0 || merge {
		t.Fatalf("exact match on duplicates = (%d, %v), want the lower ID (0, false)", idx, merge)
	}
}

// TestFindBestSymsMatchesOracle is the matcher's property test: random
// trees grown from a small vocabulary (so merges, ties and duplicate
// templates are common), with random probes and the empty symbol sequence,
// must match the oracle's template and merge flag on every lookup.
func TestFindBestSymsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dups := 0
	for trial := 0; trial < 200; trial++ {
		tr := New()
		vocab := []uint32{wildcardID}
		for _, w := range []string{"a", "b", "c", "d", "e"} {
			vocab = append(vocab, tr.syms.internString(w))
		}
		random := func() []uint32 {
			syms := make([]uint32, rng.Intn(7))
			for i := range syms {
				syms[i] = vocab[rng.Intn(len(vocab))]
			}
			return syms
		}
		for i := 0; i < 60; i++ {
			syms := random()
			checkMatch(t, tr, syms)
			checkMatch(t, tr, random())
			tr.LearnSyms(syms)
		}
		checkMatch(t, tr, []uint32{})
		dups += duplicateTemplates(tr)
	}
	if dups == 0 {
		t.Fatal("no random tree held duplicate templates; the property has no teeth")
	}
}

// FuzzMatcherOracle learns the fuzzed lines one after another into one tree,
// so merges, ties and duplicate templates build up across them, and checks
// every line's match against the oracle before it is learned.
func FuzzMatcherOracle(f *testing.F) {
	f.Add(strings.Join(mergeSequence, "\n") + "\n8 9 10 s t")
	f.Add("x y z\nx y q\nx p q\n1 y q\nx y z")
	f.Add("\n\n \n")
	f.Fuzz(func(t *testing.T, lines string) {
		tr := New()
		var tb TokenBuf
		for _, msg := range strings.Split(lines, "\n") {
			syms, _ := tr.PrepareSyms(msg, &tb)
			checkMatch(t, tr, syms)
			tr.LearnSyms(syms)
		}
	})
}
