package sigtree

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"testing"

	"nfvpredict/internal/nfvsim"
)

// symIndexVocab is FuzzSymIndex's vocabulary: 1024 distinct tokens of 1 to
// 40 bytes, so every branch of symHash's tail is taken.
var symIndexVocab = func() (v [1024]string) {
	for k := range v {
		v[k] = fmt.Sprintf("%s%d", strings.Repeat("x", k%37), k)
	}
	return v
}()

// FuzzSymIndex drives one symbol table through interleaved interns (from
// bytes and from strings) and lock-free probes of the published index, at
// a symLimit the input chooses, and holds every answer to a plain map:
// the ID a token was first given, the wildcard once the table is full, and
// an index probe that never finds a wrong ID and, when the index covers
// the whole table, never misses. Hundreds of distinct tokens cross the
// republish and stale-hit thresholds several times.
func FuzzSymIndex(f *testing.F) {
	f.Add(uint16(1<<15), []byte{0, 1, 2, 3, 1, 2, 3, 0})
	seq := make([]byte, 0, 4096)
	for i := 0; i < 1024; i++ {
		seq = binary.LittleEndian.AppendUint16(seq, uint16(i*7919))
	}
	f.Add(uint16(1<<15), seq)
	f.Add(uint16(40), seq)
	f.Add(uint16(300), seq)
	f.Fuzz(func(t *testing.T, limit uint16, ops []byte) {
		old := symLimit
		defer func() { symLimit = old }()
		symLimit = 2 + int(limit)%2048

		var st symTab
		st.init()
		ref := map[string]uint32{Wildcard: wildcardID}
		var overflows uint64
		for len(ops) >= 2 {
			op := binary.LittleEndian.Uint16(ops)
			ops = ops[2:]
			tok := symIndexVocab[op>>2%uint16(len(symIndexVocab))]
			want, known := ref[tok]
			if op&3 == 3 {
				s := st.snap.Load()
				id, ok := lookup(s, []byte(tok), symHash(tok, st.seed))
				switch {
				case ok && (!known || id != want):
					t.Fatalf("index probe of %q found %d; reference %d (known %v)", tok, id, want, known)
				case !ok && known && s.indexed == len(ref):
					t.Fatalf("complete index missed %q", tok)
				}
				continue
			}
			if !known {
				if len(ref) < symLimit {
					want = uint32(len(ref))
					ref[tok] = want
				} else {
					want = wildcardID
					overflows++
				}
			}
			var got uint32
			if op&1 == 0 {
				got = st.intern([]byte(tok))
			} else {
				got = st.internString(tok)
			}
			if got != want {
				t.Fatalf("intern(%q) = %d, reference %d", tok, got, want)
			}
			if got != wildcardID && st.str(got) != tok {
				t.Fatalf("str(%d) = %q, want %q", got, st.str(got), tok)
			}
		}
		if st.size() != len(ref) || st.overflows.Load() != overflows {
			t.Fatalf("table holds %d symbols, %d overflows; reference %d, %d",
				st.size(), st.overflows.Load(), len(ref), overflows)
		}
		if s := st.snap.Load(); 2*s.indexed > len(s.index) {
			t.Fatalf("index %d of %d slots full", s.indexed, len(s.index))
		}
	})
}

// Every table draws its own hash seed, so no one set of tokens collides in
// every monitor's index.
func TestSymTabSeedsDiffer(t *testing.T) {
	a, b := New(), New()
	if a.syms.seed == b.syms.seed {
		t.Fatalf("two tables share seed %#x", a.syms.seed)
	}
	if symHash("interface", a.syms.seed) == symHash("interface", b.syms.seed) {
		t.Fatal("the token hash ignores the seed")
	}
}

// Tokens past the packed counter's 8-bit fields (over 255 bytes, or with
// more than 255 trailing colons) are classified by IsVariableToken, as the
// reference path does.
func TestScannerLongTokens(t *testing.T) {
	tr := New()
	var tb TokenBuf
	for _, msg := range []string{
		strings.Repeat("9", 300) + " down",
		strings.Repeat("a", 255) + "1 up",
		strings.Repeat("ab", 128) + strings.Repeat("1", 200),
		"x" + strings.Repeat(":", 300) + " y",
		"1" + strings.Repeat(":", 256),
		strings.Repeat("1-", 130) + "z",
		strings.Repeat("g", 200) + strings.Repeat("7", 100),
	} {
		want := PrepareTokens(msg)
		syms, _ := tr.PrepareSyms(msg, &tb)
		got := resolveSyms(tr, syms)
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Fatalf("PrepareSyms(%.40q…) = %.80v, reference %.80v", msg, got, want)
		}
	}
}

// fleetTexts is one month of the paper-scale fleet's (38 vPEs) message
// texts, the traffic the served scanner sees.
var fleetTexts = sync.OnceValue(func() []string {
	cfg := nfvsim.DefaultConfig()
	cfg.Months = 1
	cfg.UpdateMonth = -1
	dep, err := nfvsim.New(cfg)
	if err != nil {
		panic(err)
	}
	tr, err := dep.Generate()
	if err != nil {
		panic(err)
	}
	texts := make([]string, len(tr.Messages))
	for i, m := range tr.Messages {
		texts[i] = m.Text
	}
	return texts
})

// BenchmarkAppendSymsFleet is the scanner as a shard runs it, AppendSyms
// into a reused arena, over fleet texts with the fleet's symbol table
// (≈230 symbols, reported as syms) rather than the handful a single line
// interns. ns/op is per message.
func BenchmarkAppendSymsFleet(b *testing.B) {
	texts := fleetTexts()
	tr := New()
	for _, s := range texts {
		tr.Learn(s)
	}
	var tb TokenBuf
	var syms []uint32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		syms, _ = tr.AppendSyms(syms[:0], texts[i%len(texts)], &tb)
	}
	b.ReportMetric(float64(tr.SymCount()), "syms")
}
